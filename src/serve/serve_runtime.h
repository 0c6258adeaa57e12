// Wall-clock serving runtime: the simulator's serving semantics on real
// threads.
//
// Where PipelineRuntime multiplexes every module, worker and control tick
// through one discrete-event loop, ServeRuntime is a live prototype of the
// paper's system: an open-loop load generator injects requests in (scaled)
// real time, each module's GPU workers are OS threads draining sharded
// DEPQs with work stealing, the PARD broker / estimator / baselines make
// their decisions against wall-clock deadlines behind the ControlPlane
// facade, and a control thread publishes ModuleState snapshots once per
// virtual second exactly like the paper's gRPC state exchange.
//
// An admission front-end performs the proactive drops before a request
// enters any module queue: at every delivery the policy's enqueue-time
// admission AND the Request Broker predicate (with the delivery instant as
// the hypothetical batch start) run first, so requests that cannot meet
// their SLO never consume queue space or GPU time. With
// serve.broker_threads > 1 this front-end runs on a pool of broker threads
// fed from a shared ingress backlog, so admission decisions — reads of the
// control plane's published snapshot — execute genuinely concurrently.
//
// Fleet dynamics: worker rosters live in a BackendFleet shared with the
// simulator's abstraction — slots draw (possibly heterogeneous) backend
// profiles from the pipeline's catalog. With options.enable_scaling the
// control thread runs the same scaling engine as the simulator every
// scaling_epoch (target capacity in baseline-worker units from the smoothed
// offered rate; scale-ups are real threads that serve only after their
// profile's cold start, bounded by serve.max_total_threads), recording the
// per-epoch worker history. options.failures / options.fleet_events apply a
// deterministic kill/recover schedule mid-run, mirroring the simulator's
// Worker::Fail semantics (a killed worker's in-flight batch is lost; the
// shared queue shards survive for the remaining workers).
//
// Concurrency contract (ranks per common/lock_order.h). There is no global
// runtime mutex. Mutable state is partitioned by owner:
//   - Request fate/finish transitions, DAG merge counters: 16 fate stripes
//     (kFate, keyed by request id) — the highest rank, so any thread may
//     resolve a fate while holding module/queue/control locks, never the
//     reverse.
//   - The request log, id counter and dynamic-path RNG belong to the load
//     generator thread alone; the final conservation sweep reads them only
//     after every thread has joined.
//   - The ingress backlog (broker pool) has its own leaf mutex, never held
//     across a delivery.
//   - Module queues/monitors and the control plane's snapshot publication
//     synchronize themselves (serve_module.h, control_plane.h).
//
// Scope vs the simulator: inter-module network delay is folded into real
// forwarding cost, and runs are NOT bit-deterministic — thread scheduling
// and wake-up latency vary run to run; determinism lives in the arrival
// stream and the fault schedule only. Leftover in-flight requests at the
// drain deadline are accounted kLate so conservation holds.
#ifndef PARD_SERVE_SERVE_RUNTIME_H_
#define PARD_SERVE_SERVE_RUNTIME_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "core/tenant_governor.h"
#include "exec/thread_pool.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/backend_fleet.h"
#include "resilience/chaos.h"
#include "runtime/drop_policy.h"
#include "runtime/request.h"
#include "runtime/runtime_options.h"
#include "runtime/state_board.h"
#include "serve/control_plane.h"
#include "serve/serve_clock.h"
#include "serve/serve_module.h"
#include "serve/serve_options.h"

namespace pard {

class Counter;          // obs/metrics.h
class AtomicHistogram;  // obs/metrics.h

class ServeRuntime {
 public:
  // `policy` must outlive the runtime. Worker provisioning mirrors
  // PipelineRuntime (options.fixed_workers, else PlanWorkers from
  // `expected_rate`), additionally capped at serve.max_total_threads real
  // threads across all modules (the cap also bounds runtime scale-ups).
  ServeRuntime(const PipelineSpec& spec, const RuntimeOptions& options, DropPolicy* policy,
               double expected_rate, const ServeOptions& serve);

  // Serves the complete arrival stream (sorted virtual send timestamps) in
  // scaled wall time and blocks until every request is terminal or the drain
  // deadline passes. Call at most once.
  void RunTrace(const std::vector<SimTime>& arrivals);

  // Terminal request records (valid after RunTrace returns); same shape the
  // metrics library analyzes for simulated runs.
  const std::vector<RequestPtr>& requests() const { return requests_; }

  const PipelineSpec& spec() const { return spec_; }
  const ServeClock& clock() const { return clock_; }
  ControlPlane& control() { return control_; }
  const std::vector<int>& batch_sizes() const { return batch_sizes_; }
  const std::vector<int>& worker_plan() const { return worker_plan_; }
  // Shared roster layer: backend profiles, per-worker states, transitions.
  const BackendFleet& fleet() const { return fleet_; }
  // Per-scaling-epoch active worker counts (empty when scaling is off).
  // Valid after RunTrace returns.
  const std::vector<FleetSample>& worker_history() const { return worker_history_; }

  // --- Internal transitions (called from module worker threads) -----------
  void OnModuleDone(const RequestPtr& req, int module_id, SimTime now);
  void Drop(const RequestPtr& req, int module_id, SimTime now, DropReason reason);
  // Deadline-aware retry for a killed/hung worker's in-flight batch: the
  // request is re-enqueued at `module_id` (bounded by
  // options.resilience.max_retries, and only while its remaining deadline
  // budget still covers the stage's planned batch duration); otherwise it
  // drops as kRetryExhausted / kWorkerFailure. Called from the dying worker
  // thread, which owns the batch — retry_count needs no lock.
  void RetryOrDrop(const RequestPtr& req, int module_id, SimTime now);
  // Thread-safe read of req.fate (fates flip on other threads' branches).
  bool IsTerminal(const Request& req) const;

  // Observability (null when disabled). Trace emission goes through the
  // recorder's per-thread SPSC shards, so any worker/broker thread may emit
  // without synchronization; see obs/trace_recorder.h.
  TraceRecorder* trace() { return options_.trace; }
  MetricsRegistry* metrics() { return options_.metrics; }

  // Multi-tenant governor; null for untenanted runs (empty
  // RuntimeOptions::tenants). Its ingress reads are lock-free, so the load
  // generator consults it without entering the lock-rank hierarchy.
  const TenantGovernor* governor() const { return governor_.get(); }

  // Resilience counters (valid while running and after RunTrace returns).
  std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  // Hung workers the watchdog force-failed (each one also provisions a
  // replacement, thread budget permitting).
  std::uint64_t watchdog_recoveries() const {
    return watchdog_kills_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kFateStripes = 16;

  void Inject(SimTime scheduled);
  // Broker pool thread: pops ingress backlog entries and runs the delivery
  // front-end for the source module. Only active with broker_threads > 1.
  void BrokerLoop();
  // Stops the broker pool first (its backlog is provably empty on a drained
  // run, discarded otherwise), then the control thread (so no scale-up can
  // spawn a thread while modules join), then module workers in topo order,
  // so downstream drains what upstream already forwarded. With
  // `abandon_backlog` (drain timeout, mid-run exception) queued requests are
  // discarded instead of served, bounding shutdown to ~one in-flight batch
  // per worker even under a drop-free policy. Idempotent; runs on the normal
  // exit path AND before rethrowing a mid-run exception, so worker threads
  // are never left parked on a condition variable a destructor would then
  // join forever.
  void Shutdown(bool abandon_backlog);
  // Metrics sampler thread: snapshots the registry every
  // options_.metrics_interval of virtual time while the run is live. Reads
  // only lock-free instruments + the registry's leaf mutex, so it can stop
  // at any point in the shutdown sequence.
  void SamplerLoop();
  // Admission front-end + merge bookkeeping + enqueue.
  void Deliver(const RequestPtr& req, int module_id, SimTime now);
  void Complete(const RequestPtr& req, SimTime now);
  // Load-generator thread only (owns rng_).
  void AssignDynamicPath(Request& req);
  // Control thread: state sync every sync_period, the scaling engine every
  // scaling_epoch (when enabled), and the deterministic fault schedule.
  void ControlLoop();
  void ScalingTick(SimTime now);
  // O(1): reads the in-flight counter, so the 2 ms drain poll never scans
  // the request log while workers race the deadline.
  bool AllTerminal() const { return in_flight_.load(std::memory_order_acquire) == 0; }
  std::mutex& FateMutex(const Request& req) const {
    return fate_mu_[static_cast<std::size_t>(req.id) % kFateStripes];
  }

  PipelineSpec spec_;
  RuntimeOptions options_;
  ServeOptions serve_;
  ServeClock clock_;
  StateBoard board_;
  ControlPlane control_;
  std::vector<int> batch_sizes_;
  std::vector<int> worker_plan_;
  BackendFleet fleet_;
  // Merged options_.failures + options_.fleet_events, sorted by time;
  // applied from the control thread.
  std::vector<FleetEvent> fault_schedule_;
  // Expanded chaos schedule (probabilistic templates already concretized),
  // sorted by time; applied from the control thread.
  std::vector<ChaosEvent> chaos_schedule_;
  // Per-module d(batch) at the planned batch size, cached at construction so
  // ingress admission never touches the profile registry from worker threads.
  std::vector<Duration> planned_batch_duration_;
  std::vector<std::unique_ptr<ServeModule>> modules_;
  // Written by the control thread only; read after RunTrace joins it.
  std::vector<FleetSample> worker_history_;

  // Striped fate locks (LockRank::kFate): request fate/finish transitions
  // and DAG merge counters for request r serialize on stripe r.id % 16.
  // Nothing else is ever acquired under a fate stripe.
  mutable std::array<std::mutex, kFateStripes> fate_mu_;
  // Load-generator thread only; read post-join by the conservation sweep.
  Rng rng_;
  std::vector<RequestPtr> requests_;
  std::uint64_t next_request_id_ = 1;
  // Injected-but-not-terminal count; bumped in Inject, dropped on the fate
  // transition in Drop/Complete (under the request's fate stripe, but atomic
  // so the drain loop can read without any lock).
  std::atomic<std::size_t> in_flight_{0};

  // Ingress backlog for the broker pool (broker_threads > 1). Leaf mutex:
  // held only around deque operations, never across a delivery.
  std::mutex broker_mu_;
  std::condition_variable broker_ready_;
  std::deque<RequestPtr> broker_backlog_;
  bool broker_stop_ = false;
  WorkerGroup broker_pool_;

  std::atomic<bool> stop_control_{false};
  WorkerGroup control_thread_;
  std::atomic<bool> stop_sampler_{false};
  WorkerGroup sampler_thread_;
  bool ran_ = false;

  // Resilience accounting: bumped from worker threads (retries) and the
  // control thread (watchdog kills); read by getters and the text summary.
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> watchdog_kills_{0};

  // Pre-resolved instruments (null when options_.metrics is null). Fate
  // counters are bumped outside the fate stripe — counters are lock-free.
  Counter* completed_counter_ = nullptr;
  Counter* drop_reason_counters_[kNumDropReasons] = {};
  Counter* retry_counter_ = nullptr;
  Counter* watchdog_counter_ = nullptr;
  std::vector<Counter*> admitted_counters_;  // per module
  // Tenant-keyed fate tallies ("tenant.<name>.completed|dropped"), indexed
  // by tenant; empty when untenanted or metrics are disabled. Counters are
  // lock-free, bumped outside the fate stripes like the fate counters.
  std::vector<Counter*> tenant_completed_;
  std::vector<Counter*> tenant_dropped_;
  // Control-sync health: wall-clock Sync() duration (us) and what the
  // incremental estimator refresh did each epoch. Bumped by the control
  // thread only.
  AtomicHistogram* sync_duration_hist_ = nullptr;
  Counter* refresh_refreshed_counter_ = nullptr;
  Counter* refresh_skipped_counter_ = nullptr;
  // Weighted ingress governor (null when options_.tenants is empty). The
  // control thread resyncs it at each snapshot publish; Inject reads it
  // lock-free.
  std::unique_ptr<TenantGovernor> governor_;
};

}  // namespace pard

#endif  // PARD_SERVE_SERVE_RUNTIME_H_
