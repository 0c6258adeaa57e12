// Wall-clock serving runtime: the simulator's serving semantics on real
// threads.
//
// Where PipelineRuntime multiplexes every module, worker and control tick
// through one discrete-event loop, ServeRuntime is a live prototype of the
// paper's system: the thread that calls RunTrace replays the open-loop
// arrival stream in (scaled) real time (serve/load_generator.h), each
// module is the simulator's own ModuleRuntime and Workers driven by a
// per-module timer thread (serve/serve_module.h), and the PARD broker /
// estimator / baselines decide against wall-clock deadlines through the
// simulator's ControlPlane and its published snapshot.
// Admission and the Request Broker's drop decision run inside the module,
// as in the simulator: admission at arrival, the drop decision when a
// request enters the forming batch, against the running batch's end t_e.
// With serve.broker_threads > 1 the source module's deliveries run on a
// pool of broker threads fed from a shared ingress backlog; admission runs
// under the source module's mutex, so the brokers serialize there.
//
// Control: the simulator's own ControlLoop (runtime/control_loop.h) runs on
// a control thread, a timer thread like a module's (ServeTimer, serve_clock.h):
// it publishes ModuleState snapshots once per virtual second like the
// paper's gRPC state exchange, runs the scaling engine every scaling_epoch
// (options.enable_scaling), applies the fault and chaos schedules, runs
// the hang watchdog and samples the metrics registry every
// options.metrics_interval. It enters each module under the module lock, and
// scale-ups, recoveries and watchdog replacements spend only what is left
// of serve.max_total_threads workers fleet-wide. Worker rosters live in a
// BackendFleet shared with the simulator's abstraction — slots draw
// (possibly heterogeneous) backend profiles from the pipeline's catalog.
//
// The request lifecycle — stamping, DAG merge readiness and routing, fates
// and their accounting, the retry verdict — is the simulator's own
// (runtime/request_lifecycle.h); this runtime supplies the fate
// synchronisation around it.
//
// Concurrency contract (ranks per common/lock_order.h). There is no global
// runtime mutex. Mutable state is partitioned by owner:
//   - Request fate/finish transitions, DAG merge counters: 16 fate stripes
//     (kFate, keyed by request id) — the highest rank, so any thread may
//     resolve a fate while holding a module lock, never the reverse. The
//     lifecycle's accounting (counters, trace) runs after the stripe is
//     released.
//   - The lifecycle's injection state (request log, id counter and
//     dynamic-path RNG) belongs to the thread running RunTrace alone; its
//     final conservation sweep reads it only after every thread has joined.
//   - The ingress backlog (broker pool) has its own leaf mutex, never held
//     across a delivery.
//   - Each module's state sits behind its module mutex (serve_module.h); the
//     control plane's snapshot publication synchronizes itself
//     (runtime/control_plane.h).
//   - The control loop and its timer belong to the control thread; the
//     worker history is read only after it has joined.
//
// Scope vs the simulator: inter-module network delay is folded into real
// forwarding cost, and runs are NOT bit-deterministic — thread scheduling
// and wake-up latency vary run to run; determinism lives in the arrival
// stream and the fault schedule only. Requests still in flight at the drain
// deadline are accounted kLate / kDrainAbandoned so conservation holds.
#ifndef PARD_SERVE_SERVE_RUNTIME_H_
#define PARD_SERVE_SERVE_RUNTIME_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/thread_pool.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/backend_fleet.h"
#include "runtime/control_loop.h"
#include "runtime/control_plane.h"
#include "runtime/drop_policy.h"
#include "runtime/request.h"
#include "runtime/request_lifecycle.h"
#include "runtime/runtime_options.h"
#include "serve/serve_clock.h"
#include "serve/serve_module.h"
#include "serve/serve_options.h"

namespace pard {

class ServeRuntime {
 public:
  // `policy` must outlive the runtime and provide a PolicyView. Worker
  // provisioning mirrors PipelineRuntime (options.fixed_workers, else
  // PlanWorkers from `expected_rate`), additionally capped at
  // serve.max_total_threads workers across all modules (the cap also bounds
  // runtime scale-ups). Builds every module and its warm workers at virtual
  // time 0; no thread starts before RunTrace.
  ServeRuntime(const PipelineSpec& spec, const RuntimeOptions& options, DropPolicy* policy,
               double expected_rate, const ServeOptions& serve);

  // Serves the complete arrival stream (sorted virtual send timestamps) in
  // scaled wall time, injecting each arrival on the calling thread, and
  // blocks until every request is terminal or the drain deadline (last
  // arrival + SLO + options.drain) passes. Call at most once.
  void RunTrace(const std::vector<SimTime>& arrivals);

  // Terminal request records (valid after RunTrace returns); same shape the
  // metrics library analyzes for simulated runs.
  const std::vector<RequestPtr>& requests() const { return lifecycle_.requests(); }

  const PipelineSpec& spec() const { return spec_; }
  const ServeClock& clock() const { return clock_; }
  ControlPlane& control() { return loop_.control(); }
  const std::vector<int>& batch_sizes() const { return lifecycle_.batch_sizes(); }
  const std::vector<int>& worker_plan() const { return worker_plan_; }
  // Shared roster layer: backend profiles, per-worker states, transitions.
  const BackendFleet& fleet() const { return fleet_; }
  // Per-scaling-epoch active worker counts (empty when scaling is off).
  // Valid after RunTrace returns.
  const std::vector<FleetSample>& worker_history() const { return loop_.worker_history(); }

  // --- Internal transitions (called from the modules) ----------------------
  // Routes a request that finished `module_id` at `now`; called with no
  // module lock held.
  void OnModuleDone(const RequestPtr& req, int module_id, SimTime now);
  void Drop(const RequestPtr& req, int module_id, SimTime now, DropReason reason);
  // Thread-safe read of req.fate (fates flip on other threads' branches).
  bool IsTerminal(const Request& req) const;
  RequestLifecycle& lifecycle() { return lifecycle_; }

  // Observability (null when disabled). Trace emission goes through the
  // recorder's per-thread SPSC shards, so any worker/broker thread may emit
  // without synchronization; see obs/trace_recorder.h.
  TraceRecorder* trace() { return options_.trace; }

  // Resilience counters (valid while running and after RunTrace returns).
  std::uint64_t retries() const { return lifecycle_.retries(); }
  // Hung workers the watchdog force-failed (each one also provisions a
  // replacement, thread budget permitting).
  std::uint64_t watchdog_recoveries() const { return loop_.watchdog_recoveries(); }

 private:
  static constexpr std::size_t kFateStripes = 16;

  void Inject(SimTime scheduled);
  // Broker pool thread: pops ingress backlog entries and delivers them to
  // the source module. Only active with broker_threads > 1.
  void BrokerLoop();
  // Stops the broker pool first (its backlog is empty on a drained run and
  // discarded otherwise), then the control thread (so no fleet change races
  // the stop), then every module's timer thread. Events
  // still pending never fire: what they would have moved stays in flight for
  // RunTrace's conservation sweep. Idempotent; runs on the normal exit path
  // AND before rethrowing a mid-run exception, so no thread is left running
  // into a destroyed runtime.
  void Shutdown();
  // Merge bookkeeping, then delivery to the module.
  void Deliver(const RequestPtr& req, int module_id);
  // Runs one lifecycle fate transition (returning false when the request
  // already has a fate) under the request's fate stripe, then its lock-free
  // accounting outside the stripe.
  template <typename Transition>
  void ResolveFate(Request& req, Transition transition);
  // The control thread fires the loop's jobs on control_timer_, the only
  // thread to touch it once the run starts. Every periodic job keeps an
  // event pending, so a stop is seen within one sync period.
  void ControlThread();
  // The loop's jobs run on the control timer and enter modules under their
  // locks, within the serve.max_total_threads worker budget.
  ControlLoop::Substrate ControlSubstrate();
  // O(1): reads the in-flight counter, so the 2 ms drain poll never scans
  // the request log while workers race the deadline.
  bool AllTerminal() const { return in_flight_.load(std::memory_order_acquire) == 0; }
  std::mutex& FateMutex(const Request& req) const {
    return fate_mu_[static_cast<std::size_t>(req.id) % kFateStripes];
  }

  PipelineSpec spec_;
  RuntimeOptions options_;
  ServeOptions serve_;
  // Declared before every thread-owning member, so it outlives them all.
  RequestLifecycle lifecycle_;
  ServeClock clock_;
  ServeTimer control_timer_;
  std::vector<int> worker_plan_;
  BackendFleet fleet_;
  ControlLoop loop_;
  std::vector<std::unique_ptr<ServeModule>> modules_;

  // Striped fate locks (LockRank::kFate): request fate/finish transitions
  // and DAG merge counters for request r serialize on stripe r.id % 16.
  // Nothing else is ever acquired under a fate stripe.
  mutable std::array<std::mutex, kFateStripes> fate_mu_;
  // Injected-but-not-terminal count; bumped in Inject, dropped on the fate
  // transition in ResolveFate (under the request's fate stripe, but atomic
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
  bool ran_ = false;
};

}  // namespace pard

#endif  // PARD_SERVE_SERVE_RUNTIME_H_
