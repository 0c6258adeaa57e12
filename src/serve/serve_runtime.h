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
// simulator's ControlPlane, against the snapshot each module holds.
// Admission and the Request Broker's drop decision run inside the module,
// as in the simulator: admission at arrival, the drop decision when a
// request enters the forming batch, against the running batch's end t_e.
// With serve.broker_threads > 1 the source module's deliveries run on a
// pool of broker threads fed from a shared ingress backlog; admission runs
// under the source module's mutex, so the brokers serialize there.
//
// Control: the simulator's own ControlLoop (runtime/control_loop.h) runs on
// a control thread, a timer thread like a module's (ServeTimer, serve_clock.h):
// it exchanges state with every module once per virtual second like the
// paper's gRPC state exchange (each module's ModuleState in, the new
// ControlSnapshot out), runs the scaling engine every scaling_epoch
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
// (runtime/request_lifecycle.h), called the same way.
//
// Concurrency contract (common/lock_order.h). There is no global runtime
// mutex. Mutable state is partitioned by owner:
//   - A request's fate is a claim (Request::ClaimFate, one compare-and-swap)
//     that any thread may take, with or without its module lock; the winner
//     alone writes the terminal fields and does the accounting. A DAG
//     merge's arrival count belongs to the merge module's mutex.
//   - The lifecycle's injection state (request log, id counter and
//     dynamic-path RNG) belongs to the thread running RunTrace alone; its
//     final conservation sweep reads it only after every thread has joined.
//   - The ingress backlog (broker pool) has its own leaf mutex, never held
//     across a delivery.
//   - Each module's state sits behind its module mutex (serve_module.h),
//     the control snapshot it decides against included: the control
//     thread stores each sync's under that mutex. Modules share only the
//     snapshot's immutable view, and the control plane's stale-fallback
//     count is atomic (runtime/control_plane.h).
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
  RequestLifecycle& lifecycle() { return lifecycle_; }

  // Resilience counters (valid while running and after RunTrace returns).
  std::uint64_t retries() const { return lifecycle_.retries(); }
  // Hung workers the watchdog force-failed (each one also provisions a
  // replacement, thread budget permitting).
  std::uint64_t watchdog_recoveries() const { return loop_.watchdog_recoveries(); }

 private:
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
  void Deliver(const RequestPtr& req, int module_id);
  // The control thread fires the loop's jobs on control_timer_, the only
  // thread to touch it once the run starts. Every periodic job keeps an
  // event pending, so a stop is seen within one sync period.
  void ControlThread();
  // The loop's jobs run on the control timer and enter modules under their
  // locks, within the serve.max_total_threads worker budget.
  ControlLoop::Substrate ControlSubstrate();

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
