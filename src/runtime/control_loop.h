// The control loop: PARD's State Planner (§4.2, §5.4), written and scheduled
// once for both substrates. It owns the StateBoard, the ControlPlane every
// Request Broker decision reads, the sync buffers, the worker history and
// the watchdog tally, and schedules each control job on a ModuleTimer, in
// this order (events due at one instant run in scheduling order):
//   - the state sync, every sync_period: module states → SortSamples →
//     tenant governor resync → ControlPlane::Sync → trace and metrics,
//     skipped inside a chaos stall-sync window;
//   - the metrics sample (MetricsRegistry::Sample), every metrics_interval
//     when options.metrics is set and the interval is positive; where it
//     falls on a sync instant it samples right after that sync;
//   - the scaling tick, every scaling_epoch (options.enable_scaling);
//   - the fault and chaos schedules, each event once at its instant;
//   - the hang watchdog, every max(hang_budget / 4, 10 ms) when
//     options.resilience.hang_budget > 0: it fails each worker hung for
//     longer than the budget (the path a scheduled kill takes) and
//     provisions a replacement, which serves after its cold start.
// Each periodic job reschedules itself at t + period after its own work.
//
// The simulator hands the loop its event kernel, so the jobs are events
// like any other and runs stay bit-deterministic; serve hands it a
// ServeTimer (serve/serve_clock.h) that its control thread fires. Nothing
// here is synchronized: every job runs on the timer's thread, the
// ControlPlane's one syncing thread.
#ifndef PARD_RUNTIME_CONTROL_LOOP_H_
#define PARD_RUNTIME_CONTROL_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "pipeline/pipeline_spec.h"
#include "resilience/chaos.h"
#include "runtime/backend_fleet.h"
#include "runtime/control_plane.h"
#include "runtime/drop_policy.h"
#include "runtime/module_runtime.h"
#include "runtime/request_lifecycle.h"
#include "runtime/runtime_options.h"
#include "runtime/state_board.h"
#include "sim/timer.h"

namespace pard {

class Counter;          // obs/metrics.h
class AtomicHistogram;  // obs/metrics.h

class ControlLoop {
 public:
  using ModuleFn = std::function<void(ModuleRuntime&)>;

  // What a runtime hands the loop.
  struct Substrate {
    // Runs and times every job: the simulator's kernel, or serve's control
    // timer.
    ModuleTimer* timer = nullptr;
    // Runs fn on module `id`'s ModuleRuntime under whatever serializes that
    // module: nothing on the simulator's event loop, the module lock in
    // serve.
    std::function<void(int id, const ModuleFn& fn)> with_module;
    // The control plane's settings (ControlPlane::RunOptions, plus serve's
    // refresh pool).
    ControlPlane::Options control;
    // Fleet-wide cap on provisioned workers: scale-ups, fault recoveries
    // and watchdog replacements spend only what is left under it. Serve
    // passes its max_total_threads; the simulator is uncapped.
    int max_total_workers = std::numeric_limits<int>::max();
    // Serve: time each sync on the wall clock (control.sync_duration_us,
    // control.sync_lag_us, the kControlRefresh span). The simulator leaves
    // them out, so its exports stay a function of the seed.
    bool wall_clock = false;
  };

  // Validates the fault and chaos schedules (an unknown module id throws
  // CheckError naming it), builds the board and the control plane (see
  // ControlPlane's constructor) and schedules the jobs. `spec`, `policy`,
  // `lifecycle`, `fleet` and the timer must outlive the loop; modules are
  // entered only when a job runs, so the runtime may build them after it.
  ControlLoop(const PipelineSpec& spec, const RuntimeOptions& options, DropPolicy* policy,
              RequestLifecycle* lifecycle, BackendFleet* fleet, Substrate substrate);
  // Pending jobs point at the loop.
  ControlLoop(const ControlLoop&) = delete;
  ControlLoop& operator=(const ControlLoop&) = delete;

  // Periodic jobs run at t <= until reschedule, later ones do not, so the
  // simulator's queue empties once the run has drained. Serve never calls
  // it: its control thread stops at shutdown.
  void StopAfter(SimTime until) { until_ = until; }

  const StateBoard& board() const { return board_; }
  ControlPlane& control() { return control_; }
  const ControlPlane& control() const { return control_; }
  // Active workers per module at each scaling tick (empty when scaling is
  // off). Read it after the run.
  const std::vector<FleetSample>& worker_history() const { return worker_history_; }
  // Hung workers the watchdog failed (each also provisions a replacement,
  // worker cap permitting).
  std::uint64_t watchdog_recoveries() const {
    return watchdog_kills_.load(std::memory_order_relaxed);
  }

 private:
  using Job = void (ControlLoop::*)(SimTime t);

  // Runs (this->*job)(t) at `t`, then reschedules it at t + period while
  // t <= until_.
  void Every(SimTime t, Duration period, Job job);
  void SyncTick(SimTime t);
  void SampleTick(SimTime t);
  void ScalingTick(SimTime t);
  void WatchdogTick(SimTime t);
  void ApplyFault(const FleetEvent& event);
  void ApplyChaos(const ChaosEvent& event);
  // New workers the fleet-wide cap still allows.
  int WorkerBudget() const;
  int NumModules() const { return static_cast<int>(sync_states_.size()); }

  RuntimeOptions options_;
  RequestLifecycle* lifecycle_;
  BackendFleet* fleet_;
  Substrate substrate_;
  StateBoard board_;
  ControlPlane control_;
  // options.fleet_events, sorted by time, and options.resilience.chaos
  // expanded from the run seed (probabilistic entries made concrete, so
  // both substrates apply one timeline), sorted. Fixed after construction:
  // the scheduled events point into them.
  std::vector<FleetEvent> fault_schedule_;
  std::vector<ChaosEvent> chaos_schedule_;
  // One state per module, carried between syncs so each sync refills the
  // buffers the board handed back, and the wait-sample sort's working space.
  std::vector<ModuleState> sync_states_;
  std::vector<double> sort_scratch_;
  std::vector<FleetSample> worker_history_;
  SimTime until_ = kSimTimeMax;
  // Chaos stall-sync window: syncs due before it ends are skipped, so the
  // published snapshot ages as a wedged sync thread would leave it.
  SimTime stall_until_ = 0;
  std::atomic<std::uint64_t> watchdog_kills_{0};

  // Pre-resolved instruments (null when options.metrics is null; the sync
  // histogram only with wall_clock, the watchdog counter only with a
  // watchdog).
  Counter* refreshed_counter_ = nullptr;
  Counter* skipped_counter_ = nullptr;
  AtomicHistogram* sync_duration_hist_ = nullptr;
  Counter* watchdog_counter_ = nullptr;
};

}  // namespace pard

#endif  // PARD_RUNTIME_CONTROL_LOOP_H_
