// Per-module controller: dispatching, state collection and publication.
//
// Plays the paper's controller role for one module — the State Planner's
// monitoring half lives here (queue-delay window, rate tracking, batch-wait
// reservoir, load factor, burstiness) and is published to the StateBoard on
// every sync tick; the estimation half (w_k, L_sub) lives in src/core and
// reads the board.
//
// One implementation serves both substrates. It reads time and schedules
// through a ModuleTimer (sim/timer.h), asks the run's ControlPlane
// (runtime/control_plane.h) for every Request Broker decision, against the
// control snapshot this module holds, and reaches everything else outside
// the module through a ModuleHost (runtime/module_host.h): the simulator
// passes its kernel and PipelineRuntime; serve passes a ServeModule, which
// owns this object, its timer thread and the mutex that serializes both.
// Nothing here is synchronized: every call, and every event it scheduled,
// runs under that owner's serialization, the control loop's hand-off of
// each sync's snapshot (SetControlSnapshot) included. That serialization
// also owns this module's hop of every request, its merge count included;
// a request's fate is a claim that any thread may take
// (RequestLifecycle::Drop/Complete). The control plane counts stale
// fallbacks atomically; nothing else it does on the decision path writes
// shared state.
#ifndef PARD_RUNTIME_MODULE_RUNTIME_H_
#define PARD_RUNTIME_MODULE_RUNTIME_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "models/model_profile.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/backend_fleet.h"
#include "runtime/control_plane.h"
#include "runtime/module_host.h"
#include "runtime/rate_monitor.h"
#include "runtime/request.h"
#include "runtime/runtime_options.h"
#include "runtime/state_board.h"
#include "runtime/worker.h"
#include "sim/timer.h"
#include "stats/reservoir.h"
#include "stats/sliding_window.h"

namespace pard {

class Counter;          // obs/metrics.h
class AtomicHistogram;  // obs/metrics.h

class ModuleRuntime {
 public:
  // Provisions `initial_workers` warm workers at timer->Now() and takes the
  // control plane's current snapshot.
  ModuleRuntime(ModuleTimer* timer, ModuleHost* host, ControlPlane* control,
                BackendFleet* fleet, const ModuleSpec& spec, const ModelProfile& profile,
                int batch_size, int initial_workers, const RuntimeOptions& options);

  // Delivery from the dispatcher (or pipeline ingress). At a DAG merge
  // only the delivery that completes the merge enters the module.
  void Receive(RequestPtr req);

  // Computes this module's ModuleState at the timer's now for the sync
  // tick to publish, copying the wait samples into `wait_buffer` (a
  // previous state's wait_samples, recycled so a warm sync allocates
  // nothing) in the reservoir's ring-slot order.
  ModuleState Sync(std::vector<double> wait_buffer);

  // Scaling: adjusts the active+warming pool toward `target_units` of
  // capacity in baseline-worker units (Σ backend speed), provisioning at
  // most `max_new_workers` workers. For a homogeneous grade-1.0 fleet this
  // is exactly the historical integer worker target.
  void SetTargetUnits(double target_units, int max_new_workers);
  // Integer form, with no cap on new workers.
  void SetTargetWorkers(int target);

  // Failure injection: kills up to `count` active workers. Their queued and
  // in-flight requests go through the deadline-aware retry path (RetryOrDrop)
  // instead of being silently lost.
  void FailWorkers(int count);

  // Recovery / explicit scale-up: provisions up to `count` new workers
  // (bounded by the per-module cap) that join the fleet after their backend
  // profile's cold start. Returns how many it provisioned.
  int AddWorkers(int count);

  // Chaos injection: hangs up to `count` dispatchable workers from `at` for
  // `duration` (0 = indefinitely; see Worker::Hang). Finite hangs
  // self-clear via an Unhang scheduled at `at` + `duration`.
  void HangWorkers(int count, SimTime at, Duration duration);
  // Chaos injection: scales every sampled exec duration by `factor` until
  // virtual time `until`. Later calls override earlier ones.
  void SetSlowdown(double factor, SimTime until);
  // Watchdog: fails every worker that has been hung for longer than
  // `budget` at `now` (Worker::Fail). Returns how many it failed. The
  // control loop (runtime/control_loop.h) sweeps it in both substrates,
  // passing each sweep's scheduled instant, so a late serve wake-up judges
  // a hang as the simulator does.
  int FailHungWorkers(Duration budget, SimTime now);

  // Deadline-aware retry for a failed worker's request: when the shared
  // RequestLifecycle::RetryVerdict allows it, re-enqueue directly on a
  // surviving worker (kWorkerFailure when none is left), else drop with the
  // verdict's reason. The retry skips re-admission and clears the lost
  // attempt's batch-entry and execution stamps at this module.
  void RetryOrDrop(RequestPtr req);

  int module_id() const { return spec_.id; }
  int batch_size() const { return batch_size_; }
  const ModelProfile& profile() const { return profile_; }
  ControlPlane* control() const { return control_; }
  const RuntimeOptions& options() const { return options_; }

  // The control snapshot this module decides against: the control plane's
  // at construction, then each sync's, stored by the control loop's
  // hand-off. A skipped (stalled) sync hands nothing over, so the snapshot
  // ages toward the staleness budget.
  const ControlSnapshot& control_snapshot() const { return control_snapshot_; }
  void SetControlSnapshot(const ControlSnapshot& snapshot) { control_snapshot_ = snapshot; }

  int ActiveWorkers() const;
  int ProvisionedWorkers() const;  // Active + cold-starting.
  double ProvisionedUnits() const;
  // Baseline-grade throughput; heterogeneous capacity is this times the
  // fleet's effective units.
  double PerWorkerThroughput() const { return profile_.Throughput(batch_size_); }
  // Window-smoothed offered rate at the timer's now, for the scaling engine.
  double SmoothedInputRate();

  // True execution duration for a batch on a backend with the given
  // duration multiplier: the profiled d(batch), scaled, with the configured
  // multiplicative jitter applied (exec_scale == 1.0 leaves the profiled
  // value untouched).
  Duration SampleExecDuration(int batch, double exec_scale);

  // --- Hooks invoked by workers -------------------------------------------
  void RecordQueueDelay(SimTime now, Duration q_delay);
  void RecordBatchWait(Duration wait);
  void RecordStageLatency(SimTime now, Duration stage_latency);
  void OnExecuted(RequestPtr req);          // Forward downstream.
  // Drop at this module with attribution (policy sites pass
  // kProactiveAdmission / kBrokerCandidate / kPurgeExpired; infrastructure
  // sites kFaultKilled); a no-op if the request already has a fate.
  void OnPolicyDrop(Request& req, DropReason reason);
  // Per-module executed tally + batch-size histogram (null when metrics
  // are disabled).
  Counter* executed_counter() const { return executed_counter_; }
  AtomicHistogram* batch_size_hist() const { return batch_size_hist_; }

 private:
  friend class Worker;

  Worker* ChooseWorker();
  void ReapRetired();
  // Provisions one cold worker from the fleet and schedules its activation
  // after the slot's cold start; returns the slot's capacity units.
  double ProvisionColdWorker();

  ModuleTimer* timer_;
  ModuleHost* host_;
  ControlPlane* control_;
  ControlSnapshot control_snapshot_;
  BackendFleet* fleet_;
  ModuleSpec spec_;
  const ModelProfile& profile_;
  int batch_size_;
  RuntimeOptions options_;
  Rng jitter_rng_;
  Rng admission_rng_;  // Randomized admission draws, under this module's serialization.

  // shared_ptr so deferred cold-start events can hold weak references and
  // safely no-op if the worker was drained and reaped in the meantime.
  // Worker ids are assigned by the fleet (dense, provisioning order).
  std::vector<std::shared_ptr<Worker>> workers_;
  std::size_t rr_cursor_ = 0;

  // State-planner monitoring.
  SlidingWindow queue_delay_window_;
  SlidingWindow stage_latency_window_;
  RecentReservoir wait_reservoir_;
  // Per-second arrival bins for input rate / burstiness (covers the stats
  // window).
  RateMonitor rate_monitor_;

  // Chaos slowdown window (SetSlowdown); inert at the defaults, so no-chaos
  // runs stay bit-identical.
  double slow_factor_ = 1.0;
  SimTime slow_until_ = 0;

  // Pre-resolved instruments (null when options_.metrics is null).
  Counter* admitted_counter_ = nullptr;
  Counter* executed_counter_ = nullptr;
  AtomicHistogram* batch_size_hist_ = nullptr;
};

}  // namespace pard

#endif  // PARD_RUNTIME_MODULE_RUNTIME_H_
