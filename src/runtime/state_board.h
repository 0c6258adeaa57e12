// Shared runtime-state board.
//
// Each module's controller (State Planner role) publishes a compact state
// snapshot once per sync period (default 1 s, matching the paper's state
// synchronization); policies read the latest snapshots of *other* modules to
// estimate downstream latency. Snapshots are therefore up to one period
// stale, exactly like the gRPC state exchange in the real system.
//
// Concurrency contract: not internally synchronized. Publish() replaces a
// snapshot and bumps the version counter that estimator epoch caches key
// on, so readers racing a publish could observe a torn (state, version)
// pair. Only the ControlPlane (runtime/control_plane.h) publishes, from its
// single syncing thread, and only the policy reads the board, inside the
// same Sync(); decisions read the immutable policy view the sync then hands
// each module (ControlSnapshot), never the board. They can be up to one
// sync period stale, exactly like the gRPC state exchange in the real
// system.
#ifndef PARD_RUNTIME_STATE_BOARD_H_
#define PARD_RUNTIME_STATE_BOARD_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/time_types.h"

namespace pard {

struct ModuleState {
  int module_id = -1;
  SimTime updated_at = 0;

  // Recent average queueing delay q_i (5 s linear-weighted window), in us.
  double avg_queue_delay = 0.0;
  // Worst observed stage latency Q+W+D in the window (PARD-WCL ablation).
  double worst_stage_latency = 0.0;

  // Current batching plan.
  int batch_size = 1;
  Duration batch_duration = 1;  // d_i at batch_size, us.

  // Capacity and load. Heterogeneous fleets report their effective
  // capacity via `effective_units` (Σ speed over active workers, in
  // baseline-worker units) and `mean_speed` (effective_units / active
  // count). Both are exactly num_workers and 1.0 for a homogeneous
  // grade-1.0 fleet, so every downstream formula degenerates to the
  // historical arithmetic.
  int num_workers = 1;
  double effective_units = 1.0;  // Fleet capacity, baseline units.
  double mean_speed = 1.0;       // Mean active-worker speed grade.
  double load_factor = 0.0;      // mu = T_in / (T_m * units).
  double burstiness = 0.0;       // eps = sum|T_in - T_s| / sum T_in.

  // The module's recent per-request batch waits (us), in the reservoir's
  // ring-slot order: estimators draw uniform indices, so order is
  // irrelevant. Empty until the module has observed traffic; estimators
  // fall back to the uniform [0, d] model in that case.
  std::vector<double> wait_samples;
};

// Expected execution duration of a batch on the module's current fleet mix:
// the profiled d(b) stretched by the mean active speed (a fleet averaging
// half the baseline speed executes batches twice as slowly). The exact-1.0
// guard keeps homogeneous fleets on the untouched table value, preserving
// bit-identity with the pre-heterogeneity kernel.
inline Duration EffectiveBatchDuration(const ModuleState& state) {
  if (state.mean_speed == 1.0 || state.mean_speed <= 0.0) {
    return state.batch_duration;
  }
  return static_cast<Duration>(
      std::llround(static_cast<double>(state.batch_duration) / state.mean_speed));
}

// True when `next` differs from `prev` in any field the latency estimator
// actually reads: the queue-delay term, the effective batch duration
// (batch_duration stretched by mean_speed) and the wait reservoir. Both
// reservoirs are ring-slot copies: one still filling changes size, which
// the compare sees at once, and a full one is compared slot by slot up to
// the first slot overwritten since the previous sync. Only an idle module
// pays the full O(M) compare — exactly the one whose unchanged verdict
// lets the estimator skip an O(mc_samples) redraw.
inline bool EstimatorInputsChanged(const ModuleState& prev, const ModuleState& next) {
  return prev.avg_queue_delay != next.avg_queue_delay ||
         prev.batch_duration != next.batch_duration ||
         prev.mean_speed != next.mean_speed ||
         prev.wait_samples != next.wait_samples;
}

class StateBoard {
 public:
  explicit StateBoard(int num_modules)
      : states_(static_cast<std::size_t>(num_modules)),
        module_versions_(static_cast<std::size_t>(num_modules), 0) {
    for (int i = 0; i < num_modules; ++i) {
      states_[static_cast<std::size_t>(i)].module_id = i;
    }
  }

  int NumModules() const { return static_cast<int>(states_.size()); }

  const ModuleState& Get(int module_id) const {
    PARD_CHECK(module_id >= 0 && module_id < NumModules());
    return states_[static_cast<std::size_t>(module_id)];
  }

  // Returns the state it replaced, so a caller can refill its buffers at the
  // next sync instead of allocating fresh ones.
  ModuleState Publish(ModuleState state) {
    PARD_CHECK(state.module_id >= 0 && state.module_id < NumModules());
    const std::size_t i = static_cast<std::size_t>(state.module_id);
    ++version_;
    if (EstimatorInputsChanged(states_[i], state)) {
      module_versions_[i] = version_;
    }
    std::swap(states_[i], state);
    return state;
  }

  // Monotone counter bumped on every publish; estimator caches key on it.
  std::uint64_t Version() const { return version_; }

  // Per-module dirty epoch: the global version at which this module's
  // estimator-relevant inputs last changed (see EstimatorInputsChanged).
  // A republish of identical inputs bumps Version() but not this, so
  // incremental refreshes (LatencyEstimator::RefreshAll) can tell "a sync
  // happened" apart from "this module actually moved".
  std::uint64_t ModuleVersion(int module_id) const {
    PARD_CHECK(module_id >= 0 && module_id < NumModules());
    return module_versions_[static_cast<std::size_t>(module_id)];
  }

 private:
  std::vector<ModuleState> states_;
  std::vector<std::uint64_t> module_versions_;
  std::uint64_t version_ = 0;
};

}  // namespace pard

#endif  // PARD_RUNTIME_STATE_BOARD_H_
