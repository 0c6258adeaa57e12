// Backend fleet: the shared worker-roster abstraction of both substrates.
//
// Both substrates run the same ModuleRuntime/Worker; the fleet holds what
// the rest of the runtime needs to know about their workers:
//
//   * profile assignment — worker slots draw BackendProfiles from the
//     pipeline's catalog round-robin (an empty catalog is the homogeneous
//     baseline), with the per-(module, profile) execution scale and
//     cold-start delay precomputed into the slot;
//   * roster state — cold-starting / active / draining / retired / failed
//     per worker, with a timestamped transition log for post-run analysis;
//   * capacity accounting — ActiveUnits() is the fleet's effective service
//     rate in baseline-worker units (Σ speed over active workers), which is
//     what the estimator and the scaling engine reason about instead of
//     `worker count × uniform profile`.
//
// Workers report every state change here, so capacity queries, scaling
// decisions and the transition log read the same in both substrates.
//
// Concurrency: internally synchronized (one mutex) — the serving runtime
// calls in from every module's lock holder and the control thread
// concurrently; the simulator's single-threaded calls pay an uncontended
// lock on non-hot paths only (provision/transition/sync, never per-request
// dispatch).
#ifndef PARD_RUNTIME_BACKEND_FLEET_H_
#define PARD_RUNTIME_BACKEND_FLEET_H_

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "common/time_types.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/runtime_options.h"
#include "runtime/state_board.h"

namespace pard {

enum class BackendState {
  kColdStarting,  // Provisioned, still loading the model.
  kActive,
  kDraining,  // Excluded from new work; retires when its backlog is done.
  kRetired,   // Gone (drained out or reaped).
  kFailed,    // Killed by fault injection; never dispatched again.
};

const char* BackendStateName(BackendState s);

// Immutable description of one provisioned worker slot.
struct BackendSlot {
  int module_id = 0;
  int worker_id = 0;       // Dense per-module id, in provisioning order.
  int profile_index = 0;   // Into the catalog (0 for the baseline fleet).
  double exec_scale = 1.0; // Multiplier on profiled batch durations.
  double speed = 1.0;      // 1 / exec_scale: capacity in baseline units.
  Duration cold_start = 0; // Effective model-load delay for this slot.
};

struct FleetTransition {
  SimTime at = 0;
  int module_id = 0;
  int worker_id = 0;
  BackendState to = BackendState::kColdStarting;
};

// Worker-count history sample recorded at each scaling epoch: (time, active
// workers per module). Shared by both substrates' scaling engines.
struct FleetSample {
  SimTime t = 0;
  std::vector<int> workers;
};

class BackendFleet {
 public:
  // Builds the catalog from spec.backends() (a single baseline profile when
  // empty); `default_cold_start` fills profiles without an override. With
  // `cost_aware` set, Provision() picks the catalog grade maximizing
  // speed / cost_per_s for the module instead of round-robin — the
  // $/goodput objective of RuntimeOptions::cost_aware_provisioning.
  BackendFleet(const PipelineSpec& spec, Duration default_cold_start, bool cost_aware = false);

  BackendFleet(const BackendFleet&) = delete;
  BackendFleet& operator=(const BackendFleet&) = delete;

  // Registers the next worker slot for a module (state kColdStarting) and
  // returns its immutable description.
  BackendSlot Provision(int module_id, SimTime now);

  void SetState(int module_id, int worker_id, BackendState to, SimTime now);
  BackendState State(int module_id, int worker_id) const;
  BackendSlot Slot(int module_id, int worker_id) const;

  int ActiveCount(int module_id) const;
  int ProvisionedCount(int module_id) const;  // Active + cold-starting.
  int TotalProvisioned() const;               // Across all modules.

  // Effective capacity of the module's live fleet, in baseline-worker
  // units: Σ slot.speed over kActive workers. Equals the active count for a
  // homogeneous grade-1.0 fleet (exactly — sums of 1.0 are exact doubles).
  double ActiveUnits(int module_id) const;
  double ProvisionedUnits(int module_id) const;
  // ActiveUnits / ActiveCount; 1.0 when no worker is active (the estimator
  // then falls back to the baseline profile, matching the num_workers >= 1
  // floor both substrates always applied).
  double MeanActiveSpeed(int module_id) const;

  // Worker ids currently in `state`, ascending (provisioning order).
  std::vector<int> WorkersInState(int module_id, BackendState state) const;

  // Publishes the fleet's capacity view into a ModuleState under ONE lock
  // acquisition (count and units from the same roster snapshot): sets
  // num_workers (max(1, active) — the historical floor), effective_units
  // (active units, falling back to num_workers when nothing is active) and
  // mean_speed; returns the effective capacity (per_worker_throughput *
  // effective_units) for the caller's load_factor.
  // Both substrates' state publishers go through here so the estimator can
  // assume definitionally identical fields.
  double PublishCapacity(int module_id, double per_worker_throughput, ModuleState& state) const;

  int CatalogSize() const { return static_cast<int>(catalog_.size()); }

  // Total fleet spend up to `now`, in $ (profile cost_per_s integrated over
  // each slot's provisioned lifetime — provision to retire/fail, still
  // accruing for live slots). With the default 1.0 $/s catalog this is
  // exactly provisioned worker-seconds, so goodput-per-dollar degenerates
  // to goodput-per-worker-second.
  double AccumulatedCost(SimTime now) const;

  // Timestamped roster changes since construction (copy; thread-safe).
  std::vector<FleetTransition> transitions() const;

 private:
  struct Entry {
    BackendSlot slot;
    BackendState state = BackendState::kColdStarting;
    SimTime provisioned_at = 0;  // Cost accrues from here...
    SimTime ended_at = -1;       // ...to here (terminal transition; -1 = live).
  };

  Entry& Find(int module_id, int worker_id);
  const Entry& Find(int module_id, int worker_id) const;

  std::vector<BackendProfile> catalog_;
  bool cost_aware_ = false;
  // exec_scales_[module][profile]: catalog profile's duration multiplier at
  // that module's model, precomputed so slots are plain numbers.
  std::vector<std::vector<double>> exec_scales_;
  std::vector<Duration> cold_starts_;  // Per profile, default applied.

  mutable std::mutex mu_;
  std::vector<std::vector<Entry>> rosters_;  // Per module, dense worker ids.
  std::vector<FleetTransition> transitions_;
};

// A profiled batch duration scaled to one slot's backend — THE definition
// both substrates execute with (sim Worker batches and serve thread
// sleeps). Identity for the baseline scale, so homogeneous runs keep the
// untouched profile-table value.
inline Duration ScaleBatchDuration(Duration d, double exec_scale) {
  if (exec_scale == 1.0) {
    return d;
  }
  return std::max<Duration>(1, static_cast<Duration>(static_cast<double>(d) * exec_scale));
}

// Parses the --fault-schedule format: comma-separated events
// "<at_s>:<module>:<kill|add>:<count>", e.g. "60:1:kill:2,80:1:add:2"
// kills 2 of module 1's workers at t=60 s and provisions 2 replacements
// (cold-starting) at t=80 s. Throws CheckError on malformed entries.
std::vector<FleetEvent> ParseFaultSchedule(const std::string& text);

}  // namespace pard

#endif  // PARD_RUNTIME_BACKEND_FLEET_H_
