// Chaos-injection schedule shared by both substrates (DES simulator and the
// wall-clock serve runtime). Extends the PR 5 `FleetEvent` kill/add grammar
// with failure modes that real fleets exhibit but clean kills don't model:
// workers that hang without dying, transient slowdowns from co-located
// interference, and a control plane whose published snapshots go stale.
//
// Grammar (comma-separated events):
//
//   <at_s>:<module>:hang:<count>[:<dur_s>]   hang `count` workers at t=at_s.
//                                            A hung worker stops mid-batch
//                                            without dying: it holds its
//                                            in-flight batch and makes no
//                                            progress. With `dur_s` the
//                                            hang clears by itself; without
//                                            it the worker hangs until the
//                                            watchdog force-fails it (with
//                                            a hang budget) or the run's
//                                            end sweep.
//   <at_s>:<module>:slow:<factor>:<dur_s>    scale the module's exec times by
//                                            `factor` (>1 = slower) for
//                                            `dur_s` seconds, modeling
//                                            interference from co-located
//                                            load.
//   <at_s>:stall-sync:<dur_s>                pause the control-plane sync for
//                                            `dur_s` seconds: no snapshot is
//                                            handed to the modules, so their
//                                            decisions see an increasingly
//                                            stale view.
//   prob:<module>:hang:<rate_per_s>:<until_s>
//                                            probabilistic variant: expand to
//                                            concrete hang events via a
//                                            Poisson process with the given
//                                            rate over [0, until_s), driven
//                                            by a deterministic fork of the
//                                            run seed so chaos runs replay
//                                            bit-identically.
//
// Parsing is strict: malformed events throw CheckError with a message naming
// the event index, the offending token, and its field position.
#ifndef PARD_RESILIENCE_CHAOS_H_
#define PARD_RESILIENCE_CHAOS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/time_types.h"

namespace pard {

enum class ChaosKind : std::uint8_t {
  kHang = 0,       // worker stops mid-exec without dying
  kSlow = 1,       // transient speed-grade degradation
  kStallSync = 2,  // control-plane sync pauses; snapshots go stale
};

struct ChaosEvent {
  SimTime at = 0;
  int module_id = -1;  // -1 = control-plane scope (kStallSync)
  ChaosKind kind = ChaosKind::kHang;
  int count = 1;          // kHang: workers to hang
  double factor = 1.0;    // kSlow: exec-time multiplier (> 1 = slower)
  Duration duration = 0;  // kSlow/kStallSync window; kHang: 0 = indefinite

  // Probabilistic template (kHang only): when rate_per_s > 0 the event is a
  // Poisson process over [at, window_end) expanded by ExpandChaosSchedule.
  double rate_per_s = 0.0;
  SimTime window_end = 0;
};

struct ChaosSchedule {
  std::vector<ChaosEvent> events;

  bool empty() const { return events.empty(); }
};

// Parses the comma-separated grammar above. Throws CheckError naming the
// event index (1-based), the bad token, and its field position on malformed
// input. The returned schedule may still contain probabilistic templates;
// run it through ExpandChaosSchedule before scheduling.
ChaosSchedule ParseChaosSchedule(std::string_view text);

// Expands probabilistic templates into concrete events using exponential
// interarrivals from Rng(seed).Fork("chaos:<module>") and returns all events
// stably sorted by `at`. Deterministic: both substrates expand the same
// (schedule, seed) to the same concrete event list, so chaos runs replay
// bit-identically.
std::vector<ChaosEvent> ExpandChaosSchedule(const ChaosSchedule& schedule,
                                            std::uint64_t seed);

}  // namespace pard

#endif  // PARD_RESILIENCE_CHAOS_H_
