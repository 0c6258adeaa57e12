// Open-loop load generation for the serving runtime.
//
// An open-loop generator emits requests on its own schedule and never waits
// for the system — the arrival process the paper (and every serving study
// since) uses, because closed-loop clients mask overload by self-throttling.
//
// The schedule is a sorted vector of virtual send timestamps, drawn by the
// harness from the workload's rate curve (trace/arrival_generator.h) exactly
// as for the simulator. ReplayArrivals walks it against a ServeClock on the
// calling thread, sleeping until each arrival's wall time and invoking the
// inject callback. If the system falls behind, injection does NOT slow down
// (open loop); the callback runs late and the request's budget is simply
// that much more consumed.
#ifndef PARD_SERVE_LOAD_GENERATOR_H_
#define PARD_SERVE_LOAD_GENERATOR_H_

#include <vector>

#include "common/time_types.h"
#include "serve/serve_clock.h"

namespace pard {

// Replays `arrivals` (sorted virtual timestamps) in wall time against
// `clock`, calling `inject(t)` for each on the calling thread; returns once
// the last arrival is injected.
template <typename Inject>
void ReplayArrivals(const ServeClock& clock, const std::vector<SimTime>& arrivals,
                    Inject&& inject) {
  for (SimTime t : arrivals) {
    clock.SleepUntil(t);
    inject(t);
  }
}

}  // namespace pard

#endif  // PARD_SERVE_LOAD_GENERATOR_H_
