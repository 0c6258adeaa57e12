// Per-second arrival binning shared by the simulated and serving module
// controllers.
//
// The State Planner derives two quantities from recent arrival counts over
// the stats window: the window-smoothed rate (the load factor's numerator
// and the scaling engine's demand signal) and the paper's burstiness
// measure eps = sum|T_in - T_mean| / sum T_in.
// ModuleRuntime owns one per module in both substrates, so the estimator
// sees identically-defined ModuleState inputs on either.
//
// Concurrency: not synchronized; its ModuleRuntime's owner serializes it
// (the simulator's event loop, or serve's module mutex).
#ifndef PARD_RUNTIME_RATE_MONITOR_H_
#define PARD_RUNTIME_RATE_MONITOR_H_

#include <deque>

#include "common/time_types.h"

namespace pard {

class RateMonitor {
 public:
  // `window` is the stats-window span the bins cover (> 0).
  explicit RateMonitor(Duration window);

  // Records one arrival at `now`.
  void Bump(SimTime now);

  // Total in-window arrivals over the covered span (floored at 1 s so a
  // window's first moments are not over-extrapolated).
  double Smoothed(SimTime now);

  // eps = sum|count - mean| / sum count over in-window bins; 0 with < 2 bins.
  double Burstiness(SimTime now);

 private:
  void Evict(SimTime now);

  struct Bin {
    SimTime start;
    int count;
  };

  Duration window_;
  std::deque<Bin> bins_;
};

}  // namespace pard

#endif  // PARD_RUNTIME_RATE_MONITOR_H_
