// Time-based sliding windows over (timestamp, value) observations.
//
// The PARD State Planner smooths recent queueing delays with a 5 s
// *linear-weighted* window (paper §4.2, footnote 4): an observation aged `a`
// within a window of length `L` contributes weight (L - a) / L. The same
// structure also provides plain means, maxima (for the PARD-WCL ablation) and
// event rates (for module load factors).
#ifndef PARD_STATS_SLIDING_WINDOW_H_
#define PARD_STATS_SLIDING_WINDOW_H_

#include <deque>

#include "common/time_types.h"

namespace pard {

class SlidingWindow {
 public:
  // `length` is the window span in microseconds; must be positive.
  explicit SlidingWindow(Duration length);

  // Records an observation. Timestamps must be non-decreasing.
  void Add(SimTime t, double value);

  // Drops observations older than `now - length`.
  void Evict(SimTime now);

  // Unweighted mean of in-window values; `fallback` when empty.
  double Mean(SimTime now, double fallback = 0.0);

  // Linear-weighted mean: weight of an observation at age a is (L - a) / L.
  double LinearWeightedMean(SimTime now, double fallback = 0.0);

  // Maximum in-window value; `fallback` when empty.
  double Max(SimTime now, double fallback = 0.0);

  std::size_t Size() const { return entries_.size(); }
  Duration length() const { return length_; }

 private:
  struct Entry {
    SimTime t;
    double value;
  };

  Duration length_;
  std::deque<Entry> entries_;
};

}  // namespace pard

#endif  // PARD_STATS_SLIDING_WINDOW_H_
