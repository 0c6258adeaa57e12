// Recent-sample reservoir.
//
// The State Planner keeps the most recent M (default 10 000, paper footnote 6)
// batch-wait observations per module and randomly samples them to build the
// aggregated batch-wait distribution F_{k+1..N} (AddWaitDraws in
// core/latency_estimator.cc draws uniform indices into a copy of values()).
// A ring buffer of the most recent M values implements "random sampling on
// recent arrivals" — it tracks workload drift instead of mixing in stale
// samples as a classic reservoir would.
#ifndef PARD_STATS_RESERVOIR_H_
#define PARD_STATS_RESERVOIR_H_

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace pard {

class RecentReservoir {
 public:
  explicit RecentReservoir(std::size_t capacity) : capacity_(capacity) {
    PARD_CHECK(capacity > 0);
    values_.reserve(capacity);
  }

  void Add(double v) {
    if (values_.size() < capacity_) {
      values_.push_back(v);
    } else {
      values_[next_] = v;
      next_ = (next_ + 1) % capacity_;
    }
  }

  // The kept values in ring-slot order, not arrival order.
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::vector<double> values_;
};

}  // namespace pard

#endif  // PARD_STATS_RESERVOIR_H_
