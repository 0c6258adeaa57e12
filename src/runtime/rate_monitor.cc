#include "runtime/rate_monitor.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pard {

RateMonitor::RateMonitor(Duration window) : window_(window) { PARD_CHECK(window > 0); }

void RateMonitor::Bump(SimTime now) {
  Evict(now);
  const SimTime bin_start = (now / kUsPerSec) * kUsPerSec;
  if (bins_.empty() || bins_.back().start != bin_start) {
    bins_.push_back(Bin{bin_start, 0});
  }
  ++bins_.back().count;
}

void RateMonitor::Evict(SimTime now) {
  const SimTime horizon = now - window_;
  while (!bins_.empty() && bins_.front().start + kUsPerSec <= horizon) {
    bins_.pop_front();
  }
}

double RateMonitor::Smoothed(SimTime now) {
  Evict(now);
  if (bins_.empty()) {
    return 0.0;
  }
  int total = 0;
  for (const Bin& b : bins_) {
    total += b.count;
  }
  // Floor the clamp bounds so a sub-second stats window cannot invert them
  // (std::clamp with lo > hi is UB).
  const double window_s = std::max(1.0, UsToSec(window_));
  const double covered = std::clamp(UsToSec(now - bins_.front().start), 1.0, window_s);
  return static_cast<double>(total) / covered;
}

double RateMonitor::Burstiness(SimTime now) {
  Evict(now);
  if (bins_.size() < 2) {
    return 0.0;
  }
  double sum = 0.0;
  for (const Bin& b : bins_) {
    sum += static_cast<double>(b.count);
  }
  if (sum <= 0.0) {
    return 0.0;
  }
  const double mean = sum / static_cast<double>(bins_.size());
  double dev = 0.0;
  for (const Bin& b : bins_) {
    dev += std::abs(static_cast<double>(b.count) - mean);
  }
  return dev / sum;
}

}  // namespace pard
