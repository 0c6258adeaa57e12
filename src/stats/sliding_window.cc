#include "stats/sliding_window.h"

#include <algorithm>

#include "common/check.h"

namespace pard {

SlidingWindow::SlidingWindow(Duration length) : length_(length) {
  PARD_CHECK(length > 0);
}

void SlidingWindow::Add(SimTime t, double value) {
  PARD_CHECK_MSG(entries_.empty() || t >= entries_.back().t,
                 "sliding window timestamps must be non-decreasing");
  entries_.push_back(Entry{t, value});
}

void SlidingWindow::Evict(SimTime now) {
  const SimTime horizon = now - length_;
  while (!entries_.empty() && entries_.front().t < horizon) {
    entries_.pop_front();
  }
}

double SlidingWindow::Mean(SimTime now, double fallback) {
  Evict(now);
  if (entries_.empty()) {
    return fallback;
  }
  double sum = 0.0;
  for (const Entry& e : entries_) {
    sum += e.value;
  }
  return sum / static_cast<double>(entries_.size());
}

double SlidingWindow::LinearWeightedMean(SimTime now, double fallback) {
  Evict(now);
  if (entries_.empty()) {
    return fallback;
  }
  double weighted = 0.0;
  double total_weight = 0.0;
  const double len = static_cast<double>(length_);
  for (const Entry& e : entries_) {
    const double age = static_cast<double>(now - e.t);
    const double w = std::max(0.0, (len - age) / len);
    weighted += w * e.value;
    total_weight += w;
  }
  if (total_weight <= 0.0) {
    return fallback;
  }
  return weighted / total_weight;
}

double SlidingWindow::Max(SimTime now, double fallback) {
  Evict(now);
  if (entries_.empty()) {
    return fallback;
  }
  double best = entries_.front().value;
  for (const Entry& e : entries_) {
    best = std::max(best, e.value);
  }
  return best;
}

}  // namespace pard
