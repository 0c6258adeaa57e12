#include "stats/empirical_distribution.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace pard {

EmpiricalDistribution::EmpiricalDistribution(std::vector<double> samples)
    : samples_(std::move(samples)), sorted_(false) {}

void EmpiricalDistribution::Add(double sample) {
  samples_.push_back(sample);
  sorted_ = false;
}

void EmpiricalDistribution::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalDistribution::Quantile(double q, double fallback) const {
  if (samples_.empty()) {
    return fallback;
  }
  EnsureSorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double EmpiricalDistribution::Cdf(double x) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

double EmpiricalDistribution::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : samples_) {
    sum += v;
  }
  return sum / static_cast<double>(samples_.size());
}

double EmpiricalDistribution::Min() const {
  PARD_CHECK(!samples_.empty());
  EnsureSorted();
  return samples_.front();
}

double EmpiricalDistribution::Max() const {
  PARD_CHECK(!samples_.empty());
  EnsureSorted();
  return samples_.back();
}

}  // namespace pard
