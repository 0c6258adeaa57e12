#include "stats/empirical_distribution.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace pard {

namespace {

// The double's bits, remapped so unsigned order is numeric order: a negative
// value flips every bit (larger magnitudes sort first), a positive one only
// the sign bit.
std::uint64_t SortKey(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

}  // namespace

void SortSamples(std::vector<double>& samples, std::vector<double>& scratch) {
  const std::size_t n = samples.size();
  scratch.resize(n);
  double* from = samples.data();
  double* to = scratch.data();
  for (int shift = 0; shift < 64; shift += 8) {
    std::array<std::size_t, 257> start{};
    for (std::size_t i = 0; i < n; ++i) {
      ++start[((SortKey(from[i]) >> shift) & 0xff) + 1];
    }
    if (std::find(start.begin() + 1, start.end(), n) != start.end()) {
      continue;  // Every sample shares this byte: the pass would not move one.
    }
    for (std::size_t b = 1; b < start.size(); ++b) {
      start[b] += start[b - 1];
    }
    for (std::size_t i = 0; i < n; ++i) {
      to[start[(SortKey(from[i]) >> shift) & 0xff]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != samples.data()) {
    std::copy(from, from + n, samples.data());
  }
}

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
