#include "trace/rate_function.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "stats/running_stat.h"

namespace pard {

RateFunction::RateFunction(std::vector<Point> points) : points_(std::move(points)) {
  PARD_CHECK(!points_.empty());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    PARD_CHECK_MSG(points_[i].rate >= 0.0, "rates must be non-negative");
    if (i > 0) {
      PARD_CHECK_MSG(points_[i].t > points_[i - 1].t, "points must be strictly increasing");
    }
  }
}

RateFunction RateFunction::Constant(double rate) {
  return RateFunction({{0, rate}, {kSimTimeMax / 2, rate}});
}

double RateFunction::At(SimTime t) const {
  PARD_CHECK(!points_.empty());
  if (t <= points_.front().t) {
    return points_.front().rate;
  }
  if (t >= points_.back().t) {
    return points_.back().rate;
  }
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](SimTime value, const Point& p) { return value < p.t; });
  return Interpolate(*(it - 1), *it, t);
}

double RateFunction::MaxRate() const {
  double best = 0.0;
  for (const Point& p : points_) {
    best = std::max(best, p.rate);
  }
  return best;
}

double RateFunction::MeanRate(SimTime begin, SimTime end, int samples) const {
  PARD_CHECK(end > begin);
  PARD_CHECK(samples > 1);
  double sum = 0.0;
  for (int i = 0; i < samples; ++i) {
    const SimTime t =
        begin + static_cast<SimTime>((end - begin) * static_cast<double>(i) / (samples - 1));
    sum += At(t);
  }
  return sum / samples;
}

double RateFunction::Cv(SimTime begin, SimTime end) const {
  RunningStat stat;
  for (SimTime t = begin; t <= end; t += kUsPerSec) {
    stat.Add(At(t));
  }
  return stat.Cv();
}

RateFunction RateFunction::Scaled(double rate_factor, double time_scale) const {
  PARD_CHECK(rate_factor > 0.0);
  PARD_CHECK(time_scale > 0.0);
  std::vector<Point> scaled;
  scaled.reserve(points_.size());
  for (const Point& p : points_) {
    scaled.push_back(
        Point{static_cast<SimTime>(static_cast<double>(p.t) * time_scale), p.rate * rate_factor});
  }
  // Time scaling may collapse adjacent points; deduplicate.
  std::vector<Point> unique;
  for (const Point& p : scaled) {
    if (!unique.empty() && p.t <= unique.back().t) {
      unique.back().rate = p.rate;
    } else {
      unique.push_back(p);
    }
  }
  return RateFunction(std::move(unique));
}

}  // namespace pard
