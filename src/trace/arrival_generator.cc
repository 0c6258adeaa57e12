#include "trace/arrival_generator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace pard {
namespace {

// How far a sloped segment's band reaches past its end rates over the max
// rate. Evaluating the segment rounds by at most ~2^-52 of its larger end
// rate, so an acceptance probability on it lies at most ~2^-52 outside
// those quotients; 1e-12 is thousands of times that.
constexpr double kBoundSlack = 1e-12;

// Expected arrivals over [begin, end): the curve's integral, exact per
// piece because the rate is linear between points and flat outside them.
double ExpectedArrivals(const RateFunction& rate, SimTime begin, SimTime end) {
  double total = 0.0;
  SimTime from = begin;
  const auto add_piece = [&](SimTime to) {
    total += 0.5 * (rate.At(from) + rate.At(to)) * UsToSec(to - from);
    from = to;
  };
  for (const RateFunction::Point& p : rate.points()) {
    if (p.t >= end) {
      break;
    }
    if (p.t > from) {
      add_piece(p.t);
    }
  }
  add_piece(end);
  return total;
}

}  // namespace

std::vector<SimTime> GenerateArrivals(const RateFunction& rate, SimTime begin, SimTime end,
                                      Rng& rng) {
  PARD_CHECK(end > begin);
  const double max_rate = rate.MaxRate();
  PARD_CHECK_MSG(max_rate > 0.0, "rate function is identically zero");
  const std::vector<RateFunction::Point>& points = rate.points();
  // The count is Poisson: reserve four standard deviations above its mean.
  const double expected = ExpectedArrivals(rate, begin, end);
  std::vector<SimTime> arrivals;
  arrivals.reserve(static_cast<std::size_t>(expected + 4.0 * std::sqrt(expected)) + 16);

  // The cursor: `next` is the first point after the current candidate, so
  // the candidate lies before the first point (next == 0), on the segment
  // points[next - 1]..points[next], or past the last point (next ==
  // points.size()). [accept_below, reject_from] is that region's band; the
  // first candidate enters its region whatever its time.
  std::size_t next = 0;
  SimTime next_t = std::numeric_limits<SimTime>::min();
  double accept_below = 0.0;
  double reject_from = 0.0;
  const auto enter_region = [&](SimTime ts) {
    while (next < points.size() && points[next].t <= ts) {
      ++next;
    }
    next_t = next < points.size() ? points[next].t : kSimTimeMax;
    // The region's end rates; the flat extensions repeat the nearest point.
    const double a = points[next == 0 ? 0 : next - 1].rate;
    const double b = points[std::min(next, points.size() - 1)].rate;
    if (a == b) {  // Interpolating a flat segment returns its rate exactly.
      accept_below = reject_from = a / max_rate;
      return;
    }
    accept_below = std::min(a, b) / max_rate - kBoundSlack;
    reject_from = std::max(a, b) / max_rate + kBoundSlack;
  };

  const double mean_gap = 1.0 / max_rate;
  double t = UsToSec(begin);
  const double t_end = UsToSec(end);
  while (true) {
    t += rng.Exponential(mean_gap);
    if (t >= t_end) {
      break;
    }
    const SimTime ts = SecToUs(t);
    if (ts >= next_t) {
      enter_region(ts);
    }
    const double u = rng.NextDouble();
    if (u >= reject_from) {
      continue;
    }
    if (u < accept_below ||
        u < RateFunction::Interpolate(points[next - 1], points[next], ts) / max_rate) {
      arrivals.push_back(ts);
    }
  }
  return arrivals;
}

std::vector<SimTime> GenerateUniformArrivals(double rate_per_sec, SimTime begin, SimTime end) {
  PARD_CHECK(rate_per_sec > 0.0);
  PARD_CHECK(end > begin);
  const Duration gap = static_cast<Duration>(std::llround(1e6 / rate_per_sec));
  PARD_CHECK(gap > 0);
  std::vector<SimTime> arrivals;
  for (SimTime t = begin; t < end; t += gap) {
    arrivals.push_back(t);
  }
  return arrivals;
}

}  // namespace pard
