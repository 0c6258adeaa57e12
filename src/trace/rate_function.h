// Piecewise-linear request-rate functions (requests/second over time).
//
// Traces are represented as rate curves; the arrival generator turns a curve
// into a concrete non-homogeneous Poisson arrival sequence.
#ifndef PARD_TRACE_RATE_FUNCTION_H_
#define PARD_TRACE_RATE_FUNCTION_H_

#include <vector>

#include "common/time_types.h"

namespace pard {

class RateFunction {
 public:
  struct Point {
    SimTime t;
    double rate;  // req/s, >= 0
  };

  RateFunction() = default;
  // Points must be strictly increasing in time and non-negative in rate.
  explicit RateFunction(std::vector<Point> points);

  // Constant rate over all time.
  static RateFunction Constant(double rate);

  // Rate at time t (linear interpolation; clamped to end values outside the
  // defined range).
  double At(SimTime t) const;

  // At's interpolation between neighbouring points, for lo.t <= t < hi.t.
  // The arrival sampler evaluates the curve through it too, so both round
  // alike.
  static double Interpolate(const Point& lo, const Point& hi, SimTime t) {
    const double frac =
        static_cast<double>(t - lo.t) / static_cast<double>(hi.t - lo.t);
    return lo.rate + frac * (hi.rate - lo.rate);
  }

  // Maximum rate over the defined points.
  double MaxRate() const;
  // Time-average rate over [begin, end].
  double MeanRate(SimTime begin, SimTime end, int samples = 1024) const;
  // Coefficient of variation of the rate curve sampled at 1 s intervals over
  // [begin, end] — the burstiness measure the paper quotes per trace.
  double Cv(SimTime begin, SimTime end) const;

  SimTime End() const { return points_.empty() ? 0 : points_.back().t; }
  const std::vector<Point>& points() const { return points_; }

  // Returns a copy with all rates multiplied by `factor` and all times by
  // `time_scale` — used to compress paper-length traces into faster benches.
  RateFunction Scaled(double rate_factor, double time_scale = 1.0) const;

 private:
  std::vector<Point> points_;
};

}  // namespace pard

#endif  // PARD_TRACE_RATE_FUNCTION_H_
