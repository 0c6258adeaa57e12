#include "trace/traces.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace pard {
namespace {

constexpr double kStepSeconds = 5.0;  // Rate curve resolution.

std::vector<RateFunction::Point> GridPoints(double duration_s) {
  std::vector<RateFunction::Point> pts;
  const int n = static_cast<int>(duration_s / kStepSeconds) + 1;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back({SecToUs(i * kStepSeconds), 0.0});
  }
  return pts;
}

}  // namespace

RateFunction MakeWikiTrace(const TraceOptions& options) {
  Rng rng(options.seed ^ 0x77696b69ULL);
  auto pts = GridPoints(options.duration_s);
  // Two nested periods (a slow diurnal swing plus a faster access wave) and
  // small multiplicative noise: smooth and periodic, CV ~= 0.47.
  const double slow_period = options.duration_s / 2.0;
  const double fast_period = options.duration_s / 7.0;
  for (auto& p : pts) {
    const double t = UsToSec(p.t);
    const double slow = 0.55 * std::sin(2.0 * M_PI * t / slow_period);
    const double fast = 0.25 * std::sin(2.0 * M_PI * t / fast_period + 0.8);
    const double noise = rng.Normal(0.0, 0.03);
    p.rate = std::max(1.0, options.base_rate * (1.0 + slow + fast + noise));
  }
  return RateFunction(std::move(pts));
}

RateFunction MakeTweetTrace(const TraceOptions& options) {
  Rng rng(options.seed ^ 0x7477656574ULL);
  auto pts = GridPoints(options.duration_s);
  // Low-ish baseline with occasional short bursts, plus the sustained 2x step
  // at 60% of the trace that the paper's Fig. 2d / Fig. 10 analyzes.
  const double step_at = 0.60 * options.duration_s;
  const double step_len = 0.12 * options.duration_s;
  double burst_until = -1.0;
  double burst_gain = 0.0;
  for (auto& p : pts) {
    const double t = UsToSec(p.t);
    double level = 0.55;  // Baseline fraction of base_rate.
    if (t >= step_at && t < step_at + step_len) {
      level = 1.35;  // The 2x+ step event.
    }
    if (t > burst_until && rng.Bernoulli(0.06)) {
      burst_until = t + rng.Uniform(10.0, 40.0);
      burst_gain = rng.Uniform(1.2, 2.8);
    }
    if (t <= burst_until) {
      level += burst_gain;
    }
    const double noise = rng.Normal(0.0, 0.06);
    p.rate = std::max(1.0, options.base_rate * std::max(0.05, level + noise));
  }
  return RateFunction(std::move(pts));
}

RateFunction MakeAzureTrace(const TraceOptions& options) {
  Rng rng(options.seed ^ 0x617a757265ULL);
  auto pts = GridPoints(options.duration_s);
  // Serverless invocations: low floor with frequent tall, short spikes.
  double burst_until = -1.0;
  double burst_gain = 0.0;
  for (auto& p : pts) {
    const double t = UsToSec(p.t);
    double level = 0.35 + 0.10 * std::sin(2.0 * M_PI * t / (options.duration_s / 3.0));
    if (t > burst_until && rng.Bernoulli(0.10)) {
      burst_until = t + rng.Uniform(5.0, 20.0);
      burst_gain = rng.Uniform(1.5, 3.6);
    }
    if (t <= burst_until) {
      level += burst_gain;
    }
    const double noise = rng.Normal(0.0, 0.08);
    p.rate = std::max(1.0, options.base_rate * std::max(0.05, level + noise));
  }
  return RateFunction(std::move(pts));
}

RateFunction MakeMmppTrace(const MmppOptions& mmpp, SimTime end, Rng& rng) {
  PARD_CHECK_MSG(mmpp.base_rate > 0.0 && mmpp.burst_rate > 0.0, "MMPP rates must be positive");
  PARD_CHECK_MSG(mmpp.mean_base_s > 0.0 && mmpp.mean_burst_s > 0.0,
                 "MMPP dwell means must be positive");
  std::vector<RateFunction::Point> points;
  bool burst = false;
  for (SimTime t = 0; t < end; burst = !burst) {
    const double mean_us = (burst ? mmpp.mean_burst_s : mmpp.mean_base_s) * 1e6;
    const SimTime next =
        std::min(end, t + std::max<SimTime>(2, std::llround(rng.Exponential(mean_us))));
    const double rate = burst ? mmpp.burst_rate : mmpp.base_rate;
    points.push_back({t, rate});
    if (next - 1 > t) {  // Only a 1 us segment cut at `end` has no second point.
      points.push_back({next - 1, rate});
    }
    t = next;
  }
  return RateFunction(std::move(points));
}

RateFunction MakeTrace(const std::string& name, const TraceOptions& options) {
  if (name == "wiki") {
    return MakeWikiTrace(options);
  }
  if (name == "tweet") {
    return MakeTweetTrace(options);
  }
  if (name == "azure") {
    return MakeAzureTrace(options);
  }
  if (name == "poisson") {
    return RateFunction::Constant(options.base_rate);
  }
  if (name == "mmpp") {
    MmppOptions mmpp;
    mmpp.base_rate = options.base_rate;
    mmpp.burst_rate = 4.0 * options.base_rate;
    Rng rng = Rng(options.seed).Fork("mmpp-schedule");
    return MakeMmppTrace(mmpp, SecToUs(options.duration_s), rng);
  }
  PARD_CHECK_MSG(false, "unknown trace: " << name);
}

TraceRegion BurstRegion(const std::string& name, const TraceOptions& options) {
  // Mirrors the red boxes in Fig. 10: the most overloaded stretch of the
  // trace — found as the window with the highest mean rate.
  const RateFunction rate = MakeTrace(name, options);
  const SimTime end = SecToUs(options.duration_s);
  const Duration window = std::min<Duration>(SecToUs(30), end);
  const Duration step = SecToUs(1);
  SimTime best_begin = 0;
  double best_mean = -1.0;
  for (SimTime begin = 0; begin + window <= end; begin += step) {
    const double mean = rate.MeanRate(begin, begin + window, 64);
    if (mean > best_mean) {
      best_mean = mean;
      best_begin = begin;
    }
  }
  return {best_begin, best_begin + window};
}

}  // namespace pard
