#include "core/latency_estimator.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "exec/thread_pool.h"

namespace pard {

namespace {

// Selects the interpolated q-quantile of the (unsorted) samples in `v`,
// destructively, reproducing EmpiricalDistribution::Quantile bit-for-bit:
// same clamp/position arithmetic, same interpolation operands. nth_element
// places the lo-th order statistic; the (lo+1)-th is the minimum of the
// suffix partition it leaves above — two O(n) passes instead of a sort.
double QuantileInPlace(std::vector<double>& v, double q) {
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const double v_lo = v[lo];
  const double v_hi =
      hi == lo ? v_lo : *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo + 1), v.end());
  return v_lo * (1.0 - frac) + v_hi * frac;
}

// Adds one draw from a module's wait distribution to every element of
// `acc` — the reservoir when it has observations, the uniform [0, d_i]
// fallback (the Fig. 3b model, at the fleet's effective duration: a
// half-speed fleet waits twice as long) otherwise. The one draw kernel of
// the estimator: the per-module refresh buffers and the explicit-path
// aggregation both call it, each with its own stream.
void AddWaitDraws(const ModuleState& state, Rng& rng, std::vector<double>& acc) {
  if (state.wait_samples.empty()) {
    const double d = static_cast<double>(EffectiveBatchDuration(state));
    for (double& x : acc) {
      x += rng.Uniform(0.0, d);
    }
  } else {
    const auto n = static_cast<std::int64_t>(state.wait_samples.size());
    for (double& x : acc) {
      x += state.wait_samples[static_cast<std::size_t>(rng.UniformInt(0, n - 1))];
    }
  }
}

}  // namespace

LatencyEstimator::LatencyEstimator(const PipelineSpec* spec, const StateBoard* board,
                                   EstimatorOptions options, Rng rng)
    : spec_(spec), board_(board), options_(options), rng_(rng) {
  PARD_CHECK(spec_ != nullptr);
  PARD_CHECK(board_ != nullptr);
  PARD_CHECK(options_.lambda >= 0.0 && options_.lambda <= 1.0);
  PARD_CHECK(options_.mc_samples > 0);
  const int n = spec_->NumModules();
  cache_.resize(static_cast<std::size_t>(n));
  buffers_.resize(static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m) {
    // One stream per module, derived from the estimator seed alone (Fork
    // ignores how far the estimator's own stream has advanced), so buffer
    // contents depend only on this module's dirty-event count — the
    // determinism the parallel fan-out rests on.
    buffers_[static_cast<std::size_t>(m)].rng = rng_.Fork("est:" + std::to_string(m));
  }
  for (int k = 0; k < n; ++k) {
    CacheEntry& entry = cache_[static_cast<std::size_t>(k)];
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    for (const std::vector<int>& path : spec_->DownstreamPaths(k)) {
      for (int id : path) {
        seen[static_cast<std::size_t>(id)] = true;
      }
    }
    for (int m = 0; m < n; ++m) {
      if (seen[static_cast<std::size_t>(m)]) {
        entry.dep_modules.push_back(m);
      }
    }
  }
}

std::vector<double> LatencyEstimator::DrawPathSums(const std::vector<int>& path) {
  std::vector<double> sums(static_cast<std::size_t>(options_.mc_samples), 0.0);
  for (int id : path) {
    AddWaitDraws(board_->Get(id), rng_, sums);
  }
  return sums;
}

EmpiricalDistribution LatencyEstimator::AggregateWaitDistribution(const std::vector<int>& path) {
  return EmpiricalDistribution(DrawPathSums(path));
}

Duration LatencyEstimator::AggregateWaitQuantile(const std::vector<int>& path, double lambda) {
  if (path.empty()) {
    return 0;
  }
  // Warm-epoch memo: between state syncs the inputs cannot change, so the
  // Monte-Carlo runs at most once per (path, lambda) per epoch.
  for (QuantileMemo& memo : quantile_memo_) {
    if (memo.lambda == lambda && memo.path == path) {
      if (memo.board_version != board_->Version()) {
        memo.value = ComputeWaitQuantile(path, lambda);
        memo.board_version = board_->Version();
      }
      return memo.value;
    }
  }
  QuantileMemo memo;
  memo.path = path;
  memo.lambda = lambda;
  memo.board_version = board_->Version();
  memo.value = ComputeWaitQuantile(path, lambda);
  quantile_memo_.push_back(std::move(memo));
  return quantile_memo_.back().value;
}

Duration LatencyEstimator::ComputeWaitQuantile(const std::vector<int>& path, double lambda) {
  if (path.empty()) {
    return 0;
  }
  switch (options_.wait_mode) {
    case EstimatorOptions::WaitMode::kLower:
      return 0;
    case EstimatorOptions::WaitMode::kUpper: {
      Duration total = 0;
      for (int id : path) {
        total += EffectiveBatchDuration(board_->Get(id));
      }
      return total;
    }
    case EstimatorOptions::WaitMode::kSweetSpot:
      break;
  }
  std::vector<double> sums = DrawPathSums(path);
  return static_cast<Duration>(std::llround(QuantileInPlace(sums, lambda)));
}

const LatencyEstimator::CacheEntry& LatencyEstimator::Entry(int module_id) {
  PARD_CHECK(module_id >= 0 && module_id < spec_->NumModules());
  if (refreshed_version_ != board_->Version()) {
    RefreshAll(nullptr);
  }
  return cache_[static_cast<std::size_t>(module_id)];
}

void LatencyEstimator::RecomputeEntry(int module_id) {
  CacheEntry& entry = cache_[static_cast<std::size_t>(module_id)];
  const auto& paths = spec_->DownstreamPaths(module_id);
  entry.per_path.clear();
  entry.per_path.reserve(paths.size());
  Duration best = 0;
  for (const std::vector<int>& path : paths) {
    Duration estimate = 0;
    if (options_.include_queue) {
      for (int id : path) {
        estimate += static_cast<Duration>(std::llround(board_->Get(id).avg_queue_delay));
      }
    }
    if (options_.include_exec) {
      for (int id : path) {
        estimate += EffectiveBatchDuration(board_->Get(id));
      }
    }
    if (options_.include_wait && !path.empty()) {
      switch (options_.wait_mode) {
        case EstimatorOptions::WaitMode::kLower:
          break;
        case EstimatorOptions::WaitMode::kUpper:
          for (int id : path) {
            estimate += EffectiveBatchDuration(board_->Get(id));
          }
          break;
        case EstimatorOptions::WaitMode::kSweetSpot: {
          // Path samples are element-wise sums of the modules' buffers: each
          // sample i sums independent draws (one stream per module), so the
          // quantile is a valid Monte-Carlo estimate of the aggregate wait —
          // no RNG on this path, just adds and one selection.
          entry.scratch.assign(static_cast<std::size_t>(options_.mc_samples), 0.0);
          for (int id : path) {
            const std::vector<double>& draws = buffers_[static_cast<std::size_t>(id)].draws;
            for (std::size_t i = 0; i < entry.scratch.size(); ++i) {
              entry.scratch[i] += draws[i];
            }
          }
          estimate += static_cast<Duration>(
              std::llround(QuantileInPlace(entry.scratch, options_.lambda)));
          break;
        }
      }
    }
    entry.per_path.push_back(estimate);
    best = std::max(best, estimate);
  }
  entry.max_value = best;
}

LatencyEstimator::RefreshStats LatencyEstimator::RefreshAll(ThreadPool* pool) {
  const int n = spec_->NumModules();
  // Phase 1: re-draw the sample buffers of modules whose estimator inputs
  // moved. Disjoint per-module state, so the fan-out needs no locks.
  std::vector<int> dirty;
  for (int m = 0; m < n; ++m) {
    if (buffers_[static_cast<std::size_t>(m)].input_version != board_->ModuleVersion(m)) {
      dirty.push_back(m);
    }
  }
  const auto redraw = [&](std::size_t i) {
    const int m = dirty[i];
    ModuleBuffer& buf = buffers_[static_cast<std::size_t>(m)];
    buf.draws.assign(static_cast<std::size_t>(options_.mc_samples), 0.0);
    AddWaitDraws(board_->Get(m), buf.rng, buf.draws);
    buf.input_version = board_->ModuleVersion(m);
  };
  // A single-worker pool adds a handoff without adding parallelism (common
  // on small machines via refresh_threads=0): run inline instead.
  const bool fan_out = pool != nullptr && pool->thread_count() > 1;
  if (fan_out && dirty.size() > 1) {
    ParallelFor(*pool, dirty.size(), redraw);
  } else {
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      redraw(i);
    }
  }
  // Phase 2: recompute only the entries whose downstream dependency set
  // moved (sum of monotone per-module versions — changes iff any changed).
  RefreshStats stats;
  std::vector<int> stale;
  for (int k = 0; k < n; ++k) {
    CacheEntry& entry = cache_[static_cast<std::size_t>(k)];
    std::uint64_t signature = 0;
    for (int m : entry.dep_modules) {
      signature += board_->ModuleVersion(m);
    }
    if (entry.dep_signature == signature) {
      ++stats.skipped;
      continue;
    }
    entry.dep_signature = signature;
    stale.push_back(k);
  }
  const auto recompute = [&](std::size_t i) { RecomputeEntry(stale[i]); };
  if (fan_out && stale.size() > 1) {
    ParallelFor(*pool, stale.size(), recompute);
  } else {
    for (std::size_t i = 0; i < stale.size(); ++i) {
      recompute(i);
    }
  }
  refreshed_version_ = board_->Version();
  stats.refreshed = static_cast<int>(stale.size());
  return stats;
}

}  // namespace pard
