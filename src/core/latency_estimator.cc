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

// Overwrites `out` with `mc` draws from one module's wait distribution —
// the reservoir when it has observations, the uniform [0, d] fallback
// otherwise. Same per-sample draw kernel as the lazy path, but from the
// caller's (per-module, forked) stream.
void DrawWaitSamples(const ModuleState& state, int mc, Rng& rng, std::vector<double>& out) {
  out.resize(static_cast<std::size_t>(mc));
  if (state.wait_samples.empty()) {
    const double d = static_cast<double>(EffectiveBatchDuration(state));
    for (double& x : out) {
      x = rng.Uniform(0.0, d);
    }
  } else {
    const auto n = static_cast<std::int64_t>(state.wait_samples.size());
    for (double& x : out) {
      x = state.wait_samples[static_cast<std::size_t>(rng.UniformInt(0, n - 1))];
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
  cache_.resize(static_cast<std::size_t>(spec_->NumModules()));
}

EmpiricalDistribution LatencyEstimator::AggregateWaitDistribution(const std::vector<int>& path) {
  std::vector<double> sums(static_cast<std::size_t>(options_.mc_samples), 0.0);
  for (int id : path) {
    const ModuleState& state = board_->Get(id);
    if (state.wait_samples.empty()) {
      // Uniform [0, d_i] fallback (the Fig. 3b model), at the fleet's
      // effective duration — a half-speed fleet waits twice as long.
      const double d = static_cast<double>(EffectiveBatchDuration(state));
      for (double& s : sums) {
        s += rng_.Uniform(0.0, d);
      }
    } else {
      const auto n = static_cast<std::int64_t>(state.wait_samples.size());
      for (double& s : sums) {
        s += state.wait_samples[static_cast<std::size_t>(rng_.UniformInt(0, n - 1))];
      }
    }
  }
  return EmpiricalDistribution(std::move(sums));
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
  // Vectorized sweet-spot kernel: one batched draw loop per module into the
  // reused scratch, in the exact order the pre-vectorization code drew
  // (module-major, sample-minor, from the shared stream), then nth_element
  // selection — no allocation, no full sort, bit-identical result.
  scratch_sums_.assign(static_cast<std::size_t>(options_.mc_samples), 0.0);
  for (int id : path) {
    const ModuleState& state = board_->Get(id);
    if (state.wait_samples.empty()) {
      const double d = static_cast<double>(EffectiveBatchDuration(state));
      for (double& s : scratch_sums_) {
        s += rng_.Uniform(0.0, d);
      }
    } else {
      const auto n = static_cast<std::int64_t>(state.wait_samples.size());
      for (double& s : scratch_sums_) {
        s += state.wait_samples[static_cast<std::size_t>(rng_.UniformInt(0, n - 1))];
      }
    }
  }
  return static_cast<Duration>(std::llround(QuantileInPlace(scratch_sums_, lambda)));
}

Duration LatencyEstimator::EstimatePath(const std::vector<int>& path) {
  Duration estimate = 0;
  if (options_.include_queue) {
    for (int id : path) {
      estimate += static_cast<Duration>(std::llround(board_->Get(id).avg_queue_delay));
    }
  }
  if (options_.include_exec) {
    // d_i at the fleet's effective service rate: the profiled duration
    // stretched by the module's mean active backend speed (exactly the
    // profiled table for a homogeneous grade-1.0 fleet).
    for (int id : path) {
      estimate += EffectiveBatchDuration(board_->Get(id));
    }
  }
  if (options_.include_wait) {
    estimate += ComputeWaitQuantile(path, options_.lambda);
  }
  return estimate;
}

const LatencyEstimator::CacheEntry& LatencyEstimator::Refresh(int module_id) {
  PARD_CHECK(module_id >= 0 && module_id < spec_->NumModules());
  CacheEntry& entry = cache_[static_cast<std::size_t>(module_id)];
  if (entry.board_version == board_->Version()) {
    return entry;
  }
  const auto& paths = spec_->DownstreamPaths(module_id);
  entry.per_path.clear();
  entry.per_path.reserve(paths.size());
  Duration best = 0;
  for (const std::vector<int>& path : paths) {
    const Duration estimate = EstimatePath(path);
    entry.per_path.push_back(estimate);
    best = std::max(best, estimate);
  }
  entry.board_version = board_->Version();
  entry.max_value = best;
  return entry;
}

Duration LatencyEstimator::EstimateSubsequent(int module_id) {
  return Refresh(module_id).max_value;
}

void LatencyEstimator::EnsureRefreshState() {
  if (!buffers_.empty()) {
    return;
  }
  const int n = spec_->NumModules();
  buffers_.resize(static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m) {
    // One stream per module, derived from the estimator seed alone (Fork
    // ignores how far the shared stream has advanced), so buffer contents
    // depend only on this module's dirty-event count — the determinism the
    // parallel fan-out rests on.
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

void LatencyEstimator::RefreshEntryFromBuffers(int module_id) {
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
  EnsureRefreshState();
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
    DrawWaitSamples(board_->Get(m), options_.mc_samples, buf.rng, buf.draws);
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
  // Skipped entries are still stamped current so lazy reads stay warm.
  const std::uint64_t board_version = board_->Version();
  RefreshStats stats;
  std::vector<int> stale;
  for (int k = 0; k < n; ++k) {
    CacheEntry& entry = cache_[static_cast<std::size_t>(k)];
    std::uint64_t signature = 0;
    for (int m : entry.dep_modules) {
      signature += board_->ModuleVersion(m);
    }
    if (entry.dep_signature == signature) {
      entry.board_version = board_version;
      ++stats.skipped;
      continue;
    }
    entry.dep_signature = signature;
    stale.push_back(k);
  }
  const auto recompute = [&](std::size_t i) { RefreshEntryFromBuffers(stale[i]); };
  if (fan_out && stale.size() > 1) {
    ParallelFor(*pool, stale.size(), recompute);
  } else {
    for (std::size_t i = 0; i < stale.size(); ++i) {
      recompute(i);
    }
  }
  for (int k : stale) {
    cache_[static_cast<std::size_t>(k)].board_version = board_version;
  }
  stats.refreshed = static_cast<int>(stale.size());
  return stats;
}

Duration LatencyEstimator::EstimateSubsequentForRequest(int module_id, const Request& request) {
  if (!request.dynamic_path) {
    return EstimateSubsequent(module_id);
  }
  const CacheEntry& entry = Refresh(module_id);
  const auto& paths = spec_->DownstreamPaths(module_id);
  Duration best = 0;
  bool any = false;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    // A path is consistent when every fork along it forwards to the path's
    // next hop under this request's branch choices.
    int prev = module_id;
    bool consistent = true;
    for (int id : paths[i]) {
      const int choice = request.hops[static_cast<std::size_t>(prev)].branch_choice;
      if (spec_->Module(prev).subs.size() > 1 && choice != id) {
        consistent = false;
        break;
      }
      prev = id;
    }
    if (consistent) {
      best = std::max(best, entry.per_path[i]);
      any = true;
    }
  }
  // A request can only be at modules on its active path, so a consistent
  // path always exists; keep the conservative maximum as a safety net.
  return any ? best : entry.max_value;
}

}  // namespace pard
