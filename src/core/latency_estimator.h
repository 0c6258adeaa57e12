// Bi-directional end-to-end latency estimation (paper §4.2).
//
// At decision time t_b the Request Broker knows (backward) the request's
// cumulative latency t_e - t_s through the current batch start, and
// (current) the profiled execution duration d_k. This estimator supplies the
// forward component for the subsequent modules:
//
//   L_sub = sum q_i  +  sum d_i  +  w_k,     i in k+1..N
//
// where q_i are the synchronized recent queueing delays, d_i the profiled
// durations at the synchronized batch sizes, and w_k = F^-1_{k+1..N}(lambda)
// the "sweet spot" quantile of the aggregated batch-wait distribution.
//
// Heterogeneous fleets: the estimator reasons against each module's
// *effective* service rate rather than `workers × uniform profile`. Every
// d_i term (the exec sum, the PARD-upper bound, and the uniform [0, d]
// wait fallback) uses EffectiveBatchDuration(state) — the profiled duration
// stretched by the fleet's mean active backend speed as published by the
// BackendFleet through ModuleState::mean_speed — and the per-module wait
// reservoirs already observe the true heterogeneous waits empirically. A
// homogeneous grade-1.0 fleet publishes mean_speed == 1.0 exactly, keeping
// estimates (and the Monte-Carlo RNG sequence) bit-identical to the
// pre-heterogeneity kernel. The
// distribution is built by Monte-Carlo over each module's recent-wait
// reservoir (the paper keeps M = 10 000 samples per module; see
// kReservoirCapacity in runtime/module_runtime.cc), falling back to the
// uniform [0, d_i] model for modules without observations. For DAG
// pipelines the estimate is the maximum over all downstream paths.
//
// All Monte-Carlo work is epoch-cached, matching the paper's asynchronous-
// update cost model (§5.4): the cache is refreshed at most once per board
// publish, and between syncs a broker decision is a cache read.
//
// RefreshAll() is the one refresh. It re-derives the cache from per-module
// sample buffers, each drawn from its own forked RNG stream
// (Fork("est:<module>")) and re-drawn only when that module's estimator
// inputs actually changed since the last refresh
// (StateBoard::ModuleVersion). A path's Monte-Carlo samples are element-wise
// sums of its modules' buffers — common random numbers across entries,
// independent streams across modules — so a sync where 2 of 16 modules
// moved pays 2 modules of draws plus cheap vector adds. Results depend only
// on each module's dirty-event count, never on thread interleaving, so
// fanning the work across a ThreadPool is run-to-run deterministic at any
// thread count. The control plane calls it once per sync
// (DropPolicy::RefreshEstimates); EstimateSubsequent and PathEstimates call
// it inline when the board has moved since the last refresh, so a reader
// never sees a stale entry.
//
// AggregateWaitQuantile / AggregateWaitDistribution are the explicit-path
// queries of Fig. 6 and the Irwin–Hall tests. They draw from the estimator's
// own stream with the same per-module draw kernel as the buffers, memoized
// per (path, lambda, board epoch).
//
// Concurrency contract: NOT internally synchronized — a refresh mutates the
// cache and advances the Monte-Carlo streams, and a board publish
// invalidates it. The estimator is touched from exactly one place: the
// control plane's Sync() (the simulator's event loop, or serve's control
// thread, holding no lock), since decisions only ever read the immutable
// PolicyView copies the control plane hands each module with its snapshot
// and never call into the estimator at all. RefreshAll's internal
// ParallelFor phases touch disjoint per-module buffers, then disjoint
// per-entry cache slots (with a barrier between the phases), so the fan-out
// needs no locks either.
#ifndef PARD_CORE_LATENCY_ESTIMATOR_H_
#define PARD_CORE_LATENCY_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/time_types.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/state_board.h"
#include "stats/empirical_distribution.h"

namespace pard {

class ThreadPool;

// Default Monte-Carlo draw count — the single source of truth for
// EstimatorOptions, PolicyParams and the pardsim --mc-samples flag.
inline constexpr int kDefaultMcSamples = 512;

struct EstimatorOptions {
  // Quantile lambda for the batch-wait sweet spot (paper default 0.1).
  double lambda = 0.1;
  // Monte-Carlo draw count for the aggregated wait distribution. Distinct
  // from the paper's M = 10 000, which is the per-module reservoir SIZE the
  // draws sample from (kReservoirCapacity in runtime/module_runtime.cc).
  // 512 draws put the lambda = 0.1 quantile within a couple of percent of
  // the converged value (see estimator_test's Irwin–Hall checks) at ~1/20th
  // the per-epoch refresh cost; raise it (pardsim --mc-samples,
  // PolicyParams::mc_samples) when reproducing the paper's exact overhead
  // numbers or probing tail quantiles.
  int mc_samples = kDefaultMcSamples;

  // Ablation knobs. The full PARD estimator has all three enabled with
  // kSweetSpot wait handling.
  enum class WaitMode {
    kSweetSpot,  // w_k = F^-1(lambda)               (PARD)
    kLower,      // w_k = 0                          (PARD-lower)
    kUpper,      // w_k = sum d_i                    (PARD-upper)
  };
  WaitMode wait_mode = WaitMode::kSweetSpot;
  bool include_queue = true;  // false: drop the sum q_i term (PARD-sf).
  bool include_exec = true;   // false: drop the sum d_i term.
  bool include_wait = true;   // false: drop the w_k term   (PARD-sf).
};

class LatencyEstimator {
 public:
  LatencyEstimator(const PipelineSpec* spec, const StateBoard* board, EstimatorOptions options,
                   Rng rng);

  // L_sub from module k (exclusive) to the sink; max over DAG paths.
  // Refreshes first (RefreshAll, inline) when the board moved since the last
  // refresh.
  Duration EstimateSubsequent(int module_id) { return Entry(module_id).max_value; }

  // Per-path downstream estimates for module_id, aligned index-for-index
  // with spec->DownstreamPaths(module_id), refreshed like
  // EstimateSubsequent. Policy MakeView() implementations copy these into
  // their immutable snapshot at sync time; the reference is invalidated by
  // the next refresh.
  const std::vector<Duration>& PathEstimates(int module_id) {
    return Entry(module_id).per_path;
  }

  // Incremental whole-cache refresh from per-module forked sample buffers
  // (see the header comment). Re-draws only the buffers of modules whose
  // estimator inputs changed since the last call, then recomputes only the
  // cache entries whose downstream modules moved. `pool` fans both phases
  // across its threads; nullptr runs them inline. The result is identical
  // at any thread count.
  struct RefreshStats {
    int refreshed = 0;  // cache entries recomputed
    int skipped = 0;    // cache entries reused (no downstream input moved)
  };
  RefreshStats RefreshAll(ThreadPool* pool);

  // The aggregated batch-wait quantile for an explicit module path — exposed
  // for tests and the Fig. 6 bench. Memoized per (path, lambda, board
  // epoch): repeat calls between state syncs are cache reads and re-draw the
  // Monte-Carlo aggregation only after the next publish.
  Duration AggregateWaitQuantile(const std::vector<int>& path, double lambda);

  // Full aggregated-wait distribution for a path (Fig. 6 PDFs).
  EmpiricalDistribution AggregateWaitDistribution(const std::vector<int>& path);

  const EstimatorOptions& options() const { return options_; }

 private:
  // Uncached wait-quantile computation for AggregateWaitQuantile, honoring
  // the wait mode: the sweet spot selects the lambda-quantile of
  // AggregateWaitDistribution's samples with nth_element instead of a full
  // sort — bit-identical by construction (estimator_test's
  // VectorizedQuantileParityGrid pins it).
  Duration ComputeWaitQuantile(const std::vector<int>& path, double lambda);
  // Monte-Carlo path sums: mc_samples draws of the path's aggregated wait
  // from the estimator's own stream, module-major, sample-minor.
  std::vector<double> DrawPathSums(const std::vector<int>& path);

  const PipelineSpec* spec_;
  const StateBoard* board_;
  EstimatorOptions options_;
  Rng rng_;

  // Per-module cache of per-path downstream estimates: between sync ticks
  // every admission reuses the same values, so the O(mc_samples * path
  // length) work runs once per module per second — the asynchronous-update
  // cost model of the paper's §5.4.
  struct CacheEntry {
    std::vector<Duration> per_path;
    Duration max_value = 0;
    // Union of modules on this entry's downstream paths, resolved once.
    std::vector<int> dep_modules;
    // Sum of the dep modules' StateBoard::ModuleVersion at the last
    // recompute. Versions are monotone, so the sum moves iff any dependency
    // moved; ~0 forces the first recompute.
    std::uint64_t dep_signature = ~0ULL;
    // Reused per-entry path-sum scratch; entries refresh on different pool
    // threads, so the scratch lives here rather than on the estimator.
    std::vector<double> scratch;
  };
  // The entry for module_id, after a refresh if the board moved.
  const CacheEntry& Entry(int module_id);
  void RecomputeEntry(int module_id);
  std::vector<CacheEntry> cache_;
  // Board version of the last RefreshAll; ~0 until the first.
  std::uint64_t refreshed_version_ = ~0ULL;

  // Per-module Monte-Carlo sample buffer: mc_samples draws from the module's
  // wait distribution, re-drawn from the module's own forked stream only
  // when its estimator inputs change.
  struct ModuleBuffer {
    Rng rng{1};
    std::uint64_t input_version = ~0ULL;
    std::vector<double> draws;
  };
  std::vector<ModuleBuffer> buffers_;

  // Warm-epoch memo for explicit-path quantile queries. Linear scan: the
  // distinct (path, lambda) pairs in play per epoch are the pipeline's
  // downstream paths, a handful at most.
  struct QuantileMemo {
    std::vector<int> path;
    double lambda = 0.0;
    std::uint64_t board_version = ~0ULL;
    Duration value = 0;
  };
  std::vector<QuantileMemo> quantile_memo_;
};

}  // namespace pard

#endif  // PARD_CORE_LATENCY_ESTIMATOR_H_
