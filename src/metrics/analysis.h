// Offline analysis of a finished run.
//
// Every evaluation quantity in the paper's §5 is a pure function of the
// per-request records a run leaves behind: the request log of either
// substrate, the simulator (PipelineRuntime) or the serving runtime
// (ServeRuntime). This module computes them: goodput (windowed,
// normalized, minimum-over-windows), drop rate (average, transient,
// maximum-over-windows), invalid rate (wasted GPU time), per-module drop
// placement, queueing-delay and budget-consumption means, and the
// sumQ/sumW/sumD distributions. Weighted goodput weighs each request by its
// tenant's weight in the run's tenant catalog, which the records do not
// store.
//
// The constructor reads the log once and keeps every run-wide tally
// (counts, drop reasons and placement, GPU time, the run's span, weighted
// and per-tenant counts), so the scalar methods cost nothing. Each family
// of parameterized quantities is one routine in analysis.cc, walked per
// call: windowed shares of the arrivals (MinNormalizedGoodput,
// MaxWindowDropRate), binned share series (NormalizedGoodputSeries,
// TransientDropRateSeries), per-module means over executed hops and
// per-request sums over executed hops. Every floating-point sum runs in log
// order, then module order.
#ifndef PARD_METRICS_ANALYSIS_H_
#define PARD_METRICS_ANALYSIS_H_

#include <vector>

#include "pipeline/pipeline_spec.h"
#include "pipeline/tenant_spec.h"
#include "runtime/request.h"
#include "stats/empirical_distribution.h"

namespace pard {

struct SeriesPoint {
  SimTime t;
  double value;
};

// Per-tenant slice of a multi-tenant run's accounting (metrics/report.cc
// serializes it into the report's "tenants" block). `drop_reasons` has
// size kNumDropReasons and its non-zero entries sum to `dropped` — the
// same conservation invariant as the run-wide counts, pinned per tenant by
// tests/tenant_test.cc. The tenant's weight is in the run's catalog.
struct TenantBreakdown {
  std::size_t total = 0;
  std::size_t good = 0;
  std::size_t dropped = 0;
  std::vector<std::size_t> drop_reasons;

  double NormalizedGoodput() const {
    return total == 0 ? 0.0 : static_cast<double>(good) / static_cast<double>(total);
  }
};

class RunAnalysis {
 public:
  // `tenants` is the catalog the run used (RuntimeOptions::tenants), empty
  // for an untenanted run; request tenant tags index it, and a tag outside
  // a non-empty catalog throws CheckError.
  RunAnalysis(std::vector<RequestPtr> requests, const PipelineSpec& spec,
              std::vector<TenantSpec> tenants = {});

  // --- Scalar summaries ----------------------------------------------------
  std::size_t Total() const { return requests_.size(); }
  // Completed within SLO.
  std::size_t GoodCount() const { return good_; }
  // Policy drops + late completions (§5.1).
  std::size_t DroppedCount() const { return dropped_; }
  // Dropped-request counts by attributed DropReason, indexed by the enum
  // value (size kNumDropReasons). Index 0 (kNone) counts dropped requests
  // that lost attribution — always 0 when the runtimes behave (conservation:
  // the non-zero indices sum exactly to DroppedCount()).
  std::vector<std::size_t> DropReasonCounts() const { return drop_reasons_; }

  // Fraction of requests counted as dropped.
  double DropRate() const;
  // GPU time attributed to dropped/late requests over total GPU time.
  double InvalidRate() const;
  // Goodput over the whole run, req/s.
  double MeanGoodput() const;
  // Mean goodput / mean input rate.
  double NormalizedGoodput() const;

  // --- Multi-tenant accounting ---------------------------------------------
  // One breakdown per tenant id (max tag + 1 entries, a tenant without
  // requests included); empty for untenanted runs. Requests without a tag
  // (tenant < 0) are excluded.
  std::vector<TenantBreakdown> PerTenant() const { return per_tenant_; }
  // Σ weight over good requests / over all requests, in log order, where a
  // request's weight is its tenant's in the catalog. Untenanted requests
  // weigh 1.0, so without a catalog these are the unweighted counts.
  double WeightedGoodCount() const { return weighted_good_; }
  double WeightedTotal() const { return weighted_total_; }
  // WeightedGoodCount / WeightedTotal — the weighted global objective the
  // tenant governor maximizes.
  double WeightedNormalizedGoodput() const;

  // Restrict analysis to requests *sent* within [begin, end] — used for the
  // burst-region panels of Fig. 10.
  RunAnalysis Slice(SimTime begin, SimTime end) const;

  // --- Windowed metrics (Fig. 2a/2b, Fig. 9) -------------------------------
  // Minimum over all sliding windows of size `window` of
  // (good completions in window) / (arrivals in window).
  double MinNormalizedGoodput(Duration window) const;
  // Maximum over all sliding windows of the window drop rate.
  double MaxWindowDropRate(Duration window) const;

  // --- Time series ----------------------------------------------------------
  // Normalized goodput per bin: good(bin)/arrivals(bin), keyed by send time.
  std::vector<SeriesPoint> NormalizedGoodputSeries(Duration bin) const;
  // Transient drop rate per bin (drops keyed by send time) — Fig. 2d.
  std::vector<SeriesPoint> TransientDropRateSeries(Duration bin) const;

  // --- Structural metrics ---------------------------------------------------
  // Fraction of dropped requests dropped at each module (late completions
  // count at the sink). Sums to 1 when any request dropped.
  std::vector<double> PerModuleDropShare() const;
  // Mean queueing delay per module (us) over requests that entered a batch.
  std::vector<double> MeanQueueDelayPerModule() const;
  // Mean consumed latency budget per module (arrive..exec_end, us) for
  // SLO-compliant requests — Fig. 12a.
  std::vector<double> MeanConsumedBudgetPerModule() const;
  // Per-module mean queueing delay restricted to requests sent in
  // [begin, end] (Fig. 12c burst panels).
  std::vector<double> MeanQueueDelayPerModule(SimTime begin, SimTime end) const;

  // Distributions of per-request total queueing delay, batch wait and
  // execution duration over executed hops (Fig. 12b).
  EmpiricalDistribution SumQueueDistribution() const;
  EmpiricalDistribution SumWaitDistribution() const;
  EmpiricalDistribution SumExecDistribution() const;

  // Remaining latency budget (us) at batch entry of `module_id` for up to
  // `count` consecutive requests starting at arrival index `offset`
  // (Fig. 12d).
  std::vector<double> RemainingBudgetAt(int module_id, std::size_t count,
                                        std::size_t offset = 0) const;

  const std::vector<RequestPtr>& requests() const { return requests_; }

 private:
  std::vector<RequestPtr> requests_;
  PipelineSpec spec_;
  std::vector<TenantSpec> tenants_;

  // Run-wide tallies from the constructor's pass over the log.
  std::size_t good_ = 0;
  std::size_t dropped_ = 0;
  std::vector<std::size_t> drop_reasons_;
  std::vector<std::size_t> module_drops_;  // Late completions count at the sink.
  Duration gpu_time_ = 0;
  Duration dropped_gpu_time_ = 0;
  SimTime span_begin_ = 0;  // Earliest send; 0 for an empty run.
  SimTime span_end_ = 0;    // Latest send or finish.
  double weighted_good_ = 0.0;
  double weighted_total_ = 0.0;
  std::vector<TenantBreakdown> per_tenant_;
};

}  // namespace pard

#endif  // PARD_METRICS_ANALYSIS_H_
