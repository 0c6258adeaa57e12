#include "metrics/report.h"

#include <utility>

#include "common/string_util.h"

namespace pard {
namespace {

JsonValue QuantileObject(const EmpiricalDistribution& dist, const std::vector<double>& qs) {
  JsonObject obj;
  for (double q : qs) {
    obj[StrFormat("p%g", q * 100.0)] = dist.Quantile(q) / 1000.0;  // -> ms
  }
  return JsonValue(std::move(obj));
}

}  // namespace

JsonValue BuildRunReport(const RunAnalysis& analysis, const ReportOptions& options) {
  JsonObject report;

  JsonObject summary;
  summary["total"] = static_cast<std::int64_t>(analysis.Total());
  summary["good"] = static_cast<std::int64_t>(analysis.GoodCount());
  summary["dropped"] = static_cast<std::int64_t>(analysis.DroppedCount());
  summary["drop_rate"] = analysis.DropRate();
  summary["invalid_rate"] = analysis.InvalidRate();
  summary["mean_goodput_rps"] = analysis.MeanGoodput();
  summary["normalized_goodput"] = analysis.NormalizedGoodput();
  // Drop-reason breakdown: per-reason counts that sum exactly to
  // summary.dropped (conservation; "none" flags unattributed drops — a bug).
  {
    const std::vector<std::size_t> reasons = analysis.DropReasonCounts();
    JsonObject breakdown;
    for (int r = 0; r < kNumDropReasons; ++r) {
      const std::size_t count = reasons[static_cast<std::size_t>(r)];
      if (r == 0 && count == 0) {
        continue;  // Omit the healthy "none: 0" entry.
      }
      breakdown[DropReasonName(static_cast<DropReason>(r))] =
          static_cast<std::int64_t>(count);
    }
    summary["drop_reasons"] = std::move(breakdown);
  }
  report["summary"] = std::move(summary);

  JsonObject per_module;
  JsonArray drop_share;
  for (double s : analysis.PerModuleDropShare()) {
    drop_share.emplace_back(s);
  }
  per_module["drop_share"] = std::move(drop_share);
  JsonArray queue_delay;
  for (double v : analysis.MeanQueueDelayPerModule()) {
    queue_delay.emplace_back(v / 1000.0);
  }
  per_module["mean_queue_delay_ms"] = std::move(queue_delay);
  JsonArray consumed;
  for (double v : analysis.MeanConsumedBudgetPerModule()) {
    consumed.emplace_back(v / 1000.0);
  }
  per_module["mean_consumed_budget_ms"] = std::move(consumed);
  report["per_module"] = std::move(per_module);

  JsonObject latency;
  const EmpiricalDistribution sum_q = analysis.SumQueueDistribution();
  const EmpiricalDistribution sum_w = analysis.SumWaitDistribution();
  const EmpiricalDistribution sum_d = analysis.SumExecDistribution();
  latency["sum_queue_ms"] = QuantileObject(sum_q, options.quantiles);
  latency["sum_wait_ms"] = QuantileObject(sum_w, options.quantiles);
  latency["sum_exec_ms"] = QuantileObject(sum_d, options.quantiles);
  report["latency"] = std::move(latency);

  if (options.include_series) {
    JsonObject series;
    JsonArray t_s;
    JsonArray goodput;
    JsonArray drop_rate;
    for (const SeriesPoint& p : analysis.NormalizedGoodputSeries(options.series_bin)) {
      t_s.emplace_back(UsToSec(p.t));
      goodput.emplace_back(p.value);
    }
    for (const SeriesPoint& p : analysis.TransientDropRateSeries(options.series_bin)) {
      drop_rate.emplace_back(p.value);
    }
    series["t_s"] = std::move(t_s);
    series["normalized_goodput"] = std::move(goodput);
    series["drop_rate"] = std::move(drop_rate);
    report["series"] = std::move(series);
  }

  return JsonValue(std::move(report));
}

JsonValue BuildTenantReport(const RunAnalysis& analysis,
                            const std::vector<TenantSpec>& catalog) {
  const std::vector<TenantBreakdown> tenants = analysis.PerTenant();
  JsonObject block;
  block["count"] = static_cast<std::int64_t>(catalog.size());
  block["weighted_normalized_goodput"] = analysis.WeightedNormalizedGoodput();
  JsonArray per_tenant;
  for (std::size_t t = 0; t < catalog.size(); ++t) {
    const TenantSpec& spec = catalog[t];
    // A tenant may legally see zero requests on a short run; PerTenant()
    // only sizes up to the highest tag actually seen.
    static const TenantBreakdown kEmpty{};
    const TenantBreakdown& b = t < tenants.size() ? tenants[t] : kEmpty;
    JsonObject row;
    row["name"] = spec.name;
    row["weight"] = spec.weight;
    row["share"] = spec.share;
    row["total"] = static_cast<std::int64_t>(b.total);
    row["good"] = static_cast<std::int64_t>(b.good);
    row["dropped"] = static_cast<std::int64_t>(b.dropped);
    row["normalized_goodput"] = b.NormalizedGoodput();
    // Fraction of this tenant's offered requests NOT shed at ingress — the
    // fairness-floor observable (>= admit_floor up to hash quantization).
    const std::size_t shed =
        b.drop_reasons.empty()
            ? 0
            : b.drop_reasons[static_cast<std::size_t>(DropReason::kTenantShed)];
    row["admit_rate"] =
        b.total == 0 ? 1.0
                     : 1.0 - static_cast<double>(shed) / static_cast<double>(b.total);
    JsonObject breakdown;
    for (int r = 0; r < kNumDropReasons && !b.drop_reasons.empty(); ++r) {
      const std::size_t count = b.drop_reasons[static_cast<std::size_t>(r)];
      if (count == 0) {
        continue;  // Per-tenant rows omit zero reasons to stay compact.
      }
      breakdown[DropReasonName(static_cast<DropReason>(r))] =
          static_cast<std::int64_t>(count);
    }
    row["drop_reasons"] = std::move(breakdown);
    per_tenant.emplace_back(std::move(row));
  }
  block["per_tenant"] = std::move(per_tenant);
  return JsonValue(std::move(block));
}

}  // namespace pard
