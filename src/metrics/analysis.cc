#include "metrics/analysis.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pard {
namespace {

// Bins a set of timestamps into counts of width `bin` starting at `begin`.
std::vector<int> BinCounts(const std::vector<SimTime>& times, SimTime begin, SimTime end,
                           Duration bin) {
  const std::size_t n = static_cast<std::size_t>((end - begin) / bin) + 1;
  std::vector<int> counts(n, 0);
  for (SimTime t : times) {
    if (t < begin || t > end) {
      continue;
    }
    ++counts[static_cast<std::size_t>((t - begin) / bin)];
  }
  return counts;
}

}  // namespace

RunAnalysis::RunAnalysis(std::vector<RequestPtr> requests, const PipelineSpec& spec)
    : requests_(std::move(requests)), spec_(spec) {}

std::size_t RunAnalysis::GoodCount() const {
  std::size_t n = 0;
  for (const RequestPtr& r : requests_) {
    n += r->Good() ? 1 : 0;
  }
  return n;
}

std::size_t RunAnalysis::DroppedCount() const {
  std::size_t n = 0;
  for (const RequestPtr& r : requests_) {
    n += r->CountsDropped() ? 1 : 0;
  }
  return n;
}

std::vector<std::size_t> RunAnalysis::DropReasonCounts() const {
  std::vector<std::size_t> counts(static_cast<std::size_t>(kNumDropReasons), 0);
  for (const RequestPtr& r : requests_) {
    if (r->CountsDropped()) {
      ++counts[static_cast<std::size_t>(r->drop_reason)];
    }
  }
  return counts;
}

double RunAnalysis::DropRate() const {
  if (requests_.empty()) {
    return 0.0;
  }
  return static_cast<double>(DroppedCount()) / static_cast<double>(requests_.size());
}

double RunAnalysis::InvalidRate() const {
  Duration total = 0;
  Duration invalid = 0;
  for (const RequestPtr& r : requests_) {
    const Duration gpu = r->TotalGpuTime();
    total += gpu;
    if (r->CountsDropped()) {
      invalid += gpu;
    }
  }
  if (total == 0) {
    return 0.0;
  }
  return static_cast<double>(invalid) / static_cast<double>(total);
}

SimTime RunAnalysis::SpanBegin() const {
  SimTime begin = kSimTimeMax;
  for (const RequestPtr& r : requests_) {
    begin = std::min(begin, r->sent);
  }
  return begin == kSimTimeMax ? 0 : begin;
}

SimTime RunAnalysis::SpanEnd() const {
  SimTime end = 0;
  for (const RequestPtr& r : requests_) {
    end = std::max(end, std::max(r->sent, r->finish));
  }
  return end;
}

double RunAnalysis::MeanGoodput() const {
  if (requests_.empty()) {
    return 0.0;
  }
  const double span = UsToSec(std::max<Duration>(SpanEnd() - SpanBegin(), 1));
  return static_cast<double>(GoodCount()) / span;
}

double RunAnalysis::NormalizedGoodput() const {
  if (requests_.empty()) {
    return 0.0;
  }
  return static_cast<double>(GoodCount()) / static_cast<double>(requests_.size());
}

std::vector<TenantBreakdown> RunAnalysis::PerTenant() const {
  int num_tenants = 0;
  for (const RequestPtr& r : requests_) {
    num_tenants = std::max(num_tenants, r->tenant + 1);
  }
  std::vector<TenantBreakdown> tenants(static_cast<std::size_t>(num_tenants));
  for (TenantBreakdown& t : tenants) {
    t.drop_reasons.assign(static_cast<std::size_t>(kNumDropReasons), 0);
  }
  for (const RequestPtr& r : requests_) {
    if (r->tenant < 0) {
      continue;
    }
    TenantBreakdown& t = tenants[static_cast<std::size_t>(r->tenant)];
    ++t.total;
    t.weight = r->weight;
    if (r->Good()) {
      ++t.good;
    } else if (r->CountsDropped()) {
      ++t.dropped;
      ++t.drop_reasons[static_cast<std::size_t>(r->drop_reason)];
    }
  }
  return tenants;
}

double RunAnalysis::WeightedGoodCount() const {
  double sum = 0.0;
  for (const RequestPtr& r : requests_) {
    if (r->Good()) {
      sum += r->weight;
    }
  }
  return sum;
}

double RunAnalysis::WeightedTotal() const {
  double sum = 0.0;
  for (const RequestPtr& r : requests_) {
    sum += r->weight;
  }
  return sum;
}

double RunAnalysis::WeightedNormalizedGoodput() const {
  const double total = WeightedTotal();
  return total == 0.0 ? 0.0 : WeightedGoodCount() / total;
}

RunAnalysis RunAnalysis::Slice(SimTime begin, SimTime end) const {
  std::vector<RequestPtr> slice;
  for (const RequestPtr& r : requests_) {
    if (r->sent >= begin && r->sent <= end) {
      slice.push_back(r);
    }
  }
  return RunAnalysis(std::move(slice), spec_);
}

double RunAnalysis::MinNormalizedGoodput(Duration window) const {
  PARD_CHECK(window > 0);
  if (requests_.empty()) {
    return 0.0;
  }
  const SimTime begin = SpanBegin();
  const SimTime end = SpanEnd();
  std::vector<SimTime> sent;
  std::vector<SimTime> good_sent;
  sent.reserve(requests_.size());
  for (const RequestPtr& r : requests_) {
    sent.push_back(r->sent);
    if (r->Good()) {
      good_sent.push_back(r->sent);
    }
  }
  // Slide at half-window granularity over send times.
  const Duration step = std::max<Duration>(window / 2, 1);
  const std::vector<int> arrivals = BinCounts(sent, begin, end, step);
  const std::vector<int> good = BinCounts(good_sent, begin, end, step);
  // Windows wider than the run degenerate to the whole-span ratio.
  const std::size_t bins_per_window = std::min(
      arrivals.size(),
      std::max<std::size_t>(1, static_cast<std::size_t>(window / step)));
  double min_ratio = 1.0;
  for (std::size_t i = 0; i + bins_per_window <= arrivals.size(); ++i) {
    int a = 0;
    int g = 0;
    for (std::size_t j = i; j < i + bins_per_window; ++j) {
      a += arrivals[j];
      g += good[j];
    }
    if (a > 0) {
      min_ratio = std::min(min_ratio, static_cast<double>(g) / static_cast<double>(a));
    }
  }
  return min_ratio;
}

double RunAnalysis::MaxWindowDropRate(Duration window) const {
  PARD_CHECK(window > 0);
  if (requests_.empty()) {
    return 0.0;
  }
  const SimTime begin = SpanBegin();
  const SimTime end = SpanEnd();
  std::vector<SimTime> sent;
  std::vector<SimTime> dropped_sent;
  for (const RequestPtr& r : requests_) {
    sent.push_back(r->sent);
    if (r->CountsDropped()) {
      dropped_sent.push_back(r->sent);
    }
  }
  const Duration step = std::max<Duration>(window / 2, 1);
  const std::vector<int> arrivals = BinCounts(sent, begin, end, step);
  const std::vector<int> dropped = BinCounts(dropped_sent, begin, end, step);
  const std::size_t bins_per_window = std::min(
      arrivals.size(),
      std::max<std::size_t>(1, static_cast<std::size_t>(window / step)));
  double max_ratio = 0.0;
  for (std::size_t i = 0; i + bins_per_window <= arrivals.size(); ++i) {
    int a = 0;
    int d = 0;
    for (std::size_t j = i; j < i + bins_per_window; ++j) {
      a += arrivals[j];
      d += dropped[j];
    }
    if (a > 0) {
      max_ratio = std::max(max_ratio, static_cast<double>(d) / static_cast<double>(a));
    }
  }
  return max_ratio;
}

std::vector<SeriesPoint> RunAnalysis::GoodputSeries(Duration bin) const {
  PARD_CHECK(bin > 0);
  std::vector<SimTime> finish;
  for (const RequestPtr& r : requests_) {
    if (r->Good()) {
      finish.push_back(r->finish);
    }
  }
  const SimTime begin = SpanBegin();
  const SimTime end = SpanEnd();
  std::vector<SeriesPoint> out;
  if (requests_.empty()) {
    return out;
  }
  const std::vector<int> counts = BinCounts(finish, begin, end, bin);
  out.reserve(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    out.push_back(SeriesPoint{begin + static_cast<SimTime>(i) * bin,
                              static_cast<double>(counts[i]) / UsToSec(bin)});
  }
  return out;
}

std::vector<SeriesPoint> RunAnalysis::NormalizedGoodputSeries(Duration bin) const {
  PARD_CHECK(bin > 0);
  if (requests_.empty()) {
    return {};
  }
  const SimTime begin = SpanBegin();
  const SimTime end = SpanEnd();
  std::vector<SimTime> sent;
  std::vector<SimTime> good_sent;
  for (const RequestPtr& r : requests_) {
    sent.push_back(r->sent);
    if (r->Good()) {
      good_sent.push_back(r->sent);
    }
  }
  const std::vector<int> arrivals = BinCounts(sent, begin, end, bin);
  const std::vector<int> good = BinCounts(good_sent, begin, end, bin);
  std::vector<SeriesPoint> out;
  out.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const double value =
        arrivals[i] > 0 ? static_cast<double>(good[i]) / static_cast<double>(arrivals[i]) : 1.0;
    out.push_back(SeriesPoint{begin + static_cast<SimTime>(i) * bin, value});
  }
  return out;
}

std::vector<SeriesPoint> RunAnalysis::TransientDropRateSeries(Duration bin) const {
  PARD_CHECK(bin > 0);
  if (requests_.empty()) {
    return {};
  }
  const SimTime begin = SpanBegin();
  const SimTime end = SpanEnd();
  std::vector<SimTime> sent;
  std::vector<SimTime> dropped_sent;
  for (const RequestPtr& r : requests_) {
    sent.push_back(r->sent);
    if (r->CountsDropped()) {
      dropped_sent.push_back(r->sent);
    }
  }
  const std::vector<int> arrivals = BinCounts(sent, begin, end, bin);
  const std::vector<int> dropped = BinCounts(dropped_sent, begin, end, bin);
  std::vector<SeriesPoint> out;
  out.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const double value =
        arrivals[i] > 0 ? static_cast<double>(dropped[i]) / static_cast<double>(arrivals[i]) : 0.0;
    out.push_back(SeriesPoint{begin + static_cast<SimTime>(i) * bin, value});
  }
  return out;
}

std::vector<double> RunAnalysis::PerModuleDropShare() const {
  const int n = spec_.NumModules();
  std::vector<double> share(static_cast<std::size_t>(n), 0.0);
  std::size_t total = 0;
  for (const RequestPtr& r : requests_) {
    if (!r->CountsDropped()) {
      continue;
    }
    ++total;
    const int module = r->fate == RequestFate::kDropped ? r->drop_module : spec_.SinkModule();
    share[static_cast<std::size_t>(module)] += 1.0;
  }
  if (total > 0) {
    for (double& s : share) {
      s /= static_cast<double>(total);
    }
  }
  return share;
}

std::vector<double> RunAnalysis::MeanQueueDelayPerModule() const {
  return MeanQueueDelayPerModule(0, kSimTimeMax);
}

std::vector<double> RunAnalysis::MeanQueueDelayPerModule(SimTime begin, SimTime end) const {
  const int n = spec_.NumModules();
  std::vector<double> sum(static_cast<std::size_t>(n), 0.0);
  std::vector<std::size_t> count(static_cast<std::size_t>(n), 0);
  for (const RequestPtr& r : requests_) {
    if (r->sent < begin || r->sent > end) {
      continue;
    }
    for (int m = 0; m < n; ++m) {
      const HopRecord& hop = r->hops[static_cast<std::size_t>(m)];
      // Executed hops only: requests dropped at the pull point would skew
      // the congestion measure with their (unbounded) doomed waits.
      if (hop.executed) {
        sum[static_cast<std::size_t>(m)] += static_cast<double>(hop.QueueDelay());
        ++count[static_cast<std::size_t>(m)];
      }
    }
  }
  std::vector<double> mean(static_cast<std::size_t>(n), 0.0);
  for (int m = 0; m < n; ++m) {
    if (count[static_cast<std::size_t>(m)] > 0) {
      mean[static_cast<std::size_t>(m)] =
          sum[static_cast<std::size_t>(m)] / static_cast<double>(count[static_cast<std::size_t>(m)]);
    }
  }
  return mean;
}

std::vector<double> RunAnalysis::MeanConsumedBudgetPerModule() const {
  const int n = spec_.NumModules();
  std::vector<double> sum(static_cast<std::size_t>(n), 0.0);
  std::vector<std::size_t> count(static_cast<std::size_t>(n), 0);
  for (const RequestPtr& r : requests_) {
    if (!r->Good()) {
      continue;
    }
    for (int m = 0; m < n; ++m) {
      const HopRecord& hop = r->hops[static_cast<std::size_t>(m)];
      if (hop.executed) {
        sum[static_cast<std::size_t>(m)] += static_cast<double>(hop.exec_end - hop.arrive);
        ++count[static_cast<std::size_t>(m)];
      }
    }
  }
  std::vector<double> mean(static_cast<std::size_t>(n), 0.0);
  for (int m = 0; m < n; ++m) {
    if (count[static_cast<std::size_t>(m)] > 0) {
      mean[static_cast<std::size_t>(m)] =
          sum[static_cast<std::size_t>(m)] / static_cast<double>(count[static_cast<std::size_t>(m)]);
    }
  }
  return mean;
}

EmpiricalDistribution RunAnalysis::SumQueueDistribution() const {
  std::vector<double> sums;
  for (const RequestPtr& r : requests_) {
    double total = 0.0;
    bool any = false;
    for (const HopRecord& hop : r->hops) {
      if (hop.executed) {
        total += static_cast<double>(hop.QueueDelay());
        any = true;
      }
    }
    if (any) {
      sums.push_back(total);
    }
  }
  return EmpiricalDistribution(std::move(sums));
}

EmpiricalDistribution RunAnalysis::SumWaitDistribution() const {
  std::vector<double> sums;
  for (const RequestPtr& r : requests_) {
    double total = 0.0;
    bool any = false;
    for (const HopRecord& hop : r->hops) {
      if (hop.executed) {
        total += static_cast<double>(hop.BatchWait());
        any = true;
      }
    }
    if (any) {
      sums.push_back(total);
    }
  }
  return EmpiricalDistribution(std::move(sums));
}

EmpiricalDistribution RunAnalysis::SumExecDistribution() const {
  std::vector<double> sums;
  for (const RequestPtr& r : requests_) {
    double total = 0.0;
    bool any = false;
    for (const HopRecord& hop : r->hops) {
      if (hop.executed) {
        total += static_cast<double>(hop.ExecDuration());
        any = true;
      }
    }
    if (any) {
      sums.push_back(total);
    }
  }
  return EmpiricalDistribution(std::move(sums));
}

std::vector<double> RunAnalysis::RemainingBudgetAt(int module_id, std::size_t count,
                                                   std::size_t offset) const {
  PARD_CHECK(module_id >= 0 && module_id < spec_.NumModules());
  // Order by batch entry at the module.
  std::vector<std::pair<SimTime, double>> entries;
  for (const RequestPtr& r : requests_) {
    const HopRecord& hop = r->hops[static_cast<std::size_t>(module_id)];
    if (hop.batch_entry >= 0) {
      entries.emplace_back(hop.batch_entry,
                           static_cast<double>(r->RemainingBudget(hop.batch_entry)));
    }
  }
  std::sort(entries.begin(), entries.end());
  std::vector<double> out;
  for (std::size_t i = offset; i < entries.size() && out.size() < count; ++i) {
    out.push_back(entries[i].second);
  }
  return out;
}

}  // namespace pard
