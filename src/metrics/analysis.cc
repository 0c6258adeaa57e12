#include "metrics/analysis.h"

#include <algorithm>
#include <functional>

#include "common/check.h"

namespace pard {
namespace {

// Per bin of width `width` from `begin`: the requests sent in it, and those
// of them that `pick` picks. Every send falls in [begin, end].
struct SendBins {
  std::vector<int> arrivals;
  std::vector<int> picked;
};

template <typename Pick>
SendBins BinBySend(const std::vector<RequestPtr>& requests, SimTime begin, SimTime end,
                   Duration width, Pick pick) {
  const std::size_t n = static_cast<std::size_t>((end - begin) / width) + 1;
  SendBins bins{std::vector<int>(n, 0), std::vector<int>(n, 0)};
  for (const RequestPtr& r : requests) {
    const std::size_t i = static_cast<std::size_t>((r->sent - begin) / width);
    ++bins.arrivals[i];
    bins.picked[i] += std::invoke(pick, *r) ? 1 : 0;
  }
  return bins;
}

// `better` folded from `init` over every sliding window of `window` across
// the run's sends: the share of the window's arrivals that `pick` picks.
// Windows without arrivals are skipped.
template <typename Pick, typename Better>
double WindowShare(const std::vector<RequestPtr>& requests, SimTime begin, SimTime end,
                   Duration window, Pick pick, double init, Better better) {
  PARD_CHECK(window > 0);
  if (requests.empty()) {
    return 0.0;
  }
  // Slide at half-window granularity over send times.
  const Duration step = std::max<Duration>(window / 2, 1);
  const SendBins bins = BinBySend(requests, begin, end, step, pick);
  const std::size_t n = bins.arrivals.size();
  // Windows wider than the run degenerate to the whole-span ratio.
  const std::size_t bins_per_window =
      std::min(n, std::max<std::size_t>(1, static_cast<std::size_t>(window / step)));
  double result = init;
  for (std::size_t i = 0; i + bins_per_window <= n; ++i) {
    int arrivals = 0;
    int picked = 0;
    for (std::size_t j = i; j < i + bins_per_window; ++j) {
      arrivals += bins.arrivals[j];
      picked += bins.picked[j];
    }
    if (arrivals > 0) {
      result = better(result, static_cast<double>(picked) / static_cast<double>(arrivals));
    }
  }
  return result;
}

// Per bin of width `bin` from the run's first send: the share of the bin's
// arrivals that `pick` picks, or `if_empty` for a bin without arrivals.
template <typename Pick>
std::vector<SeriesPoint> ShareSeries(const std::vector<RequestPtr>& requests, SimTime begin,
                                     SimTime end, Duration bin, Pick pick, double if_empty) {
  PARD_CHECK(bin > 0);
  if (requests.empty()) {
    return {};
  }
  const SendBins bins = BinBySend(requests, begin, end, bin, pick);
  std::vector<SeriesPoint> out;
  out.reserve(bins.arrivals.size());
  for (std::size_t i = 0; i < bins.arrivals.size(); ++i) {
    const double value = bins.arrivals[i] > 0 ? static_cast<double>(bins.picked[i]) /
                                                    static_cast<double>(bins.arrivals[i])
                                              : if_empty;
    out.push_back(SeriesPoint{begin + static_cast<SimTime>(i) * bin, value});
  }
  return out;
}

// Per module, the mean of `quantity` over the executed hops of the requests
// that `keep` keeps; 0 at a module where none executed. Executed hops only:
// requests dropped at the pull point would skew the congestion measure with
// their (unbounded) doomed waits.
template <typename Keep, typename Quantity>
std::vector<double> MeanOverExecutedHops(const std::vector<RequestPtr>& requests, int num_modules,
                                         Keep keep, Quantity quantity) {
  const std::size_t n = static_cast<std::size_t>(num_modules);
  std::vector<double> mean(n, 0.0);
  std::vector<std::size_t> count(n, 0);
  for (const RequestPtr& r : requests) {
    if (!std::invoke(keep, *r)) {
      continue;
    }
    for (std::size_t m = 0; m < n; ++m) {
      const HopRecord& hop = r->hops[m];
      if (hop.executed) {
        mean[m] += static_cast<double>(std::invoke(quantity, hop));
        ++count[m];
      }
    }
  }
  for (std::size_t m = 0; m < n; ++m) {
    if (count[m] > 0) {
      mean[m] /= static_cast<double>(count[m]);
    }
  }
  return mean;
}

// The distribution over requests with an executed hop of the sum of
// `quantity` over their executed hops.
template <typename Quantity>
EmpiricalDistribution SumOverExecutedHops(const std::vector<RequestPtr>& requests,
                                          Quantity quantity) {
  std::vector<double> sums;
  for (const RequestPtr& r : requests) {
    double total = 0.0;
    bool any = false;
    for (const HopRecord& hop : r->hops) {
      if (hop.executed) {
        total += static_cast<double>(std::invoke(quantity, hop));
        any = true;
      }
    }
    if (any) {
      sums.push_back(total);
    }
  }
  return EmpiricalDistribution(std::move(sums));
}

}  // namespace

RunAnalysis::RunAnalysis(std::vector<RequestPtr> requests, const PipelineSpec& spec,
                         std::vector<TenantSpec> tenants)
    : requests_(std::move(requests)),
      spec_(spec),
      tenants_(std::move(tenants)),
      drop_reasons_(static_cast<std::size_t>(kNumDropReasons), 0),
      module_drops_(static_cast<std::size_t>(spec_.NumModules()), 0) {
  // A tenant below the highest tag that sent nothing keeps this entry.
  TenantBreakdown no_requests;
  no_requests.drop_reasons.assign(static_cast<std::size_t>(kNumDropReasons), 0);
  SimTime begin = kSimTimeMax;
  for (const RequestPtr& r : requests_) {
    const bool good = r->Good();
    const bool dropped = r->CountsDropped();
    const Duration gpu = r->TotalGpuTime();
    const auto reason = static_cast<std::size_t>(r->drop_reason);
    begin = std::min(begin, r->sent);
    span_end_ = std::max(span_end_, std::max(r->sent, r->finish));
    gpu_time_ += gpu;
    good_ += good ? 1 : 0;
    if (dropped) {
      ++dropped_;
      ++drop_reasons_[reason];
      dropped_gpu_time_ += gpu;
      const int module = r->fate == RequestFate::kDropped ? r->drop_module : spec_.SinkModule();
      PARD_CHECK(module >= 0 && module < spec_.NumModules());
      ++module_drops_[static_cast<std::size_t>(module)];
    }

    double weight = 1.0;  // Untenanted, or a run without a catalog.
    if (r->tenant >= 0 && !tenants_.empty()) {
      PARD_CHECK(static_cast<std::size_t>(r->tenant) < tenants_.size());
      weight = tenants_[static_cast<std::size_t>(r->tenant)].weight;
    }
    weighted_total_ += weight;
    if (good) {
      weighted_good_ += weight;
    }

    if (r->tenant < 0) {
      continue;
    }
    const auto t = static_cast<std::size_t>(r->tenant);
    if (t >= per_tenant_.size()) {
      per_tenant_.resize(t + 1, no_requests);
    }
    TenantBreakdown& tenant = per_tenant_[t];
    ++tenant.total;
    if (good) {
      ++tenant.good;
    } else if (dropped) {
      ++tenant.dropped;
      ++tenant.drop_reasons[reason];
    }
  }
  span_begin_ = begin == kSimTimeMax ? 0 : begin;
}

double RunAnalysis::DropRate() const {
  if (requests_.empty()) {
    return 0.0;
  }
  return static_cast<double>(dropped_) / static_cast<double>(requests_.size());
}

double RunAnalysis::InvalidRate() const {
  if (gpu_time_ == 0) {
    return 0.0;
  }
  return static_cast<double>(dropped_gpu_time_) / static_cast<double>(gpu_time_);
}

double RunAnalysis::MeanGoodput() const {
  if (requests_.empty()) {
    return 0.0;
  }
  const double span = UsToSec(std::max<Duration>(span_end_ - span_begin_, 1));
  return static_cast<double>(good_) / span;
}

double RunAnalysis::NormalizedGoodput() const {
  if (requests_.empty()) {
    return 0.0;
  }
  return static_cast<double>(good_) / static_cast<double>(requests_.size());
}

double RunAnalysis::WeightedNormalizedGoodput() const {
  return weighted_total_ == 0.0 ? 0.0 : weighted_good_ / weighted_total_;
}

RunAnalysis RunAnalysis::Slice(SimTime begin, SimTime end) const {
  std::vector<RequestPtr> slice;
  for (const RequestPtr& r : requests_) {
    if (r->sent >= begin && r->sent <= end) {
      slice.push_back(r);
    }
  }
  return RunAnalysis(std::move(slice), spec_, tenants_);
}

double RunAnalysis::MinNormalizedGoodput(Duration window) const {
  return WindowShare(requests_, span_begin_, span_end_, window, &Request::Good, 1.0,
                     [](double a, double b) { return std::min(a, b); });
}

double RunAnalysis::MaxWindowDropRate(Duration window) const {
  return WindowShare(requests_, span_begin_, span_end_, window, &Request::CountsDropped, 0.0,
                     [](double a, double b) { return std::max(a, b); });
}

std::vector<SeriesPoint> RunAnalysis::NormalizedGoodputSeries(Duration bin) const {
  return ShareSeries(requests_, span_begin_, span_end_, bin, &Request::Good, 1.0);
}

std::vector<SeriesPoint> RunAnalysis::TransientDropRateSeries(Duration bin) const {
  return ShareSeries(requests_, span_begin_, span_end_, bin, &Request::CountsDropped, 0.0);
}

std::vector<double> RunAnalysis::PerModuleDropShare() const {
  std::vector<double> share(module_drops_.begin(), module_drops_.end());
  if (dropped_ > 0) {
    for (double& s : share) {
      s /= static_cast<double>(dropped_);
    }
  }
  return share;
}

std::vector<double> RunAnalysis::MeanQueueDelayPerModule() const {
  return MeanQueueDelayPerModule(0, kSimTimeMax);
}

std::vector<double> RunAnalysis::MeanQueueDelayPerModule(SimTime begin, SimTime end) const {
  return MeanOverExecutedHops(
      requests_, spec_.NumModules(),
      [begin, end](const Request& r) { return r.sent >= begin && r.sent <= end; },
      &HopRecord::QueueDelay);
}

std::vector<double> RunAnalysis::MeanConsumedBudgetPerModule() const {
  return MeanOverExecutedHops(requests_, spec_.NumModules(), &Request::Good,
                              [](const HopRecord& hop) { return hop.exec_end - hop.arrive; });
}

EmpiricalDistribution RunAnalysis::SumQueueDistribution() const {
  return SumOverExecutedHops(requests_, &HopRecord::QueueDelay);
}

EmpiricalDistribution RunAnalysis::SumWaitDistribution() const {
  return SumOverExecutedHops(requests_, &HopRecord::BatchWait);
}

EmpiricalDistribution RunAnalysis::SumExecDistribution() const {
  return SumOverExecutedHops(requests_, &HopRecord::ExecDuration);
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
