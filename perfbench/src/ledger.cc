#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <tuple>

#include "models/registry.h"
#include "obs/drop_reason.h"
#include "runtime/backend_fleet.h"

namespace perfbench {

namespace {

// The per-layer schema names modules m0..m4 (both pipelines have five);
// a shorter pipeline reports zeros for the missing ids.
constexpr int kLedgerModules = 5;

// ServeClock truncates when converting between virtual and wall time, so a
// request can be stamped up to 1 virtual us before its due time.
constexpr pard::SimTime kClockSlackUs = 1;

constexpr double kUsPerMs = 1e3;

bool FinishedPipeline(const pard::Request& req) {
  return req.fate == pard::RequestFate::kCompleted ||
         (req.fate == pard::RequestFate::kLate &&
          req.drop_reason == pard::DropReason::kSloLate);
}

void PutQuantiles(MetricMap& out, const std::string& prefix, std::vector<double> values,
                  bool p99 = true) {
  std::sort(values.begin(), values.end());
  out[prefix + "_p50"] = Quantile(values, 0.5);
  if (p99) {
    out[prefix + "_p99"] = Quantile(values, 0.99);
  }
}

// Size of each batch in a group of `hops` hops that share one (exec_start,
// exec_end, gpu_time): gpu_time is the batch's duration divided by its size,
// which separates batches that two workers started and ended together.
int BatchSize(pard::Duration duration, pard::Duration gpu_time, std::size_t hops) {
  if (gpu_time > 0) {
    const auto guess = static_cast<std::int64_t>(
        std::llround(static_cast<double>(duration) / static_cast<double>(gpu_time)));
    for (std::int64_t c = std::max<std::int64_t>(1, guess - 1); c <= guess + 1; ++c) {
      if (duration / c == gpu_time && hops % static_cast<std::size_t>(c) == 0) {
        return static_cast<int>(c);
      }
    }
  }
  return static_cast<int>(hops);
}

struct ModuleLedger {
  std::vector<double> queue_ms;
  std::vector<double> wait_ms;
  std::vector<double> exec_ms;       // Per rebuilt batch.
  std::vector<double> overshoot_ms;  // Per rebuilt batch: measured - planned.
  double batched_requests = 0.0;
};

ModuleLedger BuildModuleLedger(const Rep& rep, int k, bool simulator, Checks& checks) {
  ModuleLedger ledger;
  const auto idx = static_cast<std::size_t>(k);
  std::vector<std::tuple<pard::SimTime, pard::SimTime, pard::Duration>> stamps;
  for (const pard::RequestPtr& req : rep.requests) {
    const pard::HopRecord& hop = req->hops[idx];
    if (!hop.executed) {
      continue;
    }
    ledger.queue_ms.push_back(static_cast<double>(hop.QueueDelay()) / kUsPerMs);
    ledger.wait_ms.push_back(static_cast<double>(hop.BatchWait()) / kUsPerMs);
    stamps.emplace_back(hop.exec_start, hop.exec_end, hop.gpu_time);
  }
  std::sort(stamps.begin(), stamps.end());

  const pard::ModelProfile& profile = pard::ProfileRegistry::Get(rep.spec.Module(k).model);
  std::vector<double> scales = rep.exec_scales[idx];
  if (scales.empty()) {
    scales.push_back(1.0);
  }
  std::size_t overshooting = 0;
  for (std::size_t i = 0; i < stamps.size();) {
    std::size_t j = i;
    while (j < stamps.size() && stamps[j] == stamps[i]) {
      ++j;
    }
    const auto [start, end, gpu_time] = stamps[i];
    const pard::Duration measured = end - start;
    const int size = BatchSize(measured, gpu_time, j - i);
    // The hop does not name its worker, so take the provisioned slot scale
    // whose plan is nearest the measurement (one scale on a uniform fleet).
    pard::Duration planned = 0;
    pard::Duration best_gap = std::numeric_limits<pard::Duration>::max();
    for (double scale : scales) {
      const pard::Duration candidate =
          pard::ScaleBatchDuration(profile.BatchDuration(size), scale);
      const pard::Duration gap = std::llabs(measured - candidate);
      if (gap < best_gap) {
        best_gap = gap;
        planned = candidate;
      }
    }
    for (std::size_t b = 0; b < (j - i) / static_cast<std::size_t>(size); ++b) {
      ledger.exec_ms.push_back(static_cast<double>(measured) / kUsPerMs);
      ledger.overshoot_ms.push_back(static_cast<double>(measured - planned) / kUsPerMs);
      ledger.batched_requests += size;
      overshooting += measured != planned ? 1 : 0;
    }
    i = j;
  }
  if (simulator && overshooting > 0) {
    checks.Fail("module m" + std::to_string(k) + ": " + std::to_string(overshooting) +
                " simulated batches ran longer or shorter than planned");
  }
  return ledger;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  if (!std::is_sorted(values.begin(), values.end())) {
    std::sort(values.begin(), values.end());
  }
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

EndToEnd ComputeEndToEnd(const Rep& rep) {
  EndToEnd e;
  e.total = rep.requests.size();
  std::vector<double> latency_ms;
  latency_ms.reserve(e.total);
  for (std::size_t i = 0; i < rep.requests.size(); ++i) {
    const pard::Request& req = *rep.requests[i];
    if (!FinishedPipeline(req)) {
      continue;
    }
    const pard::Duration latency = req.finish - rep.scheduled[i];
    latency_ms.push_back(static_cast<double>(latency) / kUsPerMs);
    if (req.fate == pard::RequestFate::kCompleted && latency <= req.slo) {
      ++e.good;
    }
  }
  e.goodput_norm = e.total == 0 ? 0.0 : static_cast<double>(e.good) / static_cast<double>(e.total);
  e.latency_samples = latency_ms.size();
  std::sort(latency_ms.begin(), latency_ms.end());
  e.latency_p50_ms = Quantile(latency_ms, 0.5);
  e.latency_p99_ms = Quantile(latency_ms, 0.99);
  return e;
}

void CheckRep(const Rep& rep, bool simulator, Checks& checks) {
  const std::size_t total = rep.requests.size();
  if (total != rep.scheduled.size()) {
    checks.Fail("runtime recorded " + std::to_string(total) + " requests for " +
                std::to_string(rep.scheduled.size()) + " scheduled sends");
    return;
  }
  std::uint64_t not_terminal = 0;
  std::uint64_t early = 0;
  std::uint64_t bad_reason = 0;
  std::uint64_t non_monotone = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const pard::Request& req = *rep.requests[i];
    bool bad = false;
    if (!req.Terminal()) {
      ++not_terminal;
      bad = true;
    }
    const bool on_time = simulator ? req.sent == rep.scheduled[i]
                                   : req.sent + kClockSlackUs >= rep.scheduled[i];
    if (!on_time) {
      ++early;
      bad = true;
    }
    if ((req.drop_reason == pard::DropReason::kNone) != !req.CountsDropped()) {
      ++bad_reason;
      bad = true;
    }
    for (const pard::HopRecord& hop : req.hops) {
      const bool monotone =
          (hop.batch_entry < 0 || hop.arrive <= hop.batch_entry) &&
          (hop.exec_start < 0 || (hop.batch_entry >= 0 && hop.batch_entry <= hop.exec_start)) &&
          (hop.exec_end < 0 || (hop.exec_start >= 0 && hop.exec_start <= hop.exec_end)) &&
          (!hop.executed || hop.exec_end >= 0);
      if (!monotone) {
        ++non_monotone;
        bad = true;
        break;
      }
    }
    checks.bad_requests += bad ? 1 : 0;
  }
  if (not_terminal > 0) {
    checks.Fail(std::to_string(not_terminal) + " requests not terminal");
  }
  if (early > 0) {
    checks.Fail(std::to_string(early) + " requests sent before their scheduled time");
  }
  if (bad_reason > 0) {
    checks.Fail(std::to_string(bad_reason) +
                " requests whose drop reason disagrees with their fate");
  }
  if (non_monotone > 0) {
    checks.Fail(std::to_string(non_monotone) + " requests with non-monotone hop stamps");
  }

  const Rep::Summary& s = rep.summary;
  if (s.good + s.dropped != total) {
    checks.Fail("good " + std::to_string(s.good) + " + dropped " + std::to_string(s.dropped) +
                " != total " + std::to_string(total));
  }
  std::size_t attributed = 0;
  for (std::size_t r = 1; r < s.drop_reasons.size(); ++r) {
    attributed += s.drop_reasons[r];
  }
  if (s.drop_reasons.empty() || s.drop_reasons[0] != 0 || attributed != s.dropped) {
    checks.Fail("drop reasons attribute " + std::to_string(attributed) + " of " +
                std::to_string(s.dropped) + " drops");
  }
  if (!rep.tenants.empty()) {
    std::size_t tenant_total = 0;
    for (const pard::TenantBreakdown& t : s.tenants) {
      tenant_total += t.total;
    }
    if (tenant_total != total) {
      checks.Fail("tenant totals sum to " + std::to_string(tenant_total) + " of " +
                  std::to_string(total));
    }
  }
  if (simulator && ComputeEndToEnd(rep).good != s.good) {
    checks.Fail("simulator good count differs between scheduled-time and program accounting");
  }
}

std::uint64_t Fingerprint(const Rep& rep) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a.
  const auto mix = [&h](std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const pard::RequestPtr& req : rep.requests) {
    mix(static_cast<std::int64_t>(req->fate));
    mix(req->finish);
    mix(static_cast<std::int64_t>(req->drop_reason));
    mix(req->drop_module);
    for (const pard::HopRecord& hop : req->hops) {
      mix(hop.arrive);
      mix(hop.batch_entry);
      mix(hop.exec_start);
      mix(hop.exec_end);
    }
  }
  return h;
}

MetricMap LayerLedger(const Rep& rep, bool simulator, Checks& checks) {
  MetricMap out;
  const double total = static_cast<double>(std::max<std::size_t>(1, rep.requests.size()));
  const int modules = rep.spec.NumModules();

  for (int k = 0; k < kLedgerModules; ++k) {
    const std::string prefix = "module.m" + std::to_string(k) + ".";
    ModuleLedger ledger;
    if (k < modules) {
      ledger = BuildModuleLedger(rep, k, simulator, checks);
    }
    PutQuantiles(out, prefix + "queue_ms", std::move(ledger.queue_ms));
    PutQuantiles(out, prefix + "batch_wait_ms", std::move(ledger.wait_ms));
    PutQuantiles(out, prefix + "exec_ms", std::move(ledger.exec_ms), /*p99=*/false);
    out[prefix + "batch_size_mean"] =
        ledger.overshoot_ms.empty()
            ? 0.0
            : ledger.batched_requests / static_cast<double>(ledger.overshoot_ms.size());
    PutQuantiles(out, prefix + "exec_overshoot_ms", std::move(ledger.overshoot_ms));
    const auto& share = rep.summary.module_drop_share;
    out[prefix + "drop_share"] =
        static_cast<std::size_t>(k) < share.size() ? share[static_cast<std::size_t>(k)] : 0.0;
  }

  // Per-request sums over the hops of requests that finished the pipeline.
  std::vector<double> queue;
  std::vector<double> wait;
  std::vector<double> exec;
  std::vector<double> handoff;
  std::vector<double> gen_late;
  std::vector<double> admit_lag;
  const auto source = static_cast<std::size_t>(rep.spec.SourceModule());
  for (std::size_t i = 0; i < rep.requests.size(); ++i) {
    const pard::Request& req = *rep.requests[i];
    gen_late.push_back(static_cast<double>(req.sent - rep.scheduled[i]) / kUsPerMs);
    if (req.hops[source].arrive >= 0) {
      admit_lag.push_back(static_cast<double>(req.hops[source].arrive - req.sent) / kUsPerMs);
    }
    if (!FinishedPipeline(req)) {
      continue;
    }
    pard::Duration q = 0;
    pard::Duration w = 0;
    pard::Duration e = 0;
    pard::Duration h = 0;
    for (int k = 0; k < modules; ++k) {
      const pard::HopRecord& hop = req.hops[static_cast<std::size_t>(k)];
      if (!hop.executed) {
        continue;
      }
      q += hop.QueueDelay();
      w += hop.BatchWait();
      e += hop.ExecDuration();
      pard::SimTime ready = -1;
      for (int pre : rep.spec.Module(k).pres) {
        ready = std::max(ready, req.hops[static_cast<std::size_t>(pre)].exec_end);
      }
      if (ready >= 0) {
        h += hop.arrive - ready;
      }
    }
    queue.push_back(static_cast<double>(q) / kUsPerMs);
    wait.push_back(static_cast<double>(w) / kUsPerMs);
    exec.push_back(static_cast<double>(e) / kUsPerMs);
    handoff.push_back(static_cast<double>(h) / kUsPerMs);
  }
  PutQuantiles(out, "path.queue_ms", std::move(queue));
  PutQuantiles(out, "path.batch_wait_ms", std::move(wait));
  PutQuantiles(out, "path.exec_ms", std::move(exec));
  PutQuantiles(out, "path.handoff_ms", std::move(handoff));

  std::sort(gen_late.begin(), gen_late.end());
  out["serve.ingress.gen_late_ms_max"] = gen_late.empty() ? 0.0 : gen_late.back();
  PutQuantiles(out, "serve.ingress.gen_late_ms", std::move(gen_late));
  PutQuantiles(out, "serve.ingress.admit_lag_ms", std::move(admit_lag));

  const auto& reasons = rep.summary.drop_reasons;
  const auto reason_share = [&](pard::DropReason r) {
    const auto idx = static_cast<std::size_t>(r);
    return idx < reasons.size() ? static_cast<double>(reasons[idx]) / total : 0.0;
  };
  for (pard::DropReason r :
       {pard::DropReason::kBrokerCandidate, pard::DropReason::kPurgeExpired,
        pard::DropReason::kProactiveAdmission, pard::DropReason::kSloLate,
        pard::DropReason::kTenantShed, pard::DropReason::kDrainAbandoned}) {
    out[std::string("drop.") + pard::DropReasonName(r) + ".share"] = reason_share(r);
  }
  out["exec.useful_gpu_share"] = 1.0 - rep.summary.invalid_rate;
  out["core.governor.shed_share"] = reason_share(pard::DropReason::kTenantShed);

  // Scheduled-time goodput per tenant of the reference catalog.
  std::vector<double> tenant_good(rep.tenants.size(), 0.0);
  std::vector<double> tenant_total(rep.tenants.size(), 0.0);
  for (std::size_t i = 0; i < rep.requests.size(); ++i) {
    const pard::Request& req = *rep.requests[i];
    if (req.tenant < 0 || static_cast<std::size_t>(req.tenant) >= rep.tenants.size()) {
      continue;
    }
    const auto t = static_cast<std::size_t>(req.tenant);
    tenant_total[t] += 1.0;
    if (req.fate == pard::RequestFate::kCompleted && req.finish - rep.scheduled[i] <= req.slo) {
      tenant_good[t] += 1.0;
    }
  }
  for (const char* name : {"platinum", "standard", "batch"}) {
    double goodput = 0.0;
    for (std::size_t t = 0; t < rep.tenants.size(); ++t) {
      if (rep.tenants[t].name == name && tenant_total[t] > 0) {
        goodput = tenant_good[t] / tenant_total[t];
      }
    }
    out[std::string("tenant.") + name + ".goodput_norm"] = goodput;
  }
  return out;
}

}  // namespace perfbench
