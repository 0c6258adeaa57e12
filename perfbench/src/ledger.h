// Output checks, scheduled-time end-to-end metrics and the per-layer
// latency ledger, all computed from a repetition's request records.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

using MetricMap = std::map<std::string, double>;

// Failed output checks. A run with any failure is reported incorrect and
// exits non-zero.
struct Checks {
  std::vector<std::string> failures;
  std::uint64_t bad_requests = 0;  // Requests that violated a per-request check.

  void Fail(const std::string& what) { failures.push_back(what); }
  bool ok() const { return failures.empty(); }
};

// Linear-interpolated quantile of unsorted `values` (0 when empty).
double Quantile(std::vector<double> values, double q);

// End-to-end metrics timed from each request's scheduled send time: a request
// is good iff it completed within its (tenant-scaled) SLO of when it was due.
struct EndToEnd {
  std::size_t total = 0;
  std::size_t good = 0;
  double goodput_norm = 0.0;
  std::size_t latency_samples = 0;  // Completed requests, good or late.
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
};
EndToEnd ComputeEndToEnd(const Rep& rep);

// Per-request and conservation checks: every request terminal, sent no
// earlier than scheduled, good + dropped == total, drop reasons summing to
// dropped with none unattributed, monotone hop stamps. In the simulator the
// program's goodput must also equal the scheduled-time goodput exactly.
void CheckRep(const Rep& rep, bool simulator, Checks& checks);

// Hash of every request's fate, finish, drop attribution and hop stamps:
// equal fingerprints mean bit-identical runs.
std::uint64_t Fingerprint(const Rep& rep);

// HopRecord-derived per-layer rows (module.m<k>.*, path.*, serve.ingress.*,
// drop.*, exec.*, tenant.*, core.governor.*). Batches are rebuilt from hops
// sharing (module, exec_start, exec_end); in the simulator every rebuilt
// batch must run exactly its planned duration.
MetricMap LayerLedger(const Rep& rep, bool simulator, Checks& checks);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
