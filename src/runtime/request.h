// Request model.
//
// A request is injected by a (simulated) client at `sent`, traverses the
// pipeline DAG, and terminates in one of three fates. Per-module HopRecords
// capture the full latency decomposition of the paper's Fig. 5 — arrival
// (t_r), batch entry (t_b), execution start (t_e) and end — plus the GPU time
// attributed to the request, from which every evaluation metric (goodput,
// drop rate, invalid rate, per-module drop placement, budget consumption) is
// derived after the run.
//
// In both substrates RequestLifecycle (runtime/request_lifecycle.h) stamps
// the identity fields at injection and is the only writer of the terminal
// fields and merge_arrivals.
//
// Concurrency contract (serving runtime): identity fields (id, sent, tenant,
// weight, slo, deadline, branch_choice, expected_arrivals) are immutable
// after injection. Each hops[k] is written only by module k's worker
// threads, which never race each other on one request (a request is in at
// most one batch at k). The terminal fields (fate, drop_module, drop_reason,
// finish) and merge_arrivals change only in the lifecycle's fate
// transitions, which ServeRuntime runs under the request's fate stripe — one
// of its 16 striped fate locks, chosen by request id
// (ServeRuntime::FateMutex). A terminal fate never changes again, so the
// thread that made the transition reads it back lock-free for the
// accounting; every other cross-branch reader goes through
// ServeRuntime::IsTerminal while a run is live. The single-threaded
// simulator needs none of this.
#ifndef PARD_RUNTIME_REQUEST_H_
#define PARD_RUNTIME_REQUEST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/time_types.h"
#include "obs/drop_reason.h"

namespace pard {

enum class RequestFate {
  kInFlight,   // Still traversing the pipeline.
  kCompleted,  // Finished within the SLO — contributes to goodput.
  kLate,       // Finished but violated the SLO — counted as dropped (§5.1).
  kDropped,    // Dropped by policy at some module.
};

struct HopRecord {
  SimTime arrive = -1;       // t_r: delivered to the module (enters DEPQ).
  SimTime batch_entry = -1;  // t_b: pulled into a forming batch.
  SimTime exec_start = -1;   // t_e: batch began executing.
  SimTime exec_end = -1;
  Duration gpu_time = 0;     // d(batch)/batch attributed to this request.
  bool executed = false;

  Duration QueueDelay() const { return batch_entry - arrive; }
  Duration BatchWait() const { return exec_start - batch_entry; }
  Duration ExecDuration() const { return exec_end - exec_start; }
  bool Visited() const { return arrive >= 0; }
};

struct Request {
  std::uint64_t id = 0;
  SimTime sent = 0;
  Duration slo = 0;
  SimTime deadline = 0;

  // Multi-tenant identity (immutable after injection, like id/sent/slo):
  // index into RuntimeOptions::tenants, or -1 for untenanted runs. `weight`
  // is the tenant's goodput value per completed request (1.0 untenanted) —
  // weighted goodput sums it over good requests (metrics/analysis.h).
  int tenant = -1;
  double weight = 1.0;

  RequestFate fate = RequestFate::kInFlight;
  int drop_module = -1;   // Module where the policy dropped it (-1 otherwise).
  SimTime finish = -1;    // Completion or drop time.
  // Why the request counts as dropped (kNone iff fate is kCompleted or
  // kInFlight). Written with `fate` under the same synchronization.
  DropReason drop_reason = DropReason::kNone;

  // Times this request was re-enqueued after a worker failure/hang
  // (resilience retry path). Written only by the thread that owned the failed
  // batch; re-delivery through the queue shard's mutex provides the
  // happens-before edge to the next reader.
  int retry_count = 0;

  // Indexed by module id; unvisited modules keep arrive == -1.
  std::vector<HopRecord> hops;

  // DAG merge bookkeeping: deliveries seen so far per module. Empty when the
  // pipeline has no merge module.
  std::vector<int> merge_arrivals;

  // Dynamic-path pipelines (§5.2): at a fork module the request takes only
  // one branch. `branch_choice[f]` is the chosen sub of fork f (-1 when not
  // a fork or static routing); `expected_arrivals[m]` is how many deliveries
  // module m will actually see for this request (pres count under static
  // routing, possibly 1 at merges under dynamic routing). Both are empty for
  // static pipelines.
  std::vector<int> branch_choice;
  std::vector<int> expected_arrivals;

  bool HasDynamicPath() const { return !branch_choice.empty(); }

  bool Terminal() const { return fate != RequestFate::kInFlight; }
  bool Good() const { return fate == RequestFate::kCompleted; }
  // Paper accounting: completed-but-late counts as dropped.
  bool CountsDropped() const {
    return fate == RequestFate::kDropped || fate == RequestFate::kLate;
  }
  Duration RemainingBudget(SimTime now) const { return deadline - now; }

  Duration TotalGpuTime() const {
    Duration total = 0;
    for (const HopRecord& h : hops) {
      total += h.gpu_time;
    }
    return total;
  }
};

using RequestPtr = std::shared_ptr<Request>;

}  // namespace pard

#endif  // PARD_RUNTIME_REQUEST_H_
