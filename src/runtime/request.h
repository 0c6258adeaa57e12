// Request model.
//
// A request is injected by a (simulated) client at `sent`, traverses the
// pipeline DAG, and terminates in one of three fates. Per-module HopRecords
// capture the full latency decomposition of the paper's Fig. 5 — arrival
// (t_r), batch entry (t_b), execution start (t_e) and end — plus the GPU time
// attributed to the request, from which every evaluation metric (goodput,
// drop rate, invalid rate, per-module drop placement, budget consumption) is
// derived after the run. Each HopRecord also carries the request's route at
// that module (merge and dynamic-path bookkeeping) in what would otherwise be
// its tail padding.
//
// In both substrates RequestLifecycle (runtime/request_lifecycle.h)
// allocates a request and its hop slots as one record in the run's
// RequestArena (runtime/request_arena.h), stamps the identity fields and the
// route at injection, and is the only writer of the terminal fields and
// merge_arrivals. `hops` is a view: copies of a Request share its hop slots,
// which live as long as the arena, i.e. as long as any RequestPtr of the run.
//
// Concurrency contract (serving runtime): identity fields (id, sent, tenant,
// weight, slo, dynamic_path), and with them the derived Deadline(), and every
// hop's branch_choice and expected_arrivals are immutable after injection.
// The stamps of hops[k] (arrive .. executed) are written only under module
// k's mutex, by whichever thread is running module k's state machine.
// hops[k].merge_arrivals is written under the request's fate stripe by
// whichever thread delivers to merge k. The terminal fields (fate,
// drop_module, drop_reason, finish) change only in the lifecycle's fate
// transitions, which ServeRuntime runs under that same stripe — one of its
// 16 striped fate locks, chosen by request id (ServeRuntime::FateMutex). A
// terminal fate never changes again, so the thread that made the transition
// reads it back lock-free for the accounting; every other cross-branch
// reader goes through ServeRuntime::IsTerminal while a run is live. The
// single-threaded simulator needs none of this.
#ifndef PARD_RUNTIME_REQUEST_H_
#define PARD_RUNTIME_REQUEST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "common/time_types.h"
#include "obs/drop_reason.h"

namespace pard {

enum class RequestFate : std::uint8_t {
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
  std::int32_t gpu_time = 0;  // d(batch)/batch attributed to this request.
  bool executed = false;

  // Route at this module, packed into the tail padding (a module has at most
  // INT8_MAX predecessors and successors; PipelineSpec::Validate enforces
  // it). Deliveries seen so far when this module is a DAG merge.
  std::int8_t merge_arrivals = 0;
  // Dynamic paths only (§5.2), else 0 and -1: how many deliveries this
  // module will see for the request, and, when this module is a fork, the
  // index into its `subs` of the branch the request takes.
  std::int8_t expected_arrivals = 0;
  std::int8_t branch_choice = -1;

  Duration QueueDelay() const { return batch_entry - arrive; }
  Duration BatchWait() const { return exec_start - batch_entry; }
  Duration ExecDuration() const { return exec_end - exec_start; }
};

// The route fields must stay in the padding: every hop slot costs 40 B.
static_assert(sizeof(HopRecord) == 40);

// A request's hop records, indexed by module id: a non-owning view of the
// slots allocated with the request (runtime/request_arena.h).
class HopSlots {
 public:
  HopSlots() = default;
  HopSlots(HopRecord* data, std::size_t size) : data_(data), size_(size) {}

  HopRecord& operator[](std::size_t k) { return data_[k]; }
  const HopRecord& operator[](std::size_t k) const { return data_[k]; }
  HopRecord* begin() { return data_; }
  HopRecord* end() { return data_ + size_; }
  const HopRecord* begin() const { return data_; }
  const HopRecord* end() const { return data_ + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  HopRecord* data_ = nullptr;
  std::size_t size_ = 0;
};

// Fields are ordered by size so the header packs into 72 B.
struct Request {
  std::uint64_t id = 0;
  SimTime sent = 0;
  Duration slo = 0;
  SimTime finish = -1;  // Completion or drop time.
  // Multi-tenant identity (immutable after injection, like id/sent/slo):
  // `weight` is the tenant's goodput value per completed request (1.0
  // untenanted) — weighted goodput sums it over good requests
  // (metrics/analysis.h).
  double weight = 1.0;

  // Indexed by module id; unvisited modules keep arrive == -1.
  HopSlots hops;

  // Index into RuntimeOptions::tenants, or -1 for untenanted runs.
  int tenant = -1;
  int drop_module = -1;  // Module where the policy dropped it (-1 otherwise).
  // Times this request was re-enqueued after a worker failure/hang
  // (resilience retry path). Written under the mutex of the module whose
  // worker failed, which the request's next reader there also holds.
  int retry_count = 0;

  RequestFate fate = RequestFate::kInFlight;
  // Why the request counts as dropped (kNone iff fate is kCompleted or
  // kInFlight). Written with `fate` under the same synchronization.
  DropReason drop_reason = DropReason::kNone;
  // Dynamic-path routing (§5.2): the request takes one drawn branch at each
  // fork, recorded in its hops' branch_choice and expected_arrivals.
  bool dynamic_path = false;

  // The absolute SLO deadline.
  SimTime Deadline() const { return sent + slo; }
  bool Terminal() const { return fate != RequestFate::kInFlight; }
  bool Good() const { return fate == RequestFate::kCompleted; }
  // Paper accounting: completed-but-late counts as dropped.
  bool CountsDropped() const {
    return fate == RequestFate::kDropped || fate == RequestFate::kLate;
  }
  Duration RemainingBudget(SimTime now) const { return Deadline() - now; }

  Duration TotalGpuTime() const {
    Duration total = 0;
    for (const HopRecord& h : hops) {
      total += h.gpu_time;
    }
    return total;
  }
};

// With its hop slots a 5-module request costs 72 + 5 x 40 = 272 B.
static_assert(sizeof(Request) == 72);

// The arena never runs destructors.
static_assert(std::is_trivially_destructible_v<Request>);

// Points into the run's arena and owns the arena, not the request: every
// RequestPtr of a run shares one control block (runtime/request_arena.h).
using RequestPtr = std::shared_ptr<Request>;

}  // namespace pard

#endif  // PARD_RUNTIME_REQUEST_H_
