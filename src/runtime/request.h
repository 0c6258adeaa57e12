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
// The rest of hops[k], merge_arrivals included, is written only under
// module k's mutex, by whichever thread is running module k's state machine.
// A request takes its fate once: the thread whose ClaimFate swaps `fate` out
// of kInFlight wins, and it alone writes the other terminal fields
// (drop_module, drop_reason, finish). While a run is live every read of
// `fate` is an atomic load (Fate(), Terminal(), Good(), CountsDropped()), the
// winner's own included; the other terminal fields are read by other threads
// only after the run. The single-threaded simulator takes the same path.
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

  // Claimed once (ClaimFate) and read atomically (Fate()) while a run is
  // live; a plain field, so readers after the run may use it directly.
  RequestFate fate = RequestFate::kInFlight;
  // Why the request counts as dropped (kNone iff fate is kCompleted or
  // kInFlight). Written by the thread that claimed the fate.
  DropReason drop_reason = DropReason::kNone;
  // Dynamic-path routing (§5.2): the request takes one drawn branch at each
  // fork, recorded in its hops' branch_choice and expected_arrivals.
  bool dynamic_path = false;

  // The absolute SLO deadline.
  SimTime Deadline() const { return sent + slo; }
  // `fate`, read with acquire ordering: the generic builtin is what
  // std::atomic_ref compiles to, and RequestFate is not an integral type.
  RequestFate Fate() const {
    RequestFate current = RequestFate::kInFlight;
    __atomic_load(&fate, &current, __ATOMIC_ACQUIRE);
    return current;
  }
  // Swaps `fate` from kInFlight to `to`. True for the one caller that does;
  // false, changing nothing, once the request has a fate.
  bool ClaimFate(RequestFate to) {
    RequestFate expected = RequestFate::kInFlight;
    return __atomic_compare_exchange(&fate, &expected, &to, /*weak=*/false, __ATOMIC_ACQ_REL,
                                     __ATOMIC_ACQUIRE);
  }
  bool Terminal() const { return Fate() != RequestFate::kInFlight; }
  bool Good() const { return Fate() == RequestFate::kCompleted; }
  // Paper accounting: completed-but-late counts as dropped.
  bool CountsDropped() const {
    const RequestFate current = Fate();
    return current == RequestFate::kDropped || current == RequestFate::kLate;
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
