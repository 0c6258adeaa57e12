// Per-worker request queue: PARD's DEPQ plus FIFO access.
//
// The Request Broker pops requests by remaining latency budget — smallest
// (LBF) or largest (HBF) — while reactive baselines pop in arrival order.
// All three orders are exposed by maintaining a min-max heap keyed by
// deadline alongside an arrival deque. Entries live in a slab indexed by
// both views; consuming through one view retires the slab slot in O(1) (no
// hash lookups) and the other view skips the stale reference when it reaches
// it. Stale references are additionally compacted away whenever dead entries
// outnumber live ones, so a queue driven through a single view (e.g. a long
// HBF/LBF phase never touching the FIFO) stays bounded by its live size
// instead of by its history.
//
// Concurrency contract: the queue is NOT internally synchronized — both
// views mutate shared slab state on every Push/Pop/MinDeadline (lazy
// invalidation and compaction make even "read" paths writes). Each Worker
// owns one; the simulator's event loop serializes access, and in serve the
// owning ServeModule's mutex does (see src/serve/serve_module.h). The serve
// test suite runs under TSan to pin this contract.
#ifndef PARD_RUNTIME_REQUEST_QUEUE_H_
#define PARD_RUNTIME_REQUEST_QUEUE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "runtime/request.h"
#include "stats/minmax_heap.h"

namespace pard {

// Which end of the queue the broker should consume next.
enum class PopSide {
  kOldest,     // FIFO / arrival order (reactive baselines, PARD-FCFS).
  kMinBudget,  // Smallest remaining budget first (LBF).
  kMaxBudget,  // Largest remaining budget first (HBF).
};

class RequestQueue {
 public:
  RequestQueue() = default;

  void Push(RequestPtr req);

  // Pops the next live entry from the requested side; returns nullptr when
  // empty. O(log n) amortized.
  RequestPtr Pop(PopSide side);

  // Earliest deadline among queued requests; kSimTimeMax when empty. Lets
  // the broker purge requests that are already unservable regardless of
  // policy (deadline passed while queued).
  SimTime MinDeadline();

  std::size_t Size() const { return live_; }
  bool Empty() const { return live_ == 0; }

  // Internal-view footprints (live + stale references), exposed so the
  // bounded-memory regression test can assert compaction keeps them O(live).
  std::size_t HeapFootprint() const { return heap_.Size(); }
  std::size_t FifoFootprint() const { return fifo_.size(); }
  std::size_t SlabFootprint() const { return slots_.size(); }

 private:
  // Slab slot: `seq` is the entry's unique arrival sequence number; a view
  // reference is live iff its seq still matches the slot's (slots are reused
  // with fresh seqs, so stale references can never alias a new entry). The
  // deadline lives in the HeapRef, not here.
  struct Slot {
    std::uint64_t seq = 0;
    bool live = false;
    RequestPtr req;
  };
  struct HeapRef {
    SimTime deadline;
    std::uint64_t seq;
    std::uint32_t index;
  };
  struct FifoRef {
    std::uint64_t seq;
    std::uint32_t index;
  };
  struct HeapRefLess {
    bool operator()(const HeapRef& a, const HeapRef& b) const {
      // Deadline is the remaining-budget priority (now is common to all
      // queued requests); seq breaks ties deterministically.
      return a.deadline != b.deadline ? a.deadline < b.deadline : a.seq < b.seq;
    }
  };

  bool Stale(std::uint64_t seq, std::uint32_t index) const {
    const Slot& slot = slots_[index];
    return !slot.live || slot.seq != seq;
  }
  RequestPtr Retire(std::uint32_t index);
  void MaybeCompact();

  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  MinMaxHeap<HeapRef, HeapRefLess> heap_;
  std::deque<FifoRef> fifo_;
};

}  // namespace pard

#endif  // PARD_RUNTIME_REQUEST_QUEUE_H_
