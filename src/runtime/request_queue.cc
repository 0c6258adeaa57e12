#include "runtime/request_queue.h"

#include <utility>

namespace pard {

void RequestQueue::Push(RequestPtr req) {
  const std::uint64_t seq = next_seq_++;
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  const SimTime deadline = req->Deadline();
  slot.seq = seq;
  slot.live = true;
  slot.req = std::move(req);
  heap_.Push(HeapRef{deadline, seq, index});
  fifo_.push_back(FifoRef{seq, index});
  ++live_;
}

RequestPtr RequestQueue::Retire(std::uint32_t index) {
  Slot& slot = slots_[index];
  RequestPtr out = std::move(slot.req);
  slot.req = nullptr;
  slot.live = false;
  free_.push_back(index);
  --live_;
  MaybeCompact();
  return out;
}

SimTime RequestQueue::MinDeadline() {
  while (!heap_.Empty() && Stale(heap_.Min().seq, heap_.Min().index)) {
    heap_.PopMin();  // Lazily discard entries consumed through the FIFO view.
  }
  return heap_.Empty() ? kSimTimeMax : heap_.Min().deadline;
}

RequestPtr RequestQueue::Pop(PopSide side) {
  while (live_ > 0) {
    if (side == PopSide::kOldest) {
      if (fifo_.empty()) {
        break;
      }
      const FifoRef ref = fifo_.front();
      fifo_.pop_front();
      if (Stale(ref.seq, ref.index)) {
        continue;  // Already consumed through the heap view.
      }
      return Retire(ref.index);
    }
    if (heap_.Empty()) {
      break;
    }
    const HeapRef ref = side == PopSide::kMinBudget ? heap_.PopMin() : heap_.PopMax();
    if (Stale(ref.seq, ref.index)) {
      continue;  // Already consumed through the FIFO view.
    }
    return Retire(ref.index);
  }
  return nullptr;
}

void RequestQueue::MaybeCompact() {
  // Under single-view consumption (a long HBF/LBF phase, or pure FIFO) the
  // untouched view accumulates stale references indefinitely; rebuild a view
  // once its dead entries outnumber its live ones so footprint stays O(live).
  if (fifo_.size() > 64 && fifo_.size() > 2 * live_) {
    std::deque<FifoRef> kept;
    for (const FifoRef& ref : fifo_) {
      if (!Stale(ref.seq, ref.index)) {
        kept.push_back(ref);
      }
    }
    fifo_.swap(kept);
  }
  if (heap_.Size() > 64 && heap_.Size() > 2 * live_) {
    heap_.EraseIf([this](const HeapRef& ref) { return Stale(ref.seq, ref.index); });
  }
}

}  // namespace pard
