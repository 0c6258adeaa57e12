#include "sim/simulation.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace pard {

// Level = index of the highest byte in which t differs from `reference`
// (which is always <= t). Equal times live at level 0: the bottom level
// buckets single microsecond ticks.
int Simulation::LevelOf(SimTime t, SimTime reference) {
  const std::uint64_t diff =
      static_cast<std::uint64_t>(t) ^ static_cast<std::uint64_t>(reference);
  if (diff == 0) {
    return 0;
  }
#if defined(__GNUC__) || defined(__clang__)
  return (63 - __builtin_clzll(diff)) >> 3;
#else
  int bit = 0;
  for (std::uint64_t d = diff; d >>= 1;) {
    ++bit;
  }
  return bit >> 3;
#endif
}

void Simulation::LinkInto(std::uint32_t index) {
  Slot& slot = slots_[index];
  const int level = LevelOf(slot.t, now_);
  const std::uint32_t s =
      static_cast<std::uint32_t>(slot.t >> (kLevelBits * level)) & (kSlotsPerLevel - 1);
  Bucket& bucket = buckets_[level][s];
  slot.bucket = static_cast<std::uint32_t>(level) * kSlotsPerLevel + s;
  slot.prev = bucket.tail;
  slot.next = kNil;
  if (bucket.tail == kNil) {
    bucket.head = index;
    SetBit(level, s);
  } else {
    slots_[bucket.tail].next = index;
  }
  bucket.tail = index;
}

void Simulation::Unlink(std::uint32_t index) {
  Slot& slot = slots_[index];
  Bucket& bucket = buckets_[slot.bucket / kSlotsPerLevel][slot.bucket % kSlotsPerLevel];
  if (slot.prev == kNil) {
    bucket.head = slot.next;
  } else {
    slots_[slot.prev].next = slot.next;
  }
  if (slot.next == kNil) {
    bucket.tail = slot.prev;
  } else {
    slots_[slot.next].prev = slot.prev;
  }
  if (bucket.head == kNil) {
    ClearBit(static_cast<int>(slot.bucket / kSlotsPerLevel), slot.bucket % kSlotsPerLevel);
  }
}

void Simulation::FreeSlot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.live = false;
  slot.cb.Reset();
  free_.push_back(index);
  --live_;
}

EventId Simulation::ScheduleAt(SimTime t, Callback cb) {
  PARD_CHECK_MSG(t >= now_, "cannot schedule into the past");
  PARD_CHECK_MSG(static_cast<bool>(cb), "cannot schedule an empty callback");
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    PARD_CHECK_MSG(slots_.size() < kIndexMask, "event slab exhausted");
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const std::uint64_t key = (next_seq_++ << kIndexBits) | index;
  Slot& slot = slots_[index];
  slot.key = key;
  slot.t = t;
  slot.live = true;
  slot.cb = std::move(cb);
  LinkInto(index);
  ++live_;
  return key;
}

EventId Simulation::ScheduleAfter(Duration delay, Callback cb) {
  PARD_CHECK(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(cb));
}

void Simulation::ScheduleStream(const std::vector<SimTime>& times, Callback fire) {
  PARD_CHECK_MSG(static_cast<bool>(fire), "cannot schedule an empty callback");
  PARD_CHECK_MSG(stream_next_ == nullptr, "a stream is already attached");
  PARD_CHECK_MSG(std::is_sorted(times.begin(), times.end()), "stream times must be sorted");
  if (times.empty()) {
    return;
  }
  PARD_CHECK_MSG(times.front() >= now_, "cannot schedule into the past");
  stream_next_ = times.data();
  stream_end_ = stream_next_ + times.size();
  stream_seq_ = next_seq_;
  next_seq_ += times.size();
  stream_fire_ = std::move(fire);
}

void Simulation::CancelStream() {
  stream_next_ = nullptr;
  stream_end_ = nullptr;
  stream_fire_.Reset();
}

bool Simulation::Cancel(EventId id) {
  const std::uint32_t index = static_cast<std::uint32_t>(id & kIndexMask);
  if (index >= slots_.size()) {
    return false;
  }
  Slot& slot = slots_[index];
  if (!slot.live || slot.key != id) {
    return false;  // Already fired, already cancelled, or a stale id.
  }
  Unlink(index);
  FreeSlot(index);
  return true;
}

std::uint32_t Simulation::LowestBit(int level) const {
  for (std::uint32_t w = 0; w < kSlotsPerLevel / 64; ++w) {
    const std::uint64_t word = bits_[level][w];
    if (word != 0) {
#if defined(__GNUC__) || defined(__clang__)
      return w * 64 + static_cast<std::uint32_t>(__builtin_ctzll(word));
#else
      std::uint32_t b = 0;
      while (((word >> b) & 1) == 0) {
        ++b;
      }
      return w * 64 + b;
#endif
    }
  }
  return kNil;
}

// Re-buckets every event of (level, slot) one or more levels down. The walk
// preserves list order, so equal-time events keep their sequence order.
void Simulation::Cascade(int level, std::uint32_t slot) {
  Bucket& bucket = buckets_[level][slot];
  std::uint32_t index = bucket.head;
  bucket.head = kNil;
  bucket.tail = kNil;
  ClearBit(level, slot);
  while (index != kNil) {
    const std::uint32_t next = slots_[index].next;
    LinkInto(index);
    index = next;
  }
}

std::uint32_t Simulation::AdvanceToNext(SimTime bound) {
  while (live_ > 0) {
    // The global minimum lives in the lowest non-empty level's lowest slot:
    // every event of level l+1 exceeds every event of level l (it differs
    // from now in a strictly higher byte).
    const std::uint32_t s0 = LowestBit(0);
    if (s0 != kNil) {
      // Bottom-level buckets are exact microsecond ticks within the current
      // 256 us window.
      const SimTime tick =
          (now_ & ~static_cast<SimTime>(kSlotsPerLevel - 1)) | static_cast<SimTime>(s0);
      if (tick > bound) {
        return kNil;
      }
      return s0;
    }
    int level = 1;
    std::uint32_t s = kNil;
    for (; level < kLevels; ++level) {
      s = LowestBit(level);
      if (s != kNil) {
        break;
      }
    }
    if (s == kNil) {
      return kNil;  // live_ > 0 but nothing linked: unreachable.
    }
    const int shift = kLevelBits * level;
    std::uint64_t start = static_cast<std::uint64_t>(s) << shift;
    if (shift + kLevelBits < 64) {
      // Keep now_'s prefix above this level (the bucket shares it).
      start |= static_cast<std::uint64_t>(now_) &
               ~((static_cast<std::uint64_t>(1) << (shift + kLevelBits)) - 1);
    }
    const SimTime window_start = static_cast<SimTime>(start);
    if (window_start > bound) {
      return kNil;  // The next event starts beyond the horizon.
    }
    // Enter the bucket's window (the clock may already be inside it) and
    // split it into finer levels; re-scan from the bottom.
    now_ = std::max(now_, window_start);
    Cascade(level, s);
  }
  return kNil;
}

void Simulation::Fire(std::uint32_t tick_slot) {
  Bucket& bucket = buckets_[0][tick_slot];
  const std::uint32_t index = bucket.head;
  Slot& slot = slots_[index];
  now_ = slot.t;
  Unlink(index);
  // Move the callback out and retire the slot before invoking, so the
  // callback can freely schedule (possibly into this very slot) or probe
  // its own id.
  Callback cb = std::move(slot.cb);
  FreeSlot(index);
  ++executed_;
  cb();
}

void Simulation::FireStream() {
  now_ = *stream_next_++;
  ++stream_seq_;
  ++executed_;
  if (stream_next_ != stream_end_) {
    stream_fire_();
    return;
  }
  // Last entry: detach before invoking, so the kernel holds no pointer into
  // the caller's vector and the callback may attach the next stream.
  Callback fire = std::move(stream_fire_);
  stream_next_ = nullptr;
  stream_end_ = nullptr;
  fire();
}

bool Simulation::FireNext(SimTime bound) {
  // Advance the wheel no further than the stream's head, so firing the head
  // never moves the clock past a bucket the wheel has not cascaded yet.
  const bool streaming = stream_next_ != nullptr;
  const SimTime head = streaming ? *stream_next_ : kSimTimeMax;
  const std::uint32_t s0 = AdvanceToNext(std::min(bound, head));
  if (s0 != kNil) {
    const Slot& next = slots_[buckets_[0][s0].head];
    if (!streaming || next.t < head || (next.key >> kIndexBits) < stream_seq_) {
      Fire(s0);
      return true;
    }
  }
  if (!streaming || head > bound) {
    return false;
  }
  FireStream();
  return true;
}

bool Simulation::Step() { return FireNext(kSimTimeMax); }

void Simulation::Run(SimTime until) {
  while (FireNext(until)) {
  }
  if (now_ < until && until != kSimTimeMax) {
    now_ = until;
  }
}

}  // namespace pard
