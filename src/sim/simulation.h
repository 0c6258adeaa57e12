// Discrete-event simulation kernel.
//
// A single-threaded event loop over virtual time. Events scheduled for the
// same instant fire in scheduling order (monotone sequence number tie-break),
// which makes runs fully deterministic.
//
// Storage is a slab of event slots addressed by index: scheduling takes a
// slot from the free list (no hashing, no per-event node allocation), and
// callbacks live inline in the slot (InlineCallback), so steady-state
// scheduling performs zero heap allocations once the slab reaches its
// high-water mark.
//
// The pending set is a hierarchical timer wheel over the 64-bit microsecond
// timeline: level l buckets events by byte l of their firing time, relative
// to the current time's prefix. Scheduling is O(1) (xor + clz picks the
// level, FIFO append into the bucket), cancellation is an O(1) true removal
// from the bucket's doubly-linked list (no tombstones, no lazy sweeps), and
// popping the next event is a bitmap scan plus amortized O(1) cascades of
// buckets into finer levels as time reaches them. Bottom-level buckets hold
// events of a single microsecond tick in append order, which IS sequence
// order, so the wheel reproduces the exact (time, sequence) total order of a
// comparison-based queue at a fraction of the per-event cost, with no
// O(log n) depth penalty as the pending set grows.
//
// Trace arrivals are known up front and sorted, so they need no slots: a
// stream (ScheduleStream) reserves one sequence number per entry when it is
// attached and keeps only a cursor into the caller's vector. Run and Step
// fire the stream's head whenever it precedes the wheel's next event in
// (time, sequence) order, which is the order scheduling every entry as its
// own event would give, in O(1) memory. The slab's 2^24-slot cap therefore
// bounds in-flight events, not trace length.
//
// Determinism note: every bucket only ever holds events that share their
// firing time's bytes above the bucket's level with the CURRENT time. This
// holds at insert by construction, and stays true as time advances because
// the clock can only pass an event by firing it (Run horizons and stream
// entries stop short of the next event: the wheel is advanced to their time
// first). Cascades walk buckets in list order, so equal-time events keep
// their sequence order through every descent.
#ifndef PARD_SIM_SIMULATION_H_
#define PARD_SIM_SIMULATION_H_

#include <cstdint>
#include <vector>

#include "common/time_types.h"
#include "sim/inline_callback.h"
#include "sim/timer.h"

namespace pard {

// The kernel is also the simulator's ModuleTimer (sim/timer.h). It is final,
// so calls through a Simulation& bind statically; only the module state
// machine's calls go through the interface. An EventId packs (sequence
// number << 24 | slot index).
class Simulation final : public ModuleTimer {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current virtual time.
  SimTime Now() const override { return now_; }

  // Schedules `cb` at absolute time `t` (must be >= Now()). Returns an id
  // usable with Cancel().
  EventId ScheduleAt(SimTime t, Callback cb) override;

  // Schedules `cb` after `delay` (must be >= 0).
  EventId ScheduleAfter(Duration delay, Callback cb);

  // Cancels a pending event in O(1). Cancelling an already-fired, already-
  // cancelled or unknown id is a no-op and returns false.
  bool Cancel(EventId id) override;

  // Attaches a stream: `fire` runs once at each instant of `times` (sorted,
  // the first >= Now()), ordered against every other event as if entry i had
  // been scheduled by the i-th of times.size() ScheduleAt calls made right
  // now. The kernel reads `times` in place until the last entry fires or
  // CancelStream(), and drops its pointer then. One stream at a time; an
  // empty `times` attaches nothing.
  void ScheduleStream(const std::vector<SimTime>& times, Callback fire);

  // Detaches the pending stream, if any: its unfired entries never fire.
  // Must not be called from the stream's own callback.
  void CancelStream();

  // Runs events until the queue is empty or virtual time would exceed
  // `until`. Events exactly at `until` are executed.
  void Run(SimTime until = kSimTimeMax);

  // Executes the single next event. Returns false if the queue is empty.
  bool Step();

  // Pending (non-cancelled) event count, unfired stream entries included.
  std::size_t PendingEvents() const {
    return live_ + static_cast<std::size_t>(stream_end_ - stream_next_);
  }

  // Total events executed so far (diagnostics / perf counters).
  std::uint64_t ExecutedEvents() const { return executed_; }

 private:
  static constexpr int kLevels = 8;          // One per byte of SimTime.
  static constexpr int kLevelBits = 8;
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;
  static constexpr int kIndexBits = 24;
  static constexpr std::uint64_t kIndexMask = (1ULL << kIndexBits) - 1;
  static constexpr std::uint32_t kNil = 0xffffffffu;

  // One slab slot. `key` identifies the current occupant; EventIds snapshot
  // it, so a stale id can never touch a reused slot.
  struct Slot {
    std::uint64_t key = 0;
    SimTime t = 0;
    std::uint32_t prev = kNil;   // Bucket list links (slab indices).
    std::uint32_t next = kNil;
    std::uint32_t bucket = 0;    // level * kSlotsPerLevel + slot.
    bool live = false;
    Callback cb;
  };

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  static int LevelOf(SimTime t, SimTime reference);

  void LinkInto(std::uint32_t index);        // Places slots_[index] by its t.
  void Unlink(std::uint32_t index);          // Removes from its bucket.
  void FreeSlot(std::uint32_t index);
  void Cascade(int level, std::uint32_t slot);

  // Advances the clock toward the next pending event without passing
  // `bound`. Returns the bottom-level slot of the next event's tick, or
  // kNil if there is none with t <= bound (the clock is left <= bound).
  std::uint32_t AdvanceToNext(SimTime bound);

  // Fires the head event of the given bottom-level tick bucket.
  void Fire(std::uint32_t tick_slot);
  // Fires the stream's head entry.
  void FireStream();
  // Fires the next event, wheel or stream, if it is due by `bound`.
  bool FireNext(SimTime bound);

  void SetBit(int level, std::uint32_t slot) {
    bits_[level][slot >> 6] |= 1ULL << (slot & 63);
  }
  void ClearBit(int level, std::uint32_t slot) {
    bits_[level][slot >> 6] &= ~(1ULL << (slot & 63));
  }
  // Lowest set slot of a level, or kNil.
  std::uint32_t LowestBit(int level) const;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;  // Scheduled and not yet fired/cancelled.

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // Indices of dead, reusable slots.
  Bucket buckets_[kLevels][kSlotsPerLevel];
  std::uint64_t bits_[kLevels][kSlotsPerLevel / 64] = {};

  // The attached stream: its next unfired entry and the end of the caller's
  // vector (both null when none is attached), the sequence number reserved
  // for the next entry, and the callback every entry runs.
  const SimTime* stream_next_ = nullptr;
  const SimTime* stream_end_ = nullptr;
  std::uint64_t stream_seq_ = 0;
  Callback stream_fire_;
};

}  // namespace pard

#endif  // PARD_SIM_SIMULATION_H_
