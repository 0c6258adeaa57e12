// Wall-clock ↔ virtual-time mapping for the serving runtime.
//
// The simulator reasons in virtual microseconds (SimTime); the serving
// runtime executes in real time. A ServeClock anchors virtual time 0 to a
// CLOCK_MONOTONIC epoch and advances it `speedup` times faster than the
// wall: with speedup = 20, one wall second carries 20 virtual seconds, so a
// 240 s trace replays in 12 s while every profiled duration, SLO and sync
// period keeps its virtual value. speedup = 1 is true real-time serving.
//
// One sleep primitive: every serve thread waits through SleepUntil, an
// absolute CLOCK_MONOTONIC deadline, so a late wake-up never shifts the next
// deadline and nothing accumulates across sleeps. Each wake-up still lands
// after its deadline by the kernel's timer slack plus scheduling latency,
// and every wall microsecond of that is `speedup` virtual microseconds. The
// default slack is 50 µs (2.5 virtual ms per sleep at 50×), so SleepUntil
// sets the calling thread's slack to 1 ns on its first call (Linux
// PR_SET_TIMERSLACK). The setting is per thread — a new thread starts from
// its creator's default slack, not from this setting — so every sleeping
// thread makes the call itself. What remains is scheduler contention.
//
// Concurrency: Start() must happen before any concurrent use; after that
// every member is const and safe to call from any thread (the epoch is
// read-only and clock_gettime is thread-safe).
#ifndef PARD_SERVE_SERVE_CLOCK_H_
#define PARD_SERVE_SERVE_CLOCK_H_

#include <cstdint>

#include "common/time_types.h"

namespace pard {

class ServeClock {
 public:
  // speedup must be > 0; values < 1 slow virtual time down (useful for
  // debugging races at human speed).
  explicit ServeClock(double speedup);

  // Anchors virtual time 0 to "now". Call exactly once, before any reader.
  void Start();

  double speedup() const { return speedup_; }

  // Current virtual time (microseconds since Start()).
  SimTime Now() const;

  // Blocks the calling thread until the absolute wall instant at which
  // Now() reaches t, so Now() >= t on return. Returns immediately when t is
  // already past. Sleeps are bounded (no condition), so shutdown simply
  // waits out the last sleeper. The first call on a thread sets that
  // thread's timer slack to 1 ns (see the file comment).
  void SleepUntil(SimTime t) const;

 private:
  double speedup_;
  std::int64_t epoch_ns_ = 0;  // CLOCK_MONOTONIC at Start().
};

}  // namespace pard

#endif  // PARD_SERVE_SERVE_CLOCK_H_
