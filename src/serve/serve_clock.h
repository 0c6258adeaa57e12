// Wall-clock ↔ virtual-time mapping for the serving runtime.
//
// The simulator reasons in virtual microseconds (SimTime); the serving
// runtime executes in real time. A ServeClock anchors virtual time 0 to a
// CLOCK_MONOTONIC epoch and advances it `speedup` times faster than the
// wall: with speedup = 20, one wall second carries 20 virtual seconds, so a
// 240 s trace replays in 12 s while every profiled duration, SLO and sync
// period keeps its virtual value. speedup = 1 is true real-time serving.
//
// Every serve thread waits on an absolute CLOCK_MONOTONIC deadline —
// SleepUntil, or an Alarm that other threads may re-arm — so a late wake-up
// never shifts the next deadline and nothing accumulates across waits. Each
// wake-up still lands after its deadline by the kernel's timer slack plus
// scheduling latency, and every wall microsecond of that is `speedup`
// virtual microseconds. The default slack is 50 µs (2.5 virtual ms per sleep
// at 50×), so SleepUntil sets the calling thread's slack to 1 ns on its
// first call (Linux PR_SET_TIMERSLACK); an Alarm's timerfd takes none. The setting is per thread — a new thread starts from
// its creator's default slack, not from this setting — so every sleeping
// thread makes the call itself. What remains is scheduler contention.
//
// Concurrency: Start() must happen before any concurrent use; after that
// every member is const and safe to call from any thread (the epoch is
// read-only and clock_gettime is thread-safe). Before Start(), Now() reads
// 0, so a runtime can provision its initial fleet at virtual time 0 while
// it is being built.
#ifndef PARD_SERVE_SERVE_CLOCK_H_
#define PARD_SERVE_SERVE_CLOCK_H_

#include <cstdint>
#include <vector>

#include "common/time_types.h"
#include "sim/timer.h"

namespace pard {

class ServeClock {
 public:
  // speedup must be > 0; values < 1 slow virtual time down (useful for
  // debugging races at human speed).
  explicit ServeClock(double speedup);

  // Anchors virtual time 0 to "now". Call exactly once, before any reader.
  void Start();

  double speedup() const { return speedup_; }

  // Current virtual time (microseconds since Start(); 0 before it).
  SimTime Now() const;

  // Blocks the calling thread until the absolute wall instant at which
  // Now() reaches t, so Now() >= t on return. Returns immediately when t is
  // already past. Sleeps are bounded (no condition), so shutdown simply
  // waits out the last sleeper. The first call on a thread sets that
  // thread's timer slack to 1 ns (see the file comment).
  void SleepUntil(SimTime t) const;

  // An absolute deadline on this clock that one thread waits for while any
  // thread may move it (a Linux timerfd on CLOCK_MONOTONIC). Moving the
  // deadline costs the mover one system call and never wakes the waiter
  // just to go back to sleep, and the kernel fires the timer without timer
  // slack. Callers serialize Arm() among themselves.
  class Alarm {
   public:
    explicit Alarm(const ServeClock* clock);
    ~Alarm();
    Alarm(const Alarm&) = delete;
    Alarm& operator=(const Alarm&) = delete;

    // Fires at virtual time t, replacing any earlier arming and any
    // expiry not yet waited for; a past t fires at once, kSimTimeMax
    // disarms. Arming before the clock starts fires at once.
    void Arm(SimTime t);
    // Blocks until the armed time has passed.
    void Wait();

   private:
    const ServeClock* clock_;
    int fd_;
  };

 private:
  // Wall (CLOCK_MONOTONIC) nanosecond at which Now() reaches t, rounded up.
  std::int64_t DeadlineNs(SimTime t) const;

  double speedup_;
  bool started_ = false;
  std::int64_t epoch_ns_ = 0;  // CLOCK_MONOTONIC at Start().
};

// A ModuleTimer on a ServeClock, fired by the thread that owns it: one per
// module (serve/serve_module.h) and one for the control loop
// (runtime/control_loop.h, on ServeRuntime's control thread). Pending events
// sit in a small vector (a few per worker, or one per control job and
// scheduled event) and an Alarm is armed at the earliest of them; the owning
// thread waits on it, then fires every event that is due. Nothing here is
// synchronized: the owner serializes every call but Wait() — the module
// mutex, or the control thread, the control timer's only user once the run
// starts.
class ServeTimer final : public ModuleTimer {
 public:
  explicit ServeTimer(const ServeClock* clock) : clock_(clock), alarm_(clock) {}
  SimTime Now() const override { return clock_->Now(); }
  EventId ScheduleAt(SimTime t, Callback cb) override;
  bool Cancel(EventId id) override;
  // Runs, in (time, scheduling) order, every event due by `now`, including
  // ones the callbacks schedule that are already due, then re-arms the
  // alarm at the earliest event left unless it is already armed there.
  void FireDue(SimTime now);
  // The owner consumed the alarm's expiry: nothing is armed until the next
  // FireDue or ScheduleAt arms it again.
  void Expired() { armed_ = kSimTimeMax; }
  // Arms the alarm to fire at once (shutdown).
  void Interrupt() { Arm(0); }
  // Blocks until the alarm fires. Events scheduled before the clock started
  // armed it to fire at once, so the first wake re-arms it against the
  // started clock.
  void Wait() { alarm_.Wait(); }

 private:
  struct Event {
    SimTime t;
    EventId id;
    Callback cb;
  };
  void Arm(SimTime t);

  const ServeClock* clock_;
  ServeClock::Alarm alarm_;
  SimTime armed_ = kSimTimeMax;  // When alarm_ fires next; kSimTimeMax: not armed.
  std::vector<Event> events_;
  EventId next_id_ = 1;
};

}  // namespace pard

#endif  // PARD_SERVE_SERVE_CLOCK_H_
