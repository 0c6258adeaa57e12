#include "serve/serve_clock.h"

#include <sys/prctl.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace pard {
namespace {

constexpr std::int64_t kNsPerSec = 1000000000;

std::int64_t MonotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * kNsPerSec + ts.tv_nsec;
}

// Once per thread: 1 ns timer slack, so an absolute sleep wakes when it is
// due rather than up to 50 µs (the Linux default) later. A failure leaves the
// default slack, which costs precision, never correctness.
void UseFineTimerSlack() {
  thread_local bool fine = false;
  if (!fine) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    fine = true;
  }
}

}  // namespace

ServeClock::ServeClock(double speedup) : speedup_(speedup) {
  PARD_CHECK_MSG(std::isfinite(speedup) && speedup > 0.0, "speedup must be positive");
}

void ServeClock::Start() {
  epoch_ns_ = MonotonicNs();
  started_ = true;
}

SimTime ServeClock::Now() const {
  if (!started_) {
    return 0;
  }
  const double wall_us = static_cast<double>(MonotonicNs() - epoch_ns_) / 1e3;
  return static_cast<SimTime>(wall_us * speedup_);
}

std::int64_t ServeClock::DeadlineNs(SimTime t) const {
  // Rounded up to the nanosecond, so Now() reads >= t once it has passed.
  return epoch_ns_ +
         static_cast<std::int64_t>(std::ceil(static_cast<double>(t) * 1e3 / speedup_));
}

void ServeClock::SleepUntil(SimTime t) const {
  UseFineTimerSlack();
  if (t <= 0) {
    return;  // At or before the epoch: already past.
  }
  const std::int64_t deadline = DeadlineNs(t);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline / kNsPerSec);
  ts.tv_nsec = static_cast<long>(deadline % kNsPerSec);
  // An absolute deadline survives a signal: re-arm until it passes.
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

ServeClock::Alarm::Alarm(const ServeClock* clock)
    : clock_(clock), fd_(timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC)) {
  PARD_CHECK_MSG(fd_ >= 0, "timerfd_create failed (errno " << errno << ")");
}

ServeClock::Alarm::~Alarm() { close(fd_); }

void ServeClock::Alarm::Arm(SimTime t) {
  itimerspec spec{};  // All zero: disarmed.
  if (t != kSimTimeMax) {
    // A zero it_value would disarm, so a due-now deadline is 1 ns.
    const std::int64_t deadline =
        clock_->started_ && t > 0 ? std::max<std::int64_t>(clock_->DeadlineNs(t), 1) : 1;
    spec.it_value.tv_sec = static_cast<time_t>(deadline / kNsPerSec);
    spec.it_value.tv_nsec = static_cast<long>(deadline % kNsPerSec);
  }
  PARD_CHECK(timerfd_settime(fd_, TFD_TIMER_ABSTIME, &spec, nullptr) == 0);
}

void ServeClock::Alarm::Wait() {
  std::uint64_t expirations = 0;
  while (read(fd_, &expirations, sizeof(expirations)) < 0) {
    PARD_CHECK_MSG(errno == EINTR, "timerfd read failed (errno " << errno << ")");
  }
}

EventId ServeTimer::ScheduleAt(SimTime t, Callback cb) {
  const EventId id = next_id_++;
  events_.push_back(Event{t, id, std::move(cb)});
  if (t < armed_) {
    Arm(t);
  }
  return id;
}

bool ServeTimer::Cancel(EventId id) {
  // The alarm may still fire for a cancelled event; FireDue then finds
  // nothing due and re-arms.
  for (auto it = events_.begin(); it != events_.end(); ++it) {
    if (it->id == id) {
      events_.erase(it);
      return true;
    }
  }
  return false;
}

void ServeTimer::FireDue(SimTime now) {
  for (;;) {
    auto next = events_.end();
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->t <= now &&
          (next == events_.end() || it->t < next->t || (it->t == next->t && it->id < next->id))) {
        next = it;
      }
    }
    if (next == events_.end()) {
      break;
    }
    // Out of the vector before it runs: the callback may schedule or cancel.
    Callback cb = std::move(next->cb);
    events_.erase(next);
    cb();
  }
  SimTime due = kSimTimeMax;
  for (const Event& ev : events_) {
    due = std::min(due, ev.t);
  }
  // Every event left is later than `now`, so an alarm armed for `due` has
  // not fired yet (the owner marks the expiries it consumes): only a
  // new deadline costs the system call.
  if (due != armed_) {
    Arm(due);
  }
}

void ServeTimer::Arm(SimTime t) {
  armed_ = t;
  alarm_.Arm(t);
}

}  // namespace pard
