#include "serve/serve_clock.h"

#include <sys/prctl.h>
#include <time.h>

#include <cerrno>
#include <cmath>

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

void ServeClock::Start() { epoch_ns_ = MonotonicNs(); }

SimTime ServeClock::Now() const {
  const double wall_us = static_cast<double>(MonotonicNs() - epoch_ns_) / 1e3;
  return static_cast<SimTime>(wall_us * speedup_);
}

void ServeClock::SleepUntil(SimTime t) const {
  UseFineTimerSlack();
  if (t <= 0) {
    return;  // At or before the epoch: already past.
  }
  // Rounded up to the nanosecond, so Now() reads >= t once it has passed.
  const std::int64_t deadline =
      epoch_ns_ + static_cast<std::int64_t>(std::ceil(static_cast<double>(t) * 1e3 / speedup_));
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline / kNsPerSec);
  ts.tv_nsec = static_cast<long>(deadline % kNsPerSec);
  // An absolute deadline survives a signal: re-arm until it passes.
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

}  // namespace pard
