// Virtual time representation for the PARD simulator.
//
// All simulated time is carried as signed 64-bit microsecond ticks since the
// start of the simulation. Microseconds give sub-millisecond precision for
// batch-wait accounting (the paper reasons about waits in the 0..d_k range
// where d_k is tens of milliseconds) while keeping arithmetic exact.
#ifndef PARD_COMMON_TIME_TYPES_H_
#define PARD_COMMON_TIME_TYPES_H_

#include <cmath>
#include <cstdint>
#include <limits>

namespace pard {

// A point in virtual time, in microseconds since simulation start.
using SimTime = std::int64_t;
// A span of virtual time, in microseconds.
using Duration = std::int64_t;

inline constexpr SimTime kUsPerMs = 1000;
inline constexpr SimTime kUsPerSec = 1000 * 1000;
inline constexpr SimTime kSimTimeMax = std::numeric_limits<SimTime>::max();

// Rounds a microsecond count to the nearest tick, halves away from zero:
// exactly std::llround(us). On [0, 2^52) it truncates and adds one when the
// (exactly computed) fraction is at least 0.5, with no libm call; negatives,
// larger values, infinities and NaN go to std::llround itself.
inline Duration RoundToTick(double us) {
  if (us >= 0.0 && us < 0x1p52) {
    const auto whole = static_cast<Duration>(us);
    return whole + (us - static_cast<double>(whole) >= 0.5 ? 1 : 0);
  }
  return static_cast<Duration>(std::llround(us));
}

// Conversions. The *ToUs functions round to the nearest tick.
inline Duration MsToUs(double ms) { return RoundToTick(ms * 1e3); }
inline Duration SecToUs(double sec) { return RoundToTick(sec * 1e6); }
inline double UsToMs(Duration us) { return static_cast<double>(us) / 1e3; }
inline double UsToSec(Duration us) { return static_cast<double>(us) / 1e6; }

}  // namespace pard

#endif  // PARD_COMMON_TIME_TYPES_H_
