// Non-homogeneous Poisson arrival sampling from a RateFunction.
#ifndef PARD_TRACE_ARRIVAL_GENERATOR_H_
#define PARD_TRACE_ARRIVAL_GENERATOR_H_

#include <vector>

#include "common/rng.h"
#include "common/time_types.h"
#include "trace/rate_function.h"

namespace pard {

// Generates arrival timestamps over [begin, end) whose instantaneous
// intensity follows `rate`: Lewis–Shedler thinning against rate.MaxRate()
// (over every point, not just those in the window). Deterministic in `rng`.
//
// Each candidate costs two draws, an Exponential(1 / MaxRate()) gap added to
// a running time in seconds (rounded to its tick by SecToUs) and a
// NextDouble u, and becomes an arrival iff u < rate.At(tick) / MaxRate().
// The sampler walks the curve's segments forward with the candidates, and
// on each segment it knows a band [lo, hi] that holds every value that
// quotient can take there: the segment's lower and upper end rates over
// MaxRate(), widened by 1e-12. (Interpolation rounds by at most ~2^-52 of
// the larger end rate, so the quotient never leaves the band.) A draw
// below lo is an arrival and a draw at or above hi is not, which is what
// the full test would decide; only a draw inside the band evaluates the
// curve, through At's own arithmetic (RateFunction::Interpolate). A flat
// segment, and the flat extensions before the first point and after the
// last, evaluate to their rate exactly, so their band is that one value
// and every draw on them is settled. Hence the arrivals, and the state
// `rng` is left in, are exactly those of the plain thinning loop.
std::vector<SimTime> GenerateArrivals(const RateFunction& rate, SimTime begin, SimTime end,
                                      Rng& rng);

// Deterministic (evenly spaced) arrivals at a constant rate — useful in unit
// tests where Poisson noise would obscure the property under test.
std::vector<SimTime> GenerateUniformArrivals(double rate_per_sec, SimTime begin, SimTime end);

}  // namespace pard

#endif  // PARD_TRACE_ARRIVAL_GENERATOR_H_
