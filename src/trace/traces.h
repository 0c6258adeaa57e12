// Synthetic versions of the paper's three real-world traces (§5.1, Fig. 10
// left): Wikipedia access (periodic, CV≈0.47), Twitter access (bursty with a
// 2x step near t=850 s, CV≈1.0) and Azure Functions (highly bursty, CV≈1.3).
//
// The real traces are not redistributable; these generators reproduce the
// published shape parameters — mean level, periodicity, burst structure and
// coefficient of variation — which are the only properties the evaluation
// depends on.
//
// Two synthetic shapes sit beside them: a constant rate (homogeneous
// Poisson arrivals once GenerateArrivals samples it) and a two-state
// Markov-modulated rate (bursty on/off load without replaying a trace).
// Every workload is a rate curve, so both substrates draw their arrivals
// from it the same way.
#ifndef PARD_TRACE_TRACES_H_
#define PARD_TRACE_TRACES_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "trace/rate_function.h"

namespace pard {

struct TraceOptions {
  // Total trace length in seconds (paper traces are ~1000-1400 s).
  double duration_s = 1000.0;
  // Mean request rate in req/s around which the curve oscillates.
  double base_rate = 250.0;
  // RNG seed for the noise/burst structure.
  std::uint64_t seed = 7;
};

// Diurnal-style periodic trace, CV ~= 0.45-0.5.
RateFunction MakeWikiTrace(const TraceOptions& options);

// Bursty trace with a sudden 2x rate step around 60% of the duration
// (the event the paper analyzes at t=850 s), CV ~= 1.0.
RateFunction MakeTweetTrace(const TraceOptions& options);

// Highly bursty serverless-style trace with spiky invocations, CV ~= 1.3.
RateFunction MakeAzureTrace(const TraceOptions& options);

// Two-state Markov-modulated rate: the curve alternates between a quiet
// and a burst rate, with exponentially distributed dwells in each state.
struct MmppOptions {
  double base_rate = 100.0;    // req/s in the quiet state.
  double burst_rate = 400.0;   // req/s in the burst state.
  double mean_base_s = 8.0;    // Mean dwell in the quiet state, seconds.
  double mean_burst_s = 2.0;   // Mean dwell in the burst state, seconds.
};

// The MMPP's rate as a step curve over [0, end): starts quiet, then one
// exponential dwell draw from `rng` per state segment (each at least 2 us,
// the last cut at `end`).
RateFunction MakeMmppTrace(const MmppOptions& mmpp, SimTime end, Rng& rng);

// Dispatch by name: "wiki" | "tweet" | "azure" | "poisson" (constant at
// base_rate) | "mmpp" (MmppOptions' dwells between base_rate and
// 4 x base_rate, drawn from the seed).
RateFunction MakeTrace(const std::string& name, const TraceOptions& options);

// The sub-interval of the trace the paper zooms into in Fig. 10 (the
// "red-boxed region"): the most overloaded stretch. Returned as [begin, end]
// in simulation time.
struct TraceRegion {
  SimTime begin;
  SimTime end;
};
TraceRegion BurstRegion(const std::string& name, const TraceOptions& options);

}  // namespace pard

#endif  // PARD_TRACE_TRACES_H_
