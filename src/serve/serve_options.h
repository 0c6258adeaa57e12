// Configuration specific to the wall-clock serving runtime.
//
// Same documentation convention as runtime/runtime_options.h: every option
// states its default and unit. Everything here is [serve]-only — the
// simulator never reads ServeOptions; knobs both substrates honor live in
// RuntimeOptions.
#ifndef PARD_SERVE_SERVE_OPTIONS_H_
#define PARD_SERVE_SERVE_OPTIONS_H_

#include "serve/load_generator.h"

namespace pard {

struct ServeOptions {
  // Virtual seconds per wall second. Default 20. 1.0 serves in true real
  // time; the default compresses a 240 s trace into 12 s of wall time.
  // Timing noise (wake-up latency after each absolute sleep: ~7 us wall at
  // the median, ~1 ms in the contended tail on 4 vCPUs) is multiplied by the
  // speedup in virtual terms, so very large values blur the latency
  // decomposition — keep <= ~100 for meaningful numbers.
  double speedup = 20.0;

  // How the load generator produces arrivals. Default kTrace.
  //   kTrace   — replay the harness trace's virtual timestamps (matched
  //              workload for sim-vs-serve comparison).
  //   kPoisson — open-loop homogeneous Poisson at `poisson_rate`.
  //   kMmpp    — two-state Markov-modulated Poisson (bursty stress).
  enum class Arrivals { kTrace, kPoisson, kMmpp };
  Arrivals arrivals = Arrivals::kTrace;
  double poisson_rate = 120.0;  // req/s (virtual), kPoisson only.
  MmppOptions mmpp;             // kMmpp only; defaults in load_generator.h.

  // Fleet-wide cap on emulated workers across all modules; provisioning
  // scales down proportionally when the plan exceeds it, and scale-ups and
  // recoveries spend only what is left. Default 64. Each module runs its
  // workers on one timer thread whatever their number, so this bounds the
  // emulated fleet, not the thread count.
  int max_total_threads = 64;

  // Request-broker ingress threads. 1 (default) delivers each arrival
  // inline on the load-generator thread. N > 1 fans source-module
  // deliveries (admission, dispatch, enqueue) across N broker threads
  // pulling from a shared backlog, exercising the control plane's lock-free
  // snapshot path concurrently. Delivery order at the source module becomes
  // approximate across brokers.
  int broker_threads = 1;

  // Fan the policy's incremental estimator refresh across a thread pool at
  // every control sync (ControlPlane::Options::parallel_refresh). Default
  // true. Per-module forked RNG streams keep the refreshed estimates
  // identical at any thread count; false runs the same incremental refresh
  // inline on the control thread.
  bool parallel_refresh = true;

  // Refresh-pool threads; 0 (default) = one per hardware thread. Ignored
  // unless parallel_refresh.
  int refresh_threads = 0;
};

}  // namespace pard

#endif  // PARD_SERVE_SERVE_OPTIONS_H_
