// Configuration specific to the wall-clock serving runtime.
//
// Same documentation convention as runtime/runtime_options.h: every option
// states its default and unit. Everything here is [serve]-only — how fast
// wall time runs and which threads carry the work; the simulator never
// reads ServeOptions. The workload (ExperimentConfig's trace) and every
// knob both substrates honor, metrics sampling included, live elsewhere
// (harness/experiment.h, runtime/runtime_options.h).
#ifndef PARD_SERVE_SERVE_OPTIONS_H_
#define PARD_SERVE_SERVE_OPTIONS_H_

namespace pard {

struct ServeOptions {
  // Virtual seconds per wall second. Default 20. 1.0 serves in true real
  // time; the default compresses a 240 s trace into 12 s of wall time.
  // Timing noise (wake-up latency after each absolute sleep: ~7 us wall at
  // the median, ~1 ms in the contended tail on 4 vCPUs) is multiplied by the
  // speedup in virtual terms, so very large values blur the latency
  // decomposition — keep <= ~100 for meaningful numbers.
  double speedup = 20.0;

  // Fleet-wide cap on emulated workers across all modules; provisioning
  // scales down proportionally when the plan exceeds it, and scale-ups and
  // recoveries spend only what is left. Default 64. Each module runs its
  // workers on one timer thread whatever their number, so this bounds the
  // emulated fleet, not the thread count.
  int max_total_threads = 64;

  // Request-broker ingress threads. 1 (default) delivers each arrival
  // inline on the injecting thread (the one running ServeRuntime::RunTrace).
  // N > 1 fans source-module deliveries (admission, dispatch, enqueue)
  // across N broker threads pulling from a shared backlog. Admission runs
  // inside the source module under its mutex, so the brokers serialize
  // there and add only a queue hop. Delivery order at the source module
  // becomes approximate across brokers.
  int broker_threads = 1;

  // Fan the policy's incremental estimator refresh across a thread pool at
  // every control sync (ControlPlane::Options::parallel_refresh). Default
  // false: the same incremental refresh runs inline on the control thread,
  // as in the simulator, and no pool thread starts. Per-module forked RNG
  // streams keep the refreshed estimates identical at any thread count.
  bool parallel_refresh = false;

  // Refresh-pool threads; 0 (default) = one per hardware thread. Ignored
  // unless parallel_refresh.
  int refresh_threads = 0;
};

}  // namespace pard

#endif  // PARD_SERVE_SERVE_OPTIONS_H_
