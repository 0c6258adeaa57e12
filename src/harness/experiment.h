// One-call experiment harness.
//
// Wires trace generation, provisioning, policy construction, the pipeline
// runtime and the metrics analysis into a single entry point so benches,
// examples and integration tests all run experiments the same way:
//
//   ExperimentConfig cfg;
//   cfg.app = "lv"; cfg.trace = "tweet"; cfg.policy = "pard";
//   ExperimentResult r = RunExperiment(cfg);
//   r.analysis->DropRate(); ...
//
// Identical (app, trace, seed, rates) produce identical arrival streams for
// every policy, so cross-policy comparisons are apples-to-apples.
#ifndef PARD_HARNESS_EXPERIMENT_H_
#define PARD_HARNESS_EXPERIMENT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/policy_factory.h"
#include "core/pard_policy.h"
#include "metrics/analysis.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/runtime_options.h"
#include "serve/serve_options.h"
#include "trace/traces.h"

namespace pard {

struct ExperimentConfig {
  std::string app = "lv";      // tm | lv | gm | da
  std::string trace = "tweet";  // wiki | tweet | azure | poisson | mmpp
  std::string policy = "pard";  // Any MakePolicy name.

  // When set, overrides `app` with an arbitrary pipeline (e.g. a JSON-loaded
  // or synthetic spec).
  std::optional<PipelineSpec> custom_spec;

  // When set, overrides `trace` with an arbitrary rate curve (e.g. a constant
  // offered rate or a bespoke oscillation). `duration_s` still bounds the
  // arrival window; `base_rate` is ignored and the burst region is empty.
  std::optional<RateFunction> custom_trace;

  // Trace shape. Defaults compress the paper's ~1000 s traces into 240 s at
  // a rate the simulated cluster can serve at mean load but not at burst
  // peaks — the regime where dropping policy matters.
  double duration_s = 240.0;
  double base_rate = 120.0;
  std::uint64_t seed = 42;

  PolicyParams params;
  // Capacity is planned for runtime.provision_headroom x the trace's mean
  // rate (bursts then exceed capacity, as in the paper's bursty regions);
  // runtime.fixed_workers overrides it entirely.
  RuntimeOptions runtime;

  // Optional SLO override (us); 0 keeps the app default.
  Duration slo_override = 0;

  // Observability (src/obs/). When trace_out / metrics_out are non-empty the
  // harness owns a TraceRecorder / MetricsRegistry for the run, wires the
  // borrowed pointers into `runtime`, and writes the export file after the
  // run returns; runtime.metrics_interval sets the sampling period. Leave
  // the paths empty (the default) to disable all instrumentation — goldens
  // stay bit-identical.
  struct ObsConfig {
    std::string trace_out;              // Chrome trace-event JSON (Perfetto).
    double trace_sample_rate = 1.0;     // Fraction of requests traced.
    std::string metrics_out;            // Metrics JSON (totals + time series).
  };
  ObsConfig obs;
};

struct ExperimentResult {
  std::unique_ptr<RunAnalysis> analysis;
  PipelineSpec spec;
  RateFunction trace;
  TraceRegion burst_region{0, 0};
  double mean_input_rate = 0.0;

  // PARD-specific extras (empty for other policies).
  std::vector<PardPolicy::TransitionSample> transitions;
  std::vector<FleetSample> worker_history;

  // Resilience tallies (all zero unless runtime.resilience is configured):
  // successful deadline-aware re-enqueues after worker failures, workers the
  // watchdog force-failed for exceeding the hang budget, and broker
  // decisions made under the stale-snapshot fallback rules (both
  // substrates).
  std::uint64_t retries = 0;
  std::uint64_t watchdog_recoveries = 0;
  std::uint64_t stale_fallbacks = 0;

  // Total provisioning cost of the run in cost-units: each worker accrues
  // its backend's cost_per_s over the interval it was provisioned (see
  // BackendFleet::AccumulatedCost). With the default single-grade catalog
  // (cost_per_s == 1.0 everywhere) this is worker-seconds.
  double fleet_cost = 0.0;
};

ExperimentResult RunExperiment(const ExperimentConfig& config);

// Runs a grid of independent experiments on `jobs` worker threads (jobs < 1
// means one per hardware thread; see exec/thread_pool.h). Results are
// positionally matched to configs and bit-identical for every job count —
// parallelism changes wall-clock only, never numbers. The first exception
// any experiment throws is re-thrown here once every config has run.
std::vector<ExperimentResult> RunExperiments(const std::vector<ExperimentConfig>& configs,
                                             int jobs);

// Serves the experiment's workload through the wall-clock threaded runtime
// (src/serve/) instead of the discrete-event simulator: same spec, the same
// deterministic arrival stream RunExperiment injects, same policy
// construction, and the same metrics records/analysis — but module workers
// are real threads fed by an open-loop replay on the calling thread, so the
// run takes duration_s / serve.speedup of wall time and numbers vary run to
// run.
// runtime.enable_scaling runs the live scaling engine (scale-ups are real
// threads after their backend's cold start, capped at
// serve.max_total_threads) and populates worker_history with the per-epoch
// fleet; runtime.fleet_events applies the deterministic kill/recover
// schedule mid-run. The PARD transition log is collected after
// the run, as in the simulator.
ExperimentResult RunServeExperiment(const ExperimentConfig& config, const ServeOptions& serve);

// Replicated runs: the same experiment across `replicas` seeds
// (config.seed, config.seed+1, ...), with mean and sample standard deviation
// of the headline metrics. Use to put error bars on any comparison. Replicas
// are independent, so they run on `jobs` threads like RunExperiments.
struct ReplicatedMetric {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct ReplicatedResult {
  int replicas = 0;
  ReplicatedMetric drop_rate;
  ReplicatedMetric invalid_rate;
  ReplicatedMetric normalized_goodput;
};

ReplicatedResult RunReplicated(const ExperimentConfig& config, int replicas, int jobs = 1);

}  // namespace pard

#endif  // PARD_HARNESS_EXPERIMENT_H_
