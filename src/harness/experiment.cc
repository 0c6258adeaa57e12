#include "harness/experiment.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "pipeline/apps.h"
#include "serve/serve_runtime.h"
#include "trace/arrival_generator.h"

namespace pard {

namespace {

PipelineSpec BuildSpec(const ExperimentConfig& config) {
  PipelineSpec spec =
      config.custom_spec.has_value() ? *config.custom_spec : MakeApp(config.app);
  if (config.slo_override > 0) {
    spec = PipelineSpec(spec.app_name(), config.slo_override, spec.modules());
  }
  return spec;
}

// Fills the trace-derived fields of `result` and returns the arrival stream.
// The same (seed, trace) always yields the same arrivals regardless of
// policy, so comparisons share workloads exactly.
std::vector<SimTime> BuildWorkload(const ExperimentConfig& config, ExperimentResult& result) {
  if (config.custom_trace.has_value()) {
    result.trace = *config.custom_trace;
    result.burst_region = TraceRegion{0, 0};
  } else {
    TraceOptions trace_options;
    trace_options.duration_s = config.duration_s;
    trace_options.base_rate = config.base_rate;
    trace_options.seed = config.seed;
    result.trace = MakeTrace(config.trace, trace_options);
    result.burst_region = BurstRegion(config.trace, trace_options);
  }
  result.mean_input_rate = result.trace.MeanRate(0, SecToUs(config.duration_s));

  Rng arrival_rng = Rng(config.seed).Fork("arrivals:" + config.trace);
  std::vector<SimTime> arrivals =
      GenerateArrivals(result.trace, 0, SecToUs(config.duration_s), arrival_rng);
  PARD_CHECK_MSG(!arrivals.empty(), "trace produced no arrivals");
  return arrivals;
}

RuntimeOptions BuildRuntimeOptions(const ExperimentConfig& config) {
  RuntimeOptions runtime = config.runtime;
  runtime.seed = config.seed;
  return runtime;
}

std::unique_ptr<DropPolicy> BuildPolicy(const ExperimentConfig& config) {
  PolicyParams params = config.params;
  params.seed = config.seed;
  return MakePolicy(config.policy, params);
}

// Owns the run's observability objects (the runtime only borrows pointers).
// Wire() installs them into `runtime`; Export() writes the output files
// after the run has quiesced.
struct ObsSession {
  std::unique_ptr<TraceRecorder> trace;
  std::unique_ptr<MetricsRegistry> metrics;

  // `ring_capacity` is per emitting thread: the simulator is one producer,
  // so it gets one large ring; serve mode keeps per-thread rings modest and
  // relies on the self-describing dropped_events count (or sampling) when a
  // long run overflows them.
  void Wire(const ExperimentConfig& config, RuntimeOptions& runtime,
            std::size_t ring_capacity) {
    if (!config.obs.trace_out.empty()) {
      TraceRecorder::Options options;
      options.sample_rate = config.obs.trace_sample_rate;
      options.seed = config.seed;
      options.ring_capacity = ring_capacity;
      trace = std::make_unique<TraceRecorder>(options);
      runtime.trace = trace.get();
    }
    if (!config.obs.metrics_out.empty()) {
      metrics = std::make_unique<MetricsRegistry>();
      runtime.metrics = metrics.get();
    }
  }

  void Export(const ExperimentConfig& config) {
    if (trace) {
      trace->WriteChromeTrace(config.obs.trace_out);
    }
    if (metrics) {
      metrics->WriteJson(config.obs.metrics_out);
    }
  }
};

// The fields a finished run fills alike in both substrates; `end` is the
// run's final virtual time, which closes the fleet's cost integral.
template <typename Runtime>
void FillRunResult(Runtime& runtime, SimTime end, DropPolicy& policy, ExperimentResult& result) {
  result.worker_history = runtime.worker_history();
  result.retries = runtime.retries();
  result.fleet_cost = runtime.fleet().AccumulatedCost(end);
  result.watchdog_recoveries = runtime.watchdog_recoveries();
  result.stale_fallbacks = runtime.control().StaleFallbacks();
  if (auto* pard = dynamic_cast<PardPolicy*>(&policy)) {
    result.transitions = pard->transition_log();
  }
  result.analysis = std::make_unique<RunAnalysis>(runtime.requests(), result.spec);
  result.drop_reason_counts = result.analysis->DropReasonCounts();
}

}  // namespace

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  ExperimentResult result;
  result.spec = BuildSpec(config);
  const std::vector<SimTime> arrivals = BuildWorkload(config, result);

  std::unique_ptr<DropPolicy> policy = BuildPolicy(config);
  RuntimeOptions runtime = BuildRuntimeOptions(config);
  ObsSession obs;
  obs.Wire(config, runtime, /*ring_capacity=*/std::size_t{1} << 20);

  PipelineRuntime pipeline(result.spec, runtime, policy.get(), result.mean_input_rate);
  pipeline.RunTrace(arrivals);
  obs.Export(config);
  FillRunResult(pipeline, pipeline.sim().Now(), *policy, result);
  return result;
}

ExperimentResult RunServeExperiment(const ExperimentConfig& config, const ServeOptions& serve) {
  ExperimentResult result;
  result.spec = BuildSpec(config);
  const std::vector<SimTime> arrivals = BuildWorkload(config, result);

  std::unique_ptr<DropPolicy> policy = BuildPolicy(config);
  RuntimeOptions runtime = BuildRuntimeOptions(config);
  ObsSession obs;
  obs.Wire(config, runtime, /*ring_capacity=*/std::size_t{1} << 16);

  ServeRuntime server(result.spec, runtime, policy.get(), result.mean_input_rate, serve);
  server.RunTrace(arrivals);
  obs.Export(config);
  FillRunResult(server, server.clock().Now(), *policy, result);
  return result;
}

std::vector<ExperimentResult> RunExperiments(const std::vector<ExperimentConfig>& configs,
                                             int jobs) {
  // Each task builds its own policy and runtime, so tasks share nothing
  // mutable and each result lands at its config's index.
  std::vector<ExperimentResult> results(configs.size());
  ParallelFor(jobs, configs.size(),
              [&](std::size_t i) { results[i] = RunExperiment(configs[i]); });
  return results;
}

namespace {

ReplicatedMetric Summarize(const std::vector<double>& values) {
  ReplicatedMetric m;
  if (values.empty()) {
    return m;
  }
  m.min = values.front();
  m.max = values.front();
  double sum = 0.0;
  for (double v : values) {
    sum += v;
    m.min = std::min(m.min, v);
    m.max = std::max(m.max, v);
  }
  m.mean = sum / static_cast<double>(values.size());
  if (values.size() > 1) {
    double sq = 0.0;
    for (double v : values) {
      sq += (v - m.mean) * (v - m.mean);
    }
    m.stddev = std::sqrt(sq / static_cast<double>(values.size() - 1));
  }
  return m;
}

}  // namespace

ReplicatedResult RunReplicated(const ExperimentConfig& config, int replicas, int jobs) {
  PARD_CHECK(replicas >= 1);
  std::vector<ExperimentConfig> grid;
  grid.reserve(static_cast<std::size_t>(replicas));
  for (int i = 0; i < replicas; ++i) {
    ExperimentConfig replica = config;
    replica.seed = config.seed + static_cast<std::uint64_t>(i);
    grid.push_back(std::move(replica));
  }
  const std::vector<ExperimentResult> results = RunExperiments(grid, jobs);

  std::vector<double> drops;
  std::vector<double> invalids;
  std::vector<double> goodputs;
  for (const ExperimentResult& r : results) {
    drops.push_back(r.analysis->DropRate());
    invalids.push_back(r.analysis->InvalidRate());
    goodputs.push_back(r.analysis->NormalizedGoodput());
  }
  ReplicatedResult out;
  out.replicas = replicas;
  out.drop_rate = Summarize(drops);
  out.invalid_rate = Summarize(invalids);
  out.normalized_goodput = Summarize(goodputs);
  return out;
}

}  // namespace pard
