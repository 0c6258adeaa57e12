// pardsim — command-line experiment runner.
//
// Runs one serving experiment (app x trace x policy) and prints a summary or
// a full JSON report. Example:
//
//   pardsim --app lv --trace tweet --policy pard --duration-s 150
//           --base-rate 200 --enable-scaling --json
//
// Heterogeneous fleets and fleet dynamics:
//
//   pardsim --app lv --backend-grades 1.0,0.5 --fault-schedule 60:1:kill:2,80:1:add:2
//           --serve --enable-scaling --speedup 25
//
// See --help for all knobs.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/policy_factory.h"
#include "common/check.h"
#include "common/flags.h"
#include "core/latency_estimator.h"
#include "harness/experiment.h"
#include "jsonio/json.h"
#include "metrics/report.h"
#include "obs/drop_reason.h"
#include "pipeline/apps.h"
#include "pipeline/backend_profile.h"
#include "pipeline/pipeline_spec.h"
#include "pipeline/tenant_spec.h"
#include "resilience/chaos.h"
#include "runtime/backend_fleet.h"
#include "trace/traces.h"

namespace {

pard::FlagSet BuildFlags() {
  pard::FlagSet flags;
  flags.AddString("app", "lv", "pipeline application: tm | lv | gm | da | lvhet");
  flags.AddString("trace", "tweet",
                  "workload trace: wiki | tweet | azure | poisson (constant --base-rate) "
                  "| mmpp (bursty: --base-rate and 4x --base-rate)");
  flags.AddString("policy", "pard",
                  "drop policy: pard, nexus, clipper++, naive, pard-back, pard-sf, "
                  "pard-oc, pard-split, pard-wcl, pard-lower, pard-upper, pard-fcfs, "
                  "pard-hbf, pard-lbf, pard-instant, pard-path");
  flags.AddString("pipeline-json", "",
                  "path to a JSON pipeline definition (overrides --app)");
  flags.AddDouble("duration-s", 150.0, "trace length in seconds");
  flags.AddDouble("base-rate", 200.0, "trace base rate, req/s");
  flags.AddDouble("slo-ms", 0.0, "override the app SLO (0 = app default)");
  flags.AddDouble("lambda", 0.1, "PARD batch-wait quantile");
  flags.AddInt("mc-samples", pard::kDefaultMcSamples,
               "estimator Monte-Carlo draws per epoch refresh (paper setup keeps "
               "M = 10000 reservoir samples per module; the default converges the "
               "lambda quantile at a fraction of the refresh cost)");
  flags.AddDouble("provision", 1.25, "capacity headroom over the mean rate");
  flags.AddDouble("window-s", 5.0, "state-planner sliding window length");
  flags.AddInt("seed", 7, "master random seed");
  flags.AddBool("enable-scaling", true,
                "enable the resource-scaling engine (both substrates; in --serve mode "
                "scale-ups serve after their backend's cold start, capped at the "
                "serving worker budget)");
  flags.AddString("backend-grades", "",
                  "comma-separated speed grades composing a heterogeneous backend "
                  "catalog (e.g. 1.0,0.5); each grade takes an optional @cost "
                  "suffix in cost-units/s (e.g. 1.0@3.5,0.5@1.0; default cost 1). "
                  "Workers draw grades round-robin, or by best speed-per-cost "
                  "with --cost-aware. Conflicts with a pipeline that already "
                  "declares backends");
  flags.AddBool("cost-aware", false,
                "provision each scale-up against the cheapest effective backend "
                "grade (argmax of effective speed / cost_per_s) instead of "
                "round-robin; both substrates");
  flags.AddString("tenants", "",
                  "path to a {\"tenants\": [...]} JSON catalog (see "
                  "configs/tenants_mixed.json); requests are hash-assigned to "
                  "tenants, admission maximizes weighted goodput, and the "
                  "summary/JSON gain a per-tenant block");
  flags.AddString("fault-schedule", "",
                  "deterministic fleet disturbances: comma-separated "
                  "<at_s>:<module>:<kill|add>:<count> events (e.g. "
                  "60:1:kill:2,80:1:add:2), honored by both substrates");
  flags.AddString("chaos-schedule", "",
                  "chaos injections: comma-separated "
                  "<at_s>:<module>:hang:<count>[:<dur_s>] | "
                  "<at_s>:<module>:slow:<factor>:<dur_s> | "
                  "<at_s>:stall-sync:<dur_s> | "
                  "prob:<module>:hang:<rate_per_s>:<until_s> events; probabilistic "
                  "entries expand deterministically from --seed, honored by both "
                  "substrates");
  flags.AddInt("max-retries", 0,
               "deadline-aware retry budget for requests lost to worker failures "
               "(0 = legacy behavior: in-flight work on a killed worker is dropped)");
  flags.AddDouble("hang-budget-s", 0.0,
                  "watchdog hang budget in virtual seconds; a worker hung for longer "
                  "than this is force-failed and replaced (0 = watchdog off)");
  flags.AddDouble("staleness-budget-s", 0.0,
                  "control-snapshot staleness budget in virtual seconds; readers of "
                  "an older snapshot fall back to conservative static drop rules "
                  "(0 = never degrade)");
  flags.AddBool("dynamic-paths", false, "requests take one branch per fork (dynamic DAG)");
  flags.AddBool("json", false, "emit a full JSON report instead of text");
  flags.AddBool("serve", false,
                "wall-clock serving mode: each module's workers driven by its own "
                "timer thread + open-loop load generator instead of the "
                "discrete-event simulator");
  flags.AddDouble("speedup", 20.0,
                  "serving mode: virtual seconds per wall second (1 = real time)");
  flags.AddInt("broker-threads", 1,
               "serving mode: broker threads fanning injected requests into the "
               "pipeline (admission runs under the source module's mutex, so N > 1 "
               "brokers serialize there; delivery order across brokers is "
               "approximate)");
  flags.AddBool("parallel-refresh", false,
                "serving mode: fan the incremental estimator refresh across a "
                "thread pool at every control sync (per-module RNG streams keep "
                "results identical at any thread count); false = refresh inline "
                "on the control thread");
  flags.AddInt("refresh-threads", 0,
               "serving mode: estimator refresh-pool threads (0 = one per "
               "hardware thread); ignored without --parallel-refresh");
  flags.AddString("trace-out", "",
                  "write a Chrome trace-event JSON of per-request lifecycle spans "
                  "to this path (load at https://ui.perfetto.dev); empty = tracing off");
  flags.AddDouble("trace-sample-rate", 1.0,
                  "fraction of requests traced, [0, 1]; sampling is deterministic "
                  "per request id, so a sim run replays to an identical trace");
  flags.AddString("metrics-out", "",
                  "write live-metrics JSON (counter totals, gauges, histograms and "
                  "a sampled time series) to this path; empty = metrics off");
  flags.AddDouble("metrics-interval-s", 1.0,
                  "metrics sampling period in virtual seconds (both substrates)");
  return flags;
}

// Reads all of `path` into `text`; prints "cannot open <path>" and returns
// false when it cannot be opened.
bool ReadFile(const std::string& path, std::string* text) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text->append(buf, n);
  }
  std::fclose(f);
  return true;
}

// Runs `make`, which builds something from a name flag; prints the
// CheckError an unknown name raises under `flag` and returns false.
template <typename Make>
bool KnownName(const char* flag, Make make) {
  try {
    make();
  } catch (const pard::CheckError& e) {
    std::fprintf(stderr, "%s: %s\n", flag, e.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  pard::FlagSet flags = BuildFlags();
  try {
    flags.Parse(argc - 1, argv + 1);
  } catch (const pard::CheckError& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), flags.Usage("pardsim").c_str());
    return 2;
  }
  if (flags.HelpRequested()) {
    std::printf("%s", flags.Usage("pardsim").c_str());
    return 0;
  }
  // pardsim takes flags only: a stray word is a mistake (often the path
  // after a bare boolean such as --json), not something to run without.
  if (!flags.positional().empty()) {
    std::fprintf(stderr,
                 "%s: unexpected argument; pardsim takes only flags, and a boolean flag "
                 "such as --json takes no separate value\n",
                 flags.positional().front().c_str());
    return 2;
  }
  // Numbers a run cannot use are flag errors, so they fail here rather than
  // in the run (or, worse, run quietly), whichever substrate runs.
  for (const char* name : {"duration-s", "base-rate", "window-s", "provision", "speedup",
                           "metrics-interval-s"}) {
    const double value = flags.GetDouble(name);
    if (!(value > 0.0) || !std::isfinite(value)) {
      std::fprintf(stderr, "--%s must be finite and > 0 (got %g)\n", name, value);
      return 2;
    }
  }
  for (const char* name : {"slo-ms", "hang-budget-s", "staleness-budget-s"}) {
    const double value = flags.GetDouble(name);
    if (!(value >= 0.0) || !std::isfinite(value)) {
      std::fprintf(stderr, "--%s must be finite and >= 0 (got %g)\n", name, value);
      return 2;
    }
  }
  for (const char* name : {"lambda", "trace-sample-rate"}) {
    const double value = flags.GetDouble(name);
    if (!(value >= 0.0 && value <= 1.0)) {
      std::fprintf(stderr, "--%s must be in [0, 1] (got %g)\n", name, value);
      return 2;
    }
  }

  pard::ExperimentConfig config;
  config.app = flags.GetString("app");
  config.trace = flags.GetString("trace");
  config.policy = flags.GetString("policy");
  config.duration_s = flags.GetDouble("duration-s");
  config.base_rate = flags.GetDouble("base-rate");
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  config.runtime.provision_headroom = flags.GetDouble("provision");
  config.params.lambda = flags.GetDouble("lambda");
  const std::int64_t mc_samples = flags.GetInt("mc-samples");
  if (mc_samples < 1 || mc_samples > 1000000) {
    std::fprintf(stderr, "--mc-samples must be in [1, 1000000] (got %lld)\n",
                 static_cast<long long>(mc_samples));
    return 2;
  }
  config.params.mc_samples = static_cast<int>(mc_samples);
  config.runtime.stats_window = pard::SecToUs(flags.GetDouble("window-s"));
  config.runtime.enable_scaling = flags.GetBool("enable-scaling");
  config.runtime.dynamic_paths = flags.GetBool("dynamic-paths");
  if (!flags.GetString("fault-schedule").empty()) {
    try {
      config.runtime.fleet_events = pard::ParseFaultSchedule(flags.GetString("fault-schedule"));
    } catch (const pard::CheckError& e) {
      std::fprintf(stderr, "--fault-schedule: %s\n", e.what());
      return 2;
    }
  }
  if (!flags.GetString("chaos-schedule").empty()) {
    try {
      config.runtime.resilience.chaos =
          pard::ParseChaosSchedule(flags.GetString("chaos-schedule"));
    } catch (const pard::CheckError& e) {
      std::fprintf(stderr, "--chaos-schedule: %s\n", e.what());
      return 2;
    }
  }
  const std::int64_t max_retries = flags.GetInt("max-retries");
  if (max_retries < 0 || max_retries > 1000) {
    std::fprintf(stderr, "--max-retries must be in [0, 1000] (got %lld)\n",
                 static_cast<long long>(max_retries));
    return 2;
  }
  config.runtime.resilience.max_retries = static_cast<int>(max_retries);
  config.runtime.resilience.hang_budget = pard::SecToUs(flags.GetDouble("hang-budget-s"));
  config.runtime.resilience.staleness_budget =
      pard::SecToUs(flags.GetDouble("staleness-budget-s"));
  if (flags.GetDouble("slo-ms") > 0.0) {
    config.slo_override = pard::MsToUs(flags.GetDouble("slo-ms"));
  }
  if (!flags.GetString("pipeline-json").empty()) {
    std::string text;
    if (!ReadFile(flags.GetString("pipeline-json"), &text)) {
      return 2;
    }
    try {
      config.custom_spec = pard::PipelineSpec::FromJsonText(text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--pipeline-json %s: %s\n",
                   flags.GetString("pipeline-json").c_str(), e.what());
      return 2;
    }
  }
  // Unknown names are flag errors, so they fail here rather than in the run.
  if (!KnownName("--trace", [&] { pard::MakeTrace(config.trace, pard::TraceOptions{}); }) ||
      (!config.custom_spec.has_value() &&
       !KnownName("--app", [&] { pard::MakeApp(config.app); })) ||
      !KnownName("--policy", [&] { pard::MakePolicy(config.policy); })) {
    return 2;
  }
  if (!flags.GetString("backend-grades").empty()) {
    pard::PipelineSpec spec = config.custom_spec.has_value()
                                  ? *config.custom_spec
                                  : pard::MakeApp(config.app);
    if (!spec.backends().empty()) {
      std::fprintf(stderr,
                   "--backend-grades conflicts with a pipeline that already declares a "
                   "backend catalog (%s)\n",
                   config.custom_spec.has_value() ? "--pipeline-json" : config.app.c_str());
      return 2;
    }
    try {
      spec.set_backends(pard::ParseBackendGrades(flags.GetString("backend-grades")));
    } catch (const pard::CheckError& e) {
      std::fprintf(stderr, "--backend-grades: %s\n", e.what());
      return 2;
    }
    config.custom_spec = std::move(spec);
  }
  // Schedules name modules by id; check them against the pipeline that runs.
  const int modules = config.custom_spec.has_value() ? config.custom_spec->NumModules()
                                                     : pard::MakeApp(config.app).NumModules();
  for (const pard::FleetEvent& event : config.runtime.fleet_events) {
    if (event.module_id >= modules) {
      std::fprintf(stderr, "--fault-schedule names module %d; the pipeline has modules 0..%d\n",
                   event.module_id, modules - 1);
      return 2;
    }
  }
  for (const pard::ChaosEvent& event : config.runtime.resilience.chaos.events) {
    if (event.module_id >= modules) {
      std::fprintf(stderr, "--chaos-schedule names module %d; the pipeline has modules 0..%d\n",
                   event.module_id, modules - 1);
      return 2;
    }
  }
  config.runtime.cost_aware_provisioning = flags.GetBool("cost-aware");
  if (!flags.GetString("tenants").empty()) {
    std::string text;
    if (!ReadFile(flags.GetString("tenants"), &text)) {
      return 2;
    }
    try {
      config.runtime.tenants = pard::ParseTenantCatalogText(text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--tenants %s: %s\n", flags.GetString("tenants").c_str(),
                   e.what());
      return 2;
    }
  }

  config.obs.trace_out = flags.GetString("trace-out");
  config.obs.trace_sample_rate = flags.GetDouble("trace-sample-rate");
  config.obs.metrics_out = flags.GetString("metrics-out");
  config.runtime.metrics_interval = pard::SecToUs(flags.GetDouble("metrics-interval-s"));

  // Serve's options are checked, and ignored, in a simulator run too.
  const bool serve_mode = flags.GetBool("serve");
  pard::ServeOptions serve;
  serve.speedup = flags.GetDouble("speedup");
  const std::int64_t broker_threads = flags.GetInt("broker-threads");
  if (broker_threads < 1 || broker_threads > 64) {
    std::fprintf(stderr, "--broker-threads must be in [1, 64] (got %lld)\n",
                 static_cast<long long>(broker_threads));
    return 2;
  }
  serve.broker_threads = static_cast<int>(broker_threads);
  const std::int64_t refresh_threads = flags.GetInt("refresh-threads");
  if (refresh_threads < 0 || refresh_threads > 64) {
    std::fprintf(stderr, "--refresh-threads must be in [0, 64] (got %lld)\n",
                 static_cast<long long>(refresh_threads));
    return 2;
  }
  serve.parallel_refresh = flags.GetBool("parallel-refresh");
  serve.refresh_threads = static_cast<int>(refresh_threads);

  pard::ExperimentResult result;
  try {
    result = serve_mode ? pard::RunServeExperiment(config, serve) : pard::RunExperiment(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "experiment failed: %s\n", e.what());
    return 1;
  }
  const pard::RunAnalysis& a = *result.analysis;

  const bool resilience_on = !config.runtime.resilience.chaos.empty() ||
                             config.runtime.resilience.max_retries > 0 ||
                             config.runtime.resilience.hang_budget > 0 ||
                             config.runtime.resilience.staleness_budget > 0;

  const bool tenants_on = !config.runtime.tenants.empty();

  if (flags.GetBool("json")) {
    pard::JsonValue report = pard::BuildRunReport(a);
    if (resilience_on) {
      pard::JsonObject resilience;
      resilience["retries"] = static_cast<std::int64_t>(result.retries);
      resilience["watchdog_recoveries"] =
          static_cast<std::int64_t>(result.watchdog_recoveries);
      resilience["stale_fallbacks"] = static_cast<std::int64_t>(result.stale_fallbacks);
      report.AsObject()["resilience"] = std::move(resilience);
    }
    if (tenants_on) {
      report.AsObject()["tenants"] =
          pard::BuildTenantReport(a, config.runtime.tenants);
    }
    // The cost block only appears when the run opted into tenancy or
    // cost-aware provisioning, keeping legacy JSON reports byte-stable.
    if (tenants_on || config.runtime.cost_aware_provisioning) {
      pard::JsonObject cost;
      cost["fleet_cost"] = result.fleet_cost;
      cost["weighted_goodput_per_cost"] =
          result.fleet_cost > 0.0 ? a.WeightedGoodCount() / result.fleet_cost : 0.0;
      report.AsObject()["cost"] = std::move(cost);
    }
    std::printf("%s\n", report.Dump(2).c_str());
    return 0;
  }

  std::printf("app=%s trace=%s policy=%s  (%zu requests, mean input %.0f req/s)\n",
              result.spec.app_name().c_str(), config.trace.c_str(), config.policy.c_str(),
              a.Total(), result.mean_input_rate);
  std::printf("workload: duration %g s, base rate %g req/s", config.duration_s,
              config.base_rate);
  if (serve_mode) {
    std::printf(", serving live (speedup %gx; wall-clock timing — numbers vary run to run)",
                serve.speedup);
  }
  std::printf("\n");
  if (resilience_on) {
    std::printf("resilience     retries %llu, watchdog recoveries %llu, stale fallbacks %llu\n",
                static_cast<unsigned long long>(result.retries),
                static_cast<unsigned long long>(result.watchdog_recoveries),
                static_cast<unsigned long long>(result.stale_fallbacks));
  }
  std::printf("goodput        %10.1f req/s  (normalized %.3f)\n", a.MeanGoodput(),
              a.NormalizedGoodput());
  std::printf("drop rate      %10.2f %%\n", 100.0 * a.DropRate());
  std::printf("invalid rate   %10.2f %%\n", 100.0 * a.InvalidRate());
  std::printf("drop placement ");
  const auto share = a.PerModuleDropShare();
  for (std::size_t m = 0; m < share.size(); ++m) {
    std::printf(" M%zu %.1f%%", m + 1, 100.0 * share[m]);
  }
  std::printf("\n");
  const std::size_t total_dropped = a.DroppedCount();
  if (total_dropped > 0) {
    std::printf("drop reasons   (of %zu dropped)\n", total_dropped);
    // Every dropped request names its reason (CheckRunInvariants' rule 1), so
    // the kNone slot stays 0.
    const std::vector<std::size_t> reasons = a.DropReasonCounts();
    for (int r = 1; r < pard::kNumDropReasons; ++r) {
      const std::size_t count = reasons[static_cast<std::size_t>(r)];
      if (count == 0) {
        continue;
      }
      std::printf("  %-20s %8zu  (%.1f%%)\n",
                  pard::DropReasonName(static_cast<pard::DropReason>(r)), count,
                  100.0 * static_cast<double>(count) / static_cast<double>(total_dropped));
    }
  }
  if (tenants_on || config.runtime.cost_aware_provisioning) {
    std::printf("fleet cost     %10.1f cost-units  (weighted goodput/cost %.4f)\n",
                result.fleet_cost,
                result.fleet_cost > 0.0 ? a.WeightedGoodCount() / result.fleet_cost
                                        : 0.0);
  }
  if (tenants_on) {
    std::printf("tenants        (%zu configured; weighted normalized goodput %.3f)\n",
                config.runtime.tenants.size(), a.WeightedNormalizedGoodput());
    const auto breakdown = a.PerTenant();
    std::printf("  %-12s %6s %6s %8s %8s %7s %7s\n", "name", "weight", "share",
                "total", "good", "admit%", "ngood");
    for (std::size_t t = 0; t < config.runtime.tenants.size(); ++t) {
      const pard::TenantSpec& spec = config.runtime.tenants[t];
      const pard::TenantBreakdown b =
          t < breakdown.size() ? breakdown[t] : pard::TenantBreakdown{};
      const std::size_t shed =
          b.drop_reasons.empty()
              ? 0
              : b.drop_reasons[static_cast<std::size_t>(pard::DropReason::kTenantShed)];
      const double admit =
          b.total == 0 ? 1.0
                       : 1.0 - static_cast<double>(shed) / static_cast<double>(b.total);
      std::printf("  %-12s %6.1f %6.2f %8zu %8zu %6.1f%% %7.3f\n", spec.name.c_str(),
                  spec.weight, spec.share, b.total, b.good, 100.0 * admit,
                  b.NormalizedGoodput());
    }
  }
  return 0;
}
