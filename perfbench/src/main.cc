// goodput_bench: one workload of the end-to-end goodput benchmark.
//
//   goodput_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--commit <id>] [--out-dir <dir>]
//   goodput_bench --schema     (prints every metric name and unit)
//
// Repeats the workload until --seconds of wall time are used (at least once;
// twice for the simulator, whose repetitions must be bit-identical) and
// reports medians over the repetitions. --trace 0 reports the end-to-end
// metrics; --trace 1 spends the first half of the budget untraced and the
// second half traced, and reports the per-layer metrics plus the traced
// minus untraced difference of every end-to-end metric. Every repetition's
// outputs are checked; the last stdout line is one JSON object, and the exit
// code is non-zero when any check failed. perfbench/LAYERS.md documents the
// workloads, metrics and checks.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ledger.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// A serve workload's median untraced goodput must stay this close to the
// simulator's on the same arrivals. On a 4-vCPU host serve-da-mmpp-tenants
// runs 0.02-0.05 below the simulator (timing from the scheduled send charges
// serve the generator's lateness and timer overshoot) and single repetitions
// dipped to 0.10 below, so the check guards against a broken serve path,
// not against host noise.
constexpr double kFidelityTolerance = 0.15;
// Repetitions stop once this much wall time is spent, whatever --seconds says,
// so a run always ends well inside the 180 s a run may take.
constexpr double kHardCapSeconds = 120.0;
// Set-up is a few milliseconds in serve, so after the first full repetition
// of each kind this many set-up-only repetitions join the setup_s median.
constexpr int kSetupOnlyReps = 16;

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEndSchema() {
  static const std::vector<MetricDef> schema = {
      {"goodput_norm", "ratio"}, {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
  };
  return schema;
}

const std::vector<MetricDef>& PerLayerSchema() {
  static const std::vector<MetricDef> schema = [] {
    std::vector<MetricDef> s = {
        {"trace.gen_ms", "ms"},
        {"runtime.req_per_wall_s", "1/s"},
        {"sim.run_ms", "ms"},
        {"sim.events", "count"},
        {"sim.ns_per_event", "ns"},
        {"core.policy.decide_calls", "count"},
        {"core.policy.decide_ns_mean", "ns"},
        {"core.policy.admit_calls", "count"},
        {"core.policy.admit_ns_mean", "ns"},
        {"core.policy.pop_calls", "count"},
        {"core.policy.pop_ns_mean", "ns"},
        {"core.policy.sync_calls", "count"},
        {"core.policy.sync_us_p50", "us"},
        {"core.policy.sync_us_p99", "us"},
        {"serve.control.sync_us_p50", "us"},
        {"serve.control.sync_us_p99", "us"},
        {"serve.control.refreshed", "count"},
        {"serve.control.skipped", "count"},
        {"serve.ingress.gen_late_ms_p50", "ms"},
        {"serve.ingress.gen_late_ms_p99", "ms"},
        {"serve.ingress.gen_late_ms_max", "ms"},
        {"serve.ingress.admit_lag_ms_p50", "ms"},
        {"serve.ingress.admit_lag_ms_p99", "ms"},
    };
    for (int k = 0; k < 5; ++k) {
      const std::string m = "module.m" + std::to_string(k) + ".";
      for (const char* name :
           {"queue_ms_p50", "queue_ms_p99", "batch_wait_ms_p50", "batch_wait_ms_p99",
            "exec_ms_p50", "exec_overshoot_ms_p50", "exec_overshoot_ms_p99"}) {
        s.push_back({m + name, "ms"});
      }
      s.push_back({m + "batch_size_mean", "requests"});
      s.push_back({m + "drop_share", "ratio"});
    }
    for (const char* layer : {"queue", "batch_wait", "exec", "handoff"}) {
      s.push_back({std::string("path.") + layer + "_ms_p50", "ms"});
      s.push_back({std::string("path.") + layer + "_ms_p99", "ms"});
    }
    for (const char* reason : {"broker_candidate", "purge_expired", "proactive_admission",
                               "slo_late", "tenant_shed", "drain_abandoned"}) {
      s.push_back({std::string("drop.") + reason + ".share", "ratio"});
    }
    s.push_back({"exec.useful_gpu_share", "ratio"});
    s.push_back({"core.governor.shed_share", "ratio"});
    for (const char* tenant : {"platinum", "standard", "batch"}) {
      s.push_back({std::string("tenant.") + tenant + ".goodput_norm", "ratio"});
    }
    s.push_back({"proc.cpu_us_per_req", "us/req"});
    s.push_back({"metrics.analysis_ms", "ms"});
    for (const MetricDef& e : EndToEndSchema()) {
      s.push_back({"tracing." + e.name + ".delta", e.unit});
    }
    return s;
  }();
  return schema;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir;
};

bool ParseUnsigned(const std::string& text, std::uint64_t max, std::uint64_t* out) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  const std::uint64_t v = std::strtoull(text.c_str(), nullptr, 10);
  if (v > max) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUnsigned(value, UINT64_MAX / 2, &n)) {
      args->seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUnsigned(value, 3600, &n) && n >= 1) {
      args->seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args->trace = value == "1";
      have_trace = true;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "bad flag or value: %s %s\n", flag.c_str(), value.c_str());
      return false;
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    std::fprintf(stderr, "--workload, --seed, --seconds and --trace are required\n");
    return false;
  }
  return true;
}

// One repetition's numbers.
struct RepRecord {
  bool traced = false;
  double wall_s = 0.0;
  std::uint64_t fingerprint = 0;
  std::size_t requests = 0;
  std::size_t latency_samples = 0;
  MetricMap e2e;    // Without peak_rss_mb, which is per process.
  MetricMap layer;  // Per-layer values this repetition contributes.
};

RepRecord Measure(const WorkloadDef& w, const Args& args, bool traced, Checks& checks) {
  const auto start = Clock::now();
  const std::string trace_path =
      traced && !args.out_dir.empty() ? args.out_dir + "/" + w.name + ".trace.json" : "";
  Rep rep = RunRep(w, args.seed, traced, trace_path);
  CheckRep(rep, !w.serve, checks);

  RepRecord r;
  r.traced = traced;
  r.fingerprint = Fingerprint(rep);
  r.requests = rep.requests.size();
  const EndToEnd e = ComputeEndToEnd(rep);
  r.latency_samples = e.latency_samples;
  r.e2e["goodput_norm"] = e.goodput_norm;
  r.e2e["latency_p50_ms"] = e.latency_p50_ms;
  r.e2e["latency_p99_ms"] = e.latency_p99_ms;
  r.e2e["setup_s"] = rep.setup_s;

  // The ledger runs on every repetition so its checks do; its rows, like the
  // process timings, are reported from untraced repetitions only, and the
  // instruments from traced ones.
  MetricMap ledger = LayerLedger(rep, !w.serve, checks);
  if (traced) {
    r.layer = rep.instruments;
  } else {
    r.layer = std::move(ledger);
    const double n = static_cast<double>(std::max<std::size_t>(1, rep.requests.size()));
    r.layer["trace.gen_ms"] = rep.trace_gen_ms;
    r.layer["runtime.req_per_wall_s"] = static_cast<double>(rep.scheduled.size()) / rep.run_s;
    r.layer["sim.run_ms"] = rep.run_s * 1e3;
    r.layer["sim.events"] = static_cast<double>(rep.sim_events);
    r.layer["sim.ns_per_event"] =
        rep.sim_events > 0 ? rep.run_s * 1e9 / static_cast<double>(rep.sim_events) : 0.0;
    r.layer["proc.cpu_us_per_req"] = rep.cpu_s * 1e6 / n;
    r.layer["metrics.analysis_ms"] = rep.analysis_ms;
  }
  if (traced && !args.out_dir.empty()) {
    std::ofstream spans(args.out_dir + "/" + w.name + ".spans.json");
    spans << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < rep.spans.size(); ++i) {
      const Span& s = rep.spans[i];
      spans << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
            << ",\"dur\":" << s.dur_us << "}";
    }
    spans << "]}\n";
  }
  r.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  std::printf("rep %-8s wall %7.3f s  setup %.4f s  run %.3f s  cpu %.3f s  goodput %.6f  "
              "p50 %.2f ms  p99 %.2f ms  requests %zu\n",
              traced ? "traced" : "untraced", r.wall_s, rep.setup_s, rep.run_s, rep.cpu_s,
              e.goodput_norm, e.latency_p50_ms, e.latency_p99_ms, r.requests);
  std::fflush(stdout);
  return r;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--schema") {
    for (const MetricDef& m : EndToEndSchema()) {
      std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit.c_str());
    }
    for (const MetricDef& m : PerLayerSchema()) {
      std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
    }
    return 0;
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  const WorkloadDef* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; one of:", args.workload.c_str());
    for (const WorkloadDef& def : Workloads()) {
      std::fprintf(stderr, " %s", def.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
#ifdef NDEBUG
  const char* asserts = "NDEBUG";
#else
  const char* asserts = "asserts on";
#endif
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", w->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("host nproc=%u build=%s (%s) commit=%s\n", nproc, PERFBENCH_BUILD_TYPE, asserts,
              args.commit.c_str());
  std::printf("pinned: app=%s %s duration=%g s base_rate=%g burst_rate=%g speedup=%g "
              "broker_threads=%d refresh inline (refresh_threads=1) max_total_threads=64 "
              "tenants=%s non-worker threads=%d\n",
              w->app.c_str(), w->serve ? "serve" : "sim", w->duration_s, w->base_rate,
              w->burst_rate, w->speedup, w->broker_threads, w->tenants ? "reference" : "none",
              NonWorkerThreads(*w));
  if (nproc > 0 && NonWorkerThreads(*w) > static_cast<int>(nproc)) {
    std::printf("warning: %d non-worker threads exceed nproc=%u\n", NonWorkerThreads(*w), nproc);
  }
  std::fflush(stdout);

  Checks checks;
  const auto start = Clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  std::vector<RepRecord> reps;
  // Per kind (index 1 = traced): set-up times, and the process's peak RSS
  // right after the kind's first repetition. Later repetitions only reuse
  // or fragment the allocator's pools, so the peak after one repetition is
  // the workload's footprint.
  std::vector<double> setups[2];
  double peak_rss[2] = {0.0, 0.0};
  const int min_untraced = w->serve ? 1 : 2;
  for (;;) {
    int counts[2] = {0, 0};
    for (const RepRecord& r : reps) {
      ++counts[r.traced ? 1 : 0];
    }
    const double last = reps.empty() ? 0.0 : reps.back().wall_s;
    const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
    bool run_traced = false;
    if (counts[1] == 0 && (counts[0] < min_untraced || elapsed() + last <= budget)) {
      run_traced = false;
    } else if (args.trace && (counts[1] == 0 || elapsed() + last <= args.seconds)) {
      run_traced = true;
    } else {
      break;
    }
    if (!reps.empty() && elapsed() + last > kHardCapSeconds) {
      break;
    }
    const int kind = run_traced ? 1 : 0;
    reps.push_back(Measure(*w, args, run_traced, checks));
    setups[kind].push_back(reps.back().e2e["setup_s"]);
    if (counts[kind] == 0) {
      peak_rss[kind] = PeakRssMb();
      for (int i = 0; i < kSetupOnlyReps; ++i) {
        setups[kind].push_back(RunRep(*w, args.seed, run_traced, "", /*setup_only=*/true).setup_s);
      }
    }
  }

  // Fidelity reference: the simulator on exactly the arrivals served above.
  double sim_goodput = -1.0;
  if (w->serve) {
    WorkloadDef sim = *w;
    sim.serve = false;
    Rep ref = RunRep(sim, args.seed, /*traced=*/false, "");
    CheckRep(ref, /*simulator=*/true, checks);
    sim_goodput = ComputeEndToEnd(ref).goodput_norm;
  }

  // Simulator repetitions, traced or not, must be bit-identical.
  std::size_t attempted = 0;
  for (const RepRecord& r : reps) {
    attempted += r.requests;
    if (!w->serve && r.fingerprint != reps.front().fingerprint) {
      checks.Fail(std::string("simulator ") + (r.traced ? "traced" : "untraced") +
                  " repetition differs from the first repetition");
    }
  }

  const auto median_of = [&reps](const std::string& key, bool traced, bool e2e) {
    std::vector<double> values;
    for (const RepRecord& r : reps) {
      const MetricMap& m = e2e ? r.e2e : r.layer;
      if (r.traced == traced && m.count(key) > 0) {
        values.push_back(m.at(key));
      }
    }
    return Median(std::move(values));
  };

  if (sim_goodput >= 0.0) {
    const double serve_goodput = median_of("goodput_norm", false, true);
    std::printf("fidelity: serve goodput %.6f vs simulator %.6f on the same arrivals "
                "(tolerance %.3f)\n",
                serve_goodput, sim_goodput, kFidelityTolerance);
    if (std::fabs(serve_goodput - sim_goodput) > kFidelityTolerance) {
      checks.Fail("serve goodput strays from the simulator's by more than the tolerance");
    }
  }

  const auto e2e_value = [&](const std::string& name, bool traced) {
    if (name == "peak_rss_mb") {
      return peak_rss[traced ? 1 : 0];
    }
    if (name == "setup_s") {
      return Median(setups[traced ? 1 : 0]);
    }
    return median_of(name, traced, true);
  };

  std::vector<std::pair<MetricDef, double>> report;
  if (!args.trace) {
    for (const MetricDef& m : EndToEndSchema()) {
      report.emplace_back(m, e2e_value(m.name, false));
    }
  } else {
    for (const MetricDef& m : PerLayerSchema()) {
      const std::string prefix = "tracing.";
      double value = 0.0;
      if (m.name.rfind(prefix, 0) == 0) {
        const std::string e2e = m.name.substr(prefix.size(), m.name.size() - prefix.size() - 6);
        value = e2e_value(e2e, true) - e2e_value(e2e, false);
      } else {
        const bool from_traced = m.name.rfind("core.policy.", 0) == 0 ||
                                 m.name.rfind("serve.control.", 0) == 0;
        value = median_of(m.name, from_traced, false);
      }
      report.emplace_back(m, value);
    }
  }

  std::printf("%s metrics (median over %zu repetitions):\n",
              args.trace ? "per-layer" : "end-to-end", reps.size());
  for (const auto& [m, value] : report) {
    std::printf("  %-36s %16.6f %s", m.name.c_str(), value, m.unit.c_str());
    if (m.name == "latency_p50_ms" || m.name == "latency_p99_ms") {
      std::printf("  (n=%zu in the first repetition)", reps.front().latency_samples);
    }
    std::printf("\n");
  }
  for (const std::string& f : checks.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += checks.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(checks.bad_requests);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + report[i].first.name + "\": {\"value\": " +
            JsonNumber(report[i].second) + ", \"unit\": \"" + report[i].first.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "goodput_bench: %s\n", e.what());
    return 1;
  }
}
