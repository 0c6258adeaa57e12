// Shared helpers for the figure/table reproduction binaries.
//
// Every bench prints (1) the experimental setup, (2) the measured rows or
// series in the same shape the paper reports, and (3) the paper's reference
// values where the paper states them, so paper-vs-measured comparison is
// immediate. Absolute numbers are not expected to match (the substrate is a
// simulator, not the authors' 64-GPU testbed); the orderings, ratios and
// crossovers are the reproduction targets (see EXPERIMENTS.md).
#ifndef PARD_BENCH_BENCH_UTIL_H_
#define PARD_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

extern char** environ;  // POSIX; used to reject typo'd PARD_BENCH_* overrides.

#include "exec/thread_pool.h"
#include "harness/experiment.h"

namespace pard {
namespace bench {

inline void Title(const std::string& name, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", name.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void Section(const std::string& name) { std::printf("\n--- %s ---\n", name.c_str()); }

// CI smoke runs override the standard workload size via the environment
// (PARD_BENCH_DURATION_S / PARD_BENCH_BASE_RATE; see README "Bench
// environment overrides" for the full table). Only benches built on
// StdConfig honor it — benches that hardcode their own workload shape
// (e.g. ext_failure, fig06_batchwait) ignore these variables.
// A malformed or non-positive value aborts rather than silently shrinking
// the workload to nothing, and an unrecognized PARD_BENCH_* name aborts
// rather than being silently ignored (a typo'd override would otherwise
// run the full paper-scale workload while claiming to be a smoke run).
inline void CheckKnownBenchEnv() {
  static const bool checked = [] {
    static const char* const kKnown[] = {"PARD_BENCH_DURATION_S", "PARD_BENCH_BASE_RATE"};
    for (char** env = environ; *env != nullptr; ++env) {
      const char* entry = *env;
      if (std::strncmp(entry, "PARD_BENCH_", 11) != 0) {
        continue;
      }
      const char* eq = std::strchr(entry, '=');
      const std::string name(entry, eq != nullptr ? static_cast<std::size_t>(eq - entry)
                                                  : std::strlen(entry));
      bool known = false;
      for (const char* k : kKnown) {
        known = known || name == k;
      }
      if (!known) {
        std::fprintf(stderr,
                     "unknown environment override %s (supported: PARD_BENCH_DURATION_S, "
                     "PARD_BENCH_BASE_RATE; worker threads use PARD_JOBS)\n",
                     name.c_str());
        std::exit(2);
      }
    }
    return true;
  }();
  (void)checked;
}

inline double EnvOr(const char* name, double fallback) {
  CheckKnownBenchEnv();
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || !std::isfinite(parsed) || parsed <= 0.0) {
    std::fprintf(stderr, "invalid %s=\"%s\" (expected a positive number)\n", name, v);
    std::exit(2);
  }
  // Make the override visible so shrunken smoke-run numbers are never
  // mistaken for a failed paper reproduction.
  std::fprintf(stderr, "note: %s=%g overrides the standard workload (default %g)\n",
               name, parsed, fallback);
  return parsed;
}

// Worker-thread count for sweep benches: the strictly-validated PARD_JOBS
// override, defaulting to one job per hardware thread. Garbage or
// non-positive values abort, mirroring the PARD_BENCH_* contract.
inline int Jobs() {
  static const int jobs = [] {
    const char* v = std::getenv("PARD_JOBS");
    if (v == nullptr || *v == '\0') {
      return ThreadPool::ResolveJobs(0);
    }
    char* end = nullptr;
    const long parsed = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || parsed <= 0 || parsed > 4096) {
      std::fprintf(stderr, "invalid PARD_JOBS=\"%s\" (expected an integer in [1, 4096])\n", v);
      std::exit(2);
    }
    std::fprintf(stderr, "note: PARD_JOBS=%ld overrides the worker count (default %d)\n",
                 parsed, ThreadPool::ResolveJobs(0));
    return static_cast<int>(parsed);
  }();
  return jobs;
}

// Effective workload line in every result header: compressed runs announce
// themselves, so shrunken smoke/CI numbers can't be mistaken for the paper's
// ~1000 s scale.
inline void WorkloadHeader(double duration_s, double base_rate, int jobs) {
  std::printf("workload: duration %g s, base rate %g req/s, %d job%s%s\n", duration_s,
              base_rate, jobs, jobs == 1 ? "" : "s",
              duration_s < 1000.0 ? "  [compressed; paper scale ~1000 s]" : "  [paper scale]");
}

// The StdConfig workload shape, parsed once so sweep benches don't reprint
// the override note per run.
inline double StdDuration() {
  static const double duration_s = EnvOr("PARD_BENCH_DURATION_S", 150.0);
  return duration_s;
}
inline double StdBaseRate() {
  static const double base_rate = EnvOr("PARD_BENCH_BASE_RATE", 200.0);
  return base_rate;
}

// Header for benches built on StdConfig. Serial benches take the default;
// sweep benches pass Jobs().
inline void StdWorkloadHeader(int jobs = 1) {
  WorkloadHeader(StdDuration(), StdBaseRate(), jobs);
}

// Standard compressed workload: the paper's ~1000 s traces shrunk to keep
// every bench under a minute while preserving the burst structure. The rate
// is chosen so burst peaks exceed mean-provisioned capacity.
inline ExperimentConfig StdConfig(const std::string& app, const std::string& trace,
                                  const std::string& policy) {
  ExperimentConfig c;
  c.app = app;
  c.trace = trace;
  c.policy = policy;
  c.duration_s = StdDuration();
  c.base_rate = StdBaseRate();
  c.seed = 7;
  // Paper setup: resource scaling is on; capacity tracks the smoothed rate
  // with headroom, so drops concentrate in the burst/cold-start windows and
  // queueing stays in the sub-SLO regime where estimation quality decides
  // outcomes.
  c.runtime.provision_headroom = 1.25;
  c.runtime.enable_scaling = true;
  c.runtime.scaling_epoch = 5 * kUsPerSec;
  return c;
}

inline const std::vector<std::string>& Systems() {
  static const std::vector<std::string> kSystems = {"pard", "nexus", "clipper++", "naive"};
  return kSystems;
}

inline double Pct(double x) { return 100.0 * x; }

}  // namespace bench
}  // namespace pard

#endif  // PARD_BENCH_BENCH_UTIL_H_
