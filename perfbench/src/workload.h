// Benchmark workloads and one repetition of a workload.
//
// A repetition composes the program's layers through their public calls —
// MakeApp, MakeTrace (or a bench-drawn MMPP rate curve) + GenerateArrivals,
// MakePolicy, PipelineRuntime/ServeRuntime::RunTrace, RunAnalysis — instead
// of the one-call harness, so the benchmark owns the scheduled send times and
// can time every layer call from outside.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics/analysis.h"
#include "pipeline/pipeline_spec.h"
#include "pipeline/tenant_spec.h"
#include "runtime/request.h"

namespace perfbench {

struct WorkloadDef {
  std::string name;
  std::string app;  // MakeApp name.
  bool serve = false;
  // Arrivals: Poisson on the tweet trace's rate curve at `base_rate`, or
  // (mmpp) on an MMPP rate curve alternating `base_rate` and `burst_rate`.
  bool mmpp = false;
  double duration_s = 0.0;
  double base_rate = 0.0;
  double burst_rate = 0.0;
  // Serve only.
  double speedup = 0.0;
  int broker_threads = 1;
  bool tenants = false;  // Load the reference 3-tenant catalog.
};

const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(const std::string& name);

// Threads a serve run starts besides its module workers: the load generator,
// the control thread and, with more than one broker, the broker pool.
int NonWorkerThreads(const WorkloadDef& w);

// A span around one call into a layer, relative to the repetition's start.
struct Span {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
};

// Everything one repetition leaves behind for the ledger and the checks.
struct Rep {
  pard::PipelineSpec spec;
  std::vector<pard::TenantSpec> tenants;
  std::vector<pard::SimTime> scheduled;  // Due send time of requests()[i].
  std::vector<pard::RequestPtr> requests;
  // The program's own accounting, from RunAnalysis.
  struct Summary {
    std::size_t good = 0;
    std::size_t dropped = 0;
    std::vector<std::size_t> drop_reasons;  // Indexed by DropReason.
    double invalid_rate = 0.0;
    std::vector<double> module_drop_share;
    std::vector<pard::TenantBreakdown> tenants;
  } summary;
  // Distinct backend exec scales of the slots each module provisioned.
  std::vector<std::vector<double>> exec_scales;

  double setup_s = 0.0;       // Workload start to the RunTrace call.
  double trace_gen_ms = 0.0;  // Trace and arrival generation.
  double run_s = 0.0;         // Wall time of RunTrace.
  double cpu_s = 0.0;         // Process user+sys time across RunTrace.
  double analysis_ms = 0.0;   // RunAnalysis and its summary calls.
  std::uint64_t sim_events = 0;  // Simulator only.
  std::vector<Span> spans;

  // Traced repetitions only: the policy decorator's and the program's own
  // control-plane instruments, by per-layer metric name.
  std::map<std::string, double> instruments;
};

// Runs one repetition. `traced` installs the policy decorator and wires a
// MetricsRegistry and a sampled TraceRecorder through RuntimeOptions; the
// recorder's Chrome trace goes to `trace_path` when it is non-empty.
// `setup_only` stops before RunTrace, leaving only the set-up fields.
Rep RunRep(const WorkloadDef& w, std::uint64_t seed, bool traced, const std::string& trace_path,
           bool setup_only = false);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
