// Configuration shared by both runtimes.
//
// Every option below documents its default, its unit, and which substrate
// honors it: [sim] = discrete-event simulator (runtime/pipeline_runtime.h),
// [serve] = wall-clock serving runtime (serve/serve_runtime.h),
// [both] = identical semantics on both. Serve-only knobs (speedup, worker
// cap, broker and refresh threads) live in serve/serve_options.h.
#ifndef PARD_RUNTIME_RUNTIME_OPTIONS_H_
#define PARD_RUNTIME_RUNTIME_OPTIONS_H_

#include <cstdint>
#include <vector>

#include "common/time_types.h"
#include "pipeline/tenant_spec.h"
#include "resilience/resilience_options.h"

namespace pard {

// One deterministic fleet disturbance: kill or (re-)provision workers of a
// module at a virtual instant. Honored by both substrates — the control loop
// (runtime/control_loop.h) applies each at its instant. Parsed from the
// pardsim --fault-schedule string by ParseFaultSchedule
// (runtime/backend_fleet.h).
struct FleetEvent {
  SimTime at = 0;
  int module_id = 0;
  enum class Kind { kKill, kAdd } kind = Kind::kKill;
  int count = 1;
};

class TraceRecorder;   // obs/trace_recorder.h
class MetricsRegistry;  // obs/metrics.h

struct RuntimeOptions {
  // [both] Root seed for every stochastic element (arrivals, jitter,
  // admission randomness, dynamic-path branching, tenant hashing). Streams
  // are forked per role so substreams stay decoupled. Default 42.
  std::uint64_t seed = 42;

  // [both] Observability (obs/). Both pointers are borrowed — the harness
  // (or test) owns the recorder/registry and must outlive the runtime.
  // Null (default) = disabled; every instrumentation site then reduces to a
  // single pointer test, and simulator runs stay bit-identical to the
  // uninstrumented kernel.
  TraceRecorder* trace = nullptr;
  MetricsRegistry* metrics = nullptr;
  // [both] Period of the control loop's MetricsRegistry::Sample job,
  // virtual us; 0 = totals only, no series. Default 1 s. A sample due at a
  // sync instant runs right after that sync.
  Duration metrics_interval = 1 * kUsPerSec;

  // [both] Controller state-sync period, virtual us (paper: once per
  // second). Default 1 s.
  Duration sync_period = 1 * kUsPerSec;
  // [both] Sliding-window length for queue-delay smoothing and rate
  // tracking, virtual us (paper default: 5 s linear-weighted).
  Duration stats_window = 5 * kUsPerSec;
  // [sim] Per-hop transfer latency between modules (data-plane network),
  // virtual us. Default 500 us. Only the simulator's delivery
  // (PipelineRuntime::Deliver) adds it; serve forwards a request to the
  // next module directly, so its hop costs whatever the real hand-off takes.
  Duration network_delay = 500;

  // [sim] Multiplicative execution-time jitter: each batch executes for
  // d(batch) * N(1, exec_jitter), floored at half the profiled duration.
  // 0 (default) = deterministic. Models the gap between offline profiles
  // and real GPU behaviour; stresses the estimator's D terms. The serving
  // runtime gets real jitter from the OS scheduler instead.
  double exec_jitter = 0.0;

  // [both] Provisioning. When `fixed_workers` is non-empty it gives the
  // worker count per module and scaling is disabled; otherwise workers are
  // provisioned from the trace rate with `provision_headroom` (default
  // 1.15x), and the scaling engine (if enabled) adjusts them at runtime
  // every `scaling_epoch` (default 10 s virtual). New workers become active
  // after `cold_start` (default 2 s virtual) unless their backend profile
  // overrides it. Worker counts clamp to kMaxWorkersPerModule (32) and the
  // initial plan to the cluster's 64 GPUs (runtime/batch_planner.h).
  std::vector<int> fixed_workers;
  double provision_headroom = 1.15;
  bool enable_scaling = false;
  Duration scaling_epoch = 10 * kUsPerSec;
  Duration cold_start = 2 * kUsPerSec;  // Model cold start on scale-up.

  // [both] Cost-aware provisioning (off by default): instead of assigning
  // backend-catalog profiles to new worker slots round-robin, each
  // Provision() picks the grade maximizing speed / cost_per_s for that
  // module — the $/goodput objective. Requires a heterogeneous catalog to
  // differ from the default; fleet cost accrues per provisioned-second
  // either way (BackendFleet::AccumulatedCost).
  bool cost_aware_provisioning = false;

  // [both] Virtual time to keep draining after the last arrival so
  // in-flight requests resolve. Default 5 s. The simulator stops its
  // periodic control jobs last arrival + drain; serve abandons what is still
  // in flight at last arrival + SLO + drain (accounted kLate), which bounds
  // the run when a queue wedges.
  Duration drain = 5 * kUsPerSec;

  // [both] Dynamic request paths (§5.2's "request-specific dynamic paths"):
  // at each fork module the request probabilistically takes exactly ONE
  // branch (chosen from intermediate results in the real system; sampled
  // uniformly here). Amplifies latency uncertainty and degrades estimation
  // accuracy unless the policy uses path prediction. Default off.
  bool dynamic_paths = false;

  // [both] Deterministic fleet fault schedule — the paper's "machine
  // failure" disturbance (§1, §2). kKill kills `count` active workers of
  // `module_id` at `at`; their in-flight and queued requests take the
  // deadline-aware retry path, and the scaling engine (if enabled) replaces
  // capacity after a cold start. kAdd provisions `count` replacement workers
  // that become active after their backend profile's cold start. Default
  // empty.
  std::vector<FleetEvent> fleet_events;

  // [both] Multi-tenant catalog (pipeline/tenant_spec.h). Empty (default) =
  // the historical single-tenant behaviour, bit-identical to untenanted
  // goldens. Non-empty: requests are hash-assigned to tenants at injection
  // (share-weighted) and stamped with the tenant's scaled SLO, RunAnalysis
  // weighs them by the tenant's weight in this catalog, and the
  // TenantGovernor (core/tenant_governor.h) sheds lowest-weight traffic at
  // ingress under overload, bounded by each tenant's admit_floor.
  std::vector<TenantSpec> tenants;

  // [both] Chaos injection + self-healing (resilience/). All defaults are
  // inert: empty chaos schedule, retries/watchdog/staleness disabled.
  ResilienceOptions resilience;
};

}  // namespace pard

#endif  // PARD_RUNTIME_RUNTIME_OPTIONS_H_
