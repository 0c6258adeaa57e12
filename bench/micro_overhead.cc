// §5.4 overhead analysis, as google-benchmark micro-benchmarks:
//  - DEPQ put()/get() at various queue depths (paper: O(log n), <0.16%
//    request latency)
//  - event-kernel schedule/cancel/fire throughput (the simulator's innermost
//    loop; every simulated action pays it)
//  - batch-wait distribution update, O(M * N) with M samples
//    (paper: asynchronous, no added request latency)
//  - warm-epoch Request Broker decisions (between state syncs every
//    admission reuses the epoch-cached estimate)
//  - state synchronization payload construction (paper: <3.2 kbps/worker)
//  - arrival generation (thinning a rate curve: every run's set-up)
//  - end-to-end experiment runs (the number every other speedup rolls into)
//
// Machine-readable output: pass --json to emit the google-benchmark JSON
// format on stdout (an alias for --benchmark_format=json). Each checked-in
// bench/BENCH_PR<n>.json is one such capture,
//   micro_overhead --json > bench/BENCH_PR<n>.json
// and the newest is the baseline tools/bench_compare gates against (see
// README "Performance").
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <algorithm>

#include "common/rng.h"
#include "core/latency_estimator.h"
#include "core/pard_policy.h"
#include "core/tenant_governor.h"
#include "pipeline/tenant_spec.h"
#include "harness/experiment.h"
#include "jsonio/json.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "pipeline/apps.h"
#include "resilience/chaos.h"
#include "runtime/backend_fleet.h"
#include "runtime/request.h"
#include "runtime/request_queue.h"
#include "runtime/state_board.h"
#include "runtime/control_plane.h"
#include "sim/simulation.h"
#include "stats/minmax_heap.h"
#include "trace/arrival_generator.h"
#include "trace/traces.h"

namespace pard {
namespace {

void BM_MinMaxHeapPush(benchmark::State& state) {
  const std::int64_t depth = state.range(0);
  Rng rng(1);
  MinMaxHeap<std::int64_t> heap;
  for (std::int64_t i = 0; i < depth; ++i) {
    heap.Push(rng.UniformInt(0, 1 << 20));
  }
  for (auto _ : state) {
    heap.Push(rng.UniformInt(0, 1 << 20));
    benchmark::DoNotOptimize(heap.PopMin());
  }
}
BENCHMARK(BM_MinMaxHeapPush)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

void BM_DepqPutGet(benchmark::State& state) {
  const std::int64_t depth = state.range(0);
  Rng rng(2);
  RequestQueue queue;
  std::vector<RequestPtr> pool;
  for (std::int64_t i = 0; i < depth; ++i) {
    auto r = std::make_shared<Request>();
    r->slo = rng.UniformInt(0, 1 << 20);  // Sent at 0: the SLO is the deadline.
    queue.Push(r);
    pool.push_back(std::move(r));
  }
  int flip = 0;
  for (auto _ : state) {
    auto r = std::make_shared<Request>();
    r->slo = rng.UniformInt(0, 1 << 20);
    queue.Push(std::move(r));
    // Alternate HBF/LBF pops, the adaptive-priority access pattern.
    benchmark::DoNotOptimize(
        queue.Pop(++flip % 2 == 0 ? PopSide::kMinBudget : PopSide::kMaxBudget));
  }
}
BENCHMARK(BM_DepqPutGet)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

// --- Event kernel ----------------------------------------------------------

// Schedule + fire at a steady pending depth, with a capture the size of the
// runtime's delivery lambdas (shared_ptr + module id + runtime pointer): the
// kernel's common case. One iteration = one scheduled and one fired event.
void BM_EventScheduleFire(benchmark::State& state) {
  const std::int64_t depth = state.range(0);
  Simulation sim;
  std::uint64_t sink = 0;
  // 32 bytes of captured state, like Deliver()'s [this, captured, module_id].
  struct Payload {
    std::uint64_t* sink;
    std::uint64_t a, b, c;
  };
  const Payload payload{&sink, 1, 2, 3};
  SimTime horizon = 0;
  for (std::int64_t i = 0; i < depth; ++i) {
    horizon += 7;
    sim.ScheduleAt(horizon, [payload] { *payload.sink += payload.a; });
  }
  for (auto _ : state) {
    horizon += 7;
    sim.ScheduleAt(horizon, [payload] { *payload.sink += payload.a; });
    sim.Step();
  }
  benchmark::DoNotOptimize(sink);
  state.counters["executed"] =
      benchmark::Counter(static_cast<double>(sim.ExecutedEvents()));
}
BENCHMARK(BM_EventScheduleFire)->Arg(16)->Arg(256)->Arg(1024)->Arg(4096)->Arg(65536);

// The timeout pattern: most scheduled events are cancelled before firing
// (PARD re-arms per-request deadline work constantly). One iteration =
// two schedules, one cancel, one fire, at a steady pending depth.
void BM_EventScheduleCancel(benchmark::State& state) {
  const std::int64_t depth = state.range(0);
  Simulation sim;
  std::uint64_t sink = 0;
  SimTime horizon = 0;
  std::vector<EventId> ring(static_cast<std::size_t>(depth), 0);
  std::size_t head = 0;
  for (std::int64_t i = 0; i < depth; ++i) {
    horizon += 5;
    sim.ScheduleAt(horizon, [&sink] { ++sink; });
    ring[static_cast<std::size_t>(i)] =
        sim.ScheduleAt(horizon, [&sink] { sink += 2; });
  }
  for (auto _ : state) {
    horizon += 5;
    sim.ScheduleAt(horizon, [&sink] { ++sink; });
    const EventId doomed = sim.ScheduleAt(horizon, [&sink] { sink += 2; });
    benchmark::DoNotOptimize(sim.Cancel(ring[head]));
    ring[head] = doomed;
    head = (head + 1) % ring.size();
    sim.Step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventScheduleCancel)->Arg(16)->Arg(256)->Arg(1024)->Arg(4096)->Arg(65536);

// --- Estimator -------------------------------------------------------------

// Board with the paper's M = 10 000 observed waits on every module.
StateBoard SampledBoard(Rng* rng) {
  StateBoard board(5);
  for (int i = 0; i < 5; ++i) {
    ModuleState s;
    s.module_id = i;
    s.batch_duration = 10 * kUsPerMs;
    s.wait_samples.reserve(10000);
    for (int j = 0; j < 10000; ++j) {
      s.wait_samples.push_back(rng->Uniform(0.0, 10000.0));
    }
    board.Publish(std::move(s));
  }
  return board;
}

void BM_BatchWaitDistributionUpdate(benchmark::State& state) {
  // O(M(N-k+1)) with M Monte-Carlo draws across N = 5 modules.
  const PipelineSpec lv = MakeLiveVideo();
  Rng rng(3);
  StateBoard board = SampledBoard(&rng);
  EstimatorOptions options;
  options.mc_samples = static_cast<int>(state.range(0));
  LatencyEstimator est(&lv, &board, options, Rng(4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.AggregateWaitDistribution({1, 2, 3, 4}));
  }
}
BENCHMARK(BM_BatchWaitDistributionUpdate)->Arg(128)->Arg(512)->Arg(2048);

void BM_BrokerDecision(benchmark::State& state) {
  // The cached per-admission path: one EstimateSubsequent per decision.
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board(5);
  for (int i = 0; i < 5; ++i) {
    ModuleState s;
    s.module_id = i;
    s.batch_duration = 10 * kUsPerMs;
    board.Publish(std::move(s));
  }
  EstimatorOptions options;
  LatencyEstimator est(&lv, &board, options, Rng(5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.EstimateSubsequent(0));
  }
}
BENCHMARK(BM_BrokerDecision);

// Repeat decisions at a warm epoch: between state syncs the board version is
// unchanged, so the paper's asynchronous-update model says the Monte-Carlo
// aggregation should run once per epoch, not once per decision.
void BM_BrokerDecisionWarmEpoch(benchmark::State& state) {
  const PipelineSpec lv = MakeLiveVideo();
  Rng rng(6);
  StateBoard board = SampledBoard(&rng);
  EstimatorOptions options;  // Default mc_samples = 512.
  LatencyEstimator est(&lv, &board, options, Rng(7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.AggregateWaitQuantile({1, 2, 3, 4}, 0.1));
  }
}
BENCHMARK(BM_BrokerDecisionWarmEpoch);

// Epoch advance: every decision lands just after a state sync that moved no
// estimator input (the same state republished), so the refresh re-draws
// nothing and only re-checks each entry's dependency signature.
void BM_BrokerDecisionEpochAdvance(benchmark::State& state) {
  const PipelineSpec lv = MakeLiveVideo();
  Rng rng(8);
  StateBoard board = SampledBoard(&rng);
  EstimatorOptions options;
  LatencyEstimator est(&lv, &board, options, Rng(9));
  for (auto _ : state) {
    ModuleState s;
    s.module_id = 0;
    s.batch_duration = 10 * kUsPerMs;
    board.Publish(std::move(s));  // Bumps the board version.
    benchmark::DoNotOptimize(est.EstimateSubsequent(0));
  }
}
BENCHMARK(BM_BrokerDecisionEpochAdvance);

// Cold epoch with a REAL input change: each iteration publishes a module
// state whose batch duration actually moved (EpochAdvance republishes an
// identical state), then pays one estimate refresh. The toggled module is
// the sink, module 4, which lies on every downstream path of module 0 (the
// same cut BM_ControlSyncRefresh* uses): the refresh re-draws its buffer and
// recomputes every entry upstream of it. A change to module 0 itself would
// touch no entry module 0 reads. The gate pins the decision-latency worst
// case against the pre-vectorization epoch-advance cost.
void BM_BrokerDecisionColdEpoch(benchmark::State& state) {
  const PipelineSpec lv = MakeLiveVideo();
  Rng rng(8);
  StateBoard board = SampledBoard(&rng);
  EstimatorOptions options;
  LatencyEstimator est(&lv, &board, options, Rng(9));
  bool toggle = false;
  for (auto _ : state) {
    toggle = !toggle;
    ModuleState s;
    s.module_id = 4;
    s.batch_duration = (toggle ? 12 : 10) * kUsPerMs;
    board.Publish(std::move(s));  // A real input change, not just a version bump.
    benchmark::DoNotOptimize(est.EstimateSubsequent(0));
  }
}
BENCHMARK(BM_BrokerDecisionColdEpoch);

// --- Control sync + incremental refresh --------------------------------------

// One full control sync per iteration — publish 16 warm module
// states (2 000-sample reservoirs), OnSync, the incremental estimator
// refresh, view rebuild and snapshot swap — with the LAST `dirty` modules'
// batch duration actually changed each epoch. Before ISSUE 10 every epoch
// re-ran the full Monte-Carlo aggregation per module regardless of what
// moved (~730 us on the reference container at any dirty count); the
// refresh now re-draws only the dirty modules' sample buffers and rebuilds
// path sums as element-wise adds. Flipping the tail of the chain is the
// conservative cut: module 15 sits on every downstream path, so dirty=1
// still recomputes 15 of 16 cache entries — the saving measured here is
// redraw work, not recompute skips. The refresh runs inline, as in every
// run, so cpu_time (the calling thread's) times all of it on any core
// count. The 1/4/16 legs are separate named benchmarks so bench_compare
// gates each one.
struct SyncRefreshHarness {
  SyncRefreshHarness() : spec(MakeRefreshChain()), board(16) {
    control = std::make_unique<ControlPlane>(&spec, &policy, &board,
                                             ControlPlane::RunOptions(RuntimeOptions{}));
    Rng rng(17);
    for (int i = 0; i < 16; ++i) {
      ModuleState s;
      s.module_id = i;
      s.batch_duration = 10 * kUsPerMs;
      s.avg_queue_delay = 1500.0;
      s.batch_size = 4;
      s.wait_samples.reserve(2000);
      for (int j = 0; j < 2000; ++j) {
        s.wait_samples.push_back(rng.Uniform(0.0, 10000.0));
      }
      std::sort(s.wait_samples.begin(), s.wait_samples.end());
      states.push_back(std::move(s));
    }
    std::vector<ModuleState> publish = states;
    control->Sync(publish, sync_t);
  }

  static PipelineSpec MakeRefreshChain() {
    std::vector<ModuleSpec> modules;
    for (int i = 0; i < 16; ++i) {
      ModuleSpec m;
      m.id = i;
      m.model = "eye_tracking";
      if (i > 0) {
        m.pres.push_back(i - 1);
      }
      if (i < 15) {
        m.subs.push_back(i + 1);
      }
      modules.push_back(std::move(m));
    }
    return PipelineSpec("chain16", MsToUs(1000), std::move(modules));
  }

  PipelineSpec spec;
  StateBoard board;
  PardPolicy policy;
  std::unique_ptr<ControlPlane> control;
  std::vector<ModuleState> states;
  SimTime sync_t = kUsPerSec;
};

void RunControlSyncRefresh(benchmark::State& state, int dirty_modules) {
  SyncRefreshHarness harness;
  bool toggle = false;
  for (auto _ : state) {
    toggle = !toggle;
    const Duration d = (toggle ? 12 : 10) * kUsPerMs;
    for (int m = 16 - dirty_modules; m < 16; ++m) {
      harness.states[static_cast<std::size_t>(m)].batch_duration = d;
    }
    harness.sync_t += kUsPerSec;
    // Sync hands the replaced states back into its argument, so publish a
    // copy: the harness keeps republishing the same warm states.
    std::vector<ModuleState> publish = harness.states;
    const PolicyRefreshStats stats = harness.control->Sync(publish, harness.sync_t);
    benchmark::DoNotOptimize(stats.refreshed);
  }
  state.counters["dirty_modules"] =
      benchmark::Counter(static_cast<double>(dirty_modules));
}

void BM_ControlSyncRefresh1Modules(benchmark::State& state) {
  RunControlSyncRefresh(state, 1);
}
BENCHMARK(BM_ControlSyncRefresh1Modules)->Unit(benchmark::kMicrosecond);

void BM_ControlSyncRefresh4Modules(benchmark::State& state) {
  RunControlSyncRefresh(state, 4);
}
BENCHMARK(BM_ControlSyncRefresh4Modules)->Unit(benchmark::kMicrosecond);

void BM_ControlSyncRefresh16Modules(benchmark::State& state) {
  RunControlSyncRefresh(state, 16);
}
BENCHMARK(BM_ControlSyncRefresh16Modules)->Unit(benchmark::kMicrosecond);

void BM_StateSyncPayload(benchmark::State& state) {
  // Serializes the compact module state the paper exchanges once per second
  // (queueing delay, batch size, throughput, drop rate, wait distribution
  // digest) and reports its size — the <3.2 kbps/worker claim.
  for (auto _ : state) {
    JsonObject payload;
    payload["module_id"] = 3;
    payload["avg_queue_delay_us"] = 1234.5;
    payload["batch_size"] = 8;
    payload["throughput"] = 212.4;
    payload["drop_rate"] = 0.012;
    JsonArray digest;
    for (int i = 0; i < 16; ++i) {
      digest.emplace_back(static_cast<std::int64_t>(i * 100));
    }
    payload["wait_digest_us"] = std::move(digest);
    const std::string wire = JsonValue(std::move(payload)).Dump();
    benchmark::DoNotOptimize(wire);
    state.counters["payload_bytes"] =
        benchmark::Counter(static_cast<double>(wire.size()));
  }
}
BENCHMARK(BM_StateSyncPayload);

// --- Control-plane admission (multithreaded) -------------------------------

// The serving runtime's broker hot path under overload: one AdmitAtModule
// plus one ShouldDrop per iteration against the control snapshot the
// deciding thread holds (PARD policy, live-video pipeline, 10 000 wait
// samples per module), as each module holds its last sync's snapshot. No
// sync writes a module's snapshot while that module decides — the control
// loop hands each sync's snapshot over under the module's serialization —
// so nothing republishes here. Run at 1, 4 and 8 threads, each a module of
// its own that shares only the immutable view with the others.
// bench_compare gates the counter (ctest -C perf -L perf).
struct AdmissionHarness {
  AdmissionHarness() : spec(MakeLiveVideo()), board(5) {
    control = std::make_unique<ControlPlane>(&spec, &policy, &board,
                                             ControlPlane::RunOptions(RuntimeOptions{}));
    Rng rng(11);
    std::vector<ModuleState> states;
    for (int i = 0; i < 5; ++i) {
      ModuleState s;
      s.module_id = i;
      s.batch_duration = 10 * kUsPerMs;
      s.wait_samples.reserve(10000);
      for (int j = 0; j < 10000; ++j) {
        s.wait_samples.push_back(rng.Uniform(0.0, 10000.0));
      }
      std::sort(s.wait_samples.begin(), s.wait_samples.end());
      states.push_back(std::move(s));
    }
    control->Sync(states, kUsPerSec);
  }

  PipelineSpec spec;
  StateBoard board;
  PardPolicy policy;
  std::unique_ptr<ControlPlane> control;
};

void RunAdmissionLoop(benchmark::State& state, AdmissionHarness& harness) {
  HopRecord hops[5];
  Request req;
  req.id = static_cast<std::uint64_t>(state.thread_index()) + 1;
  req.sent = kUsPerSec;
  req.slo = harness.spec.slo();
  req.hops = HopSlots(hops, 5);
  const SimTime now = kUsPerSec + 5 * kUsPerMs;
  AdmissionContext ctx;
  ctx.request = &req;
  ctx.module_id = 0;
  ctx.now = now;
  ctx.batch_start = now;
  ctx.batch_duration = 10 * kUsPerMs;
  ctx.batch_size = 8;
  // Each thread holds its own snapshot and admits with its own RNG, as each
  // module does in a run.
  const ControlSnapshot held = harness.control->snapshot();
  Rng admit_rng(static_cast<std::uint64_t>(state.thread_index()) + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.control->AdmitAtModule(held, req, 0, now, &admit_rng));
    benchmark::DoNotOptimize(harness.control->ShouldDrop(held, ctx));
  }
  // Summed across threads, divided by wall time: fleet-wide decisions/sec.
  state.counters["AdmissionDecisionsPerSec"] =
      benchmark::Counter(2.0 * static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  state.SetItemsProcessed(2 * state.iterations());
}

void BM_AdmissionDecisionSnapshot(benchmark::State& state) {
  // Leaked: shared by all benchmark threads, and the harness must outlive
  // the last of them (static destruction order vs. detached reporters).
  static AdmissionHarness* harness = new AdmissionHarness();
  RunAdmissionLoop(state, *harness);
}
BENCHMARK(BM_AdmissionDecisionSnapshot)->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

// --- Observability overhead ------------------------------------------------

// The instrumentation tax on the admission hot path: one broker decision
// (AdmitAtModule + ShouldDrop against a held warm snapshot) per iteration, plus
// exactly the extra work ModuleRuntime::Receive does when obs is wired — a
// striped-counter bump and a sampled trace emit — versus the null-pointer
// fast path every site reduces to when obs is off. The pair is captured in
// bench/BENCH_PR7.json and gated in CI: tracing must stay a few-ns tax on a
// ~µs decision, never a second mutex on the hot path.
void RunObsAdmissionLoop(benchmark::State& state, TraceRecorder* trace,
                         MetricsRegistry* metrics) {
  static AdmissionHarness* harness = new AdmissionHarness();
  Counter* admitted = metrics != nullptr ? metrics->GetCounter("module.m0.admitted") : nullptr;
  TraceShard* shard = trace != nullptr ? trace->ThisThreadShard() : nullptr;
  std::vector<TraceEvent> scratch;
  HopRecord hops[5];
  Request req;
  req.id = 1;
  req.sent = kUsPerSec;
  req.slo = harness->spec.slo();
  req.hops = HopSlots(hops, 5);
  const SimTime now = kUsPerSec + 5 * kUsPerMs;
  AdmissionContext ctx;
  ctx.request = &req;
  ctx.module_id = 0;
  ctx.now = now;
  ctx.batch_start = now;
  ctx.batch_duration = 10 * kUsPerMs;
  ctx.batch_size = 8;
  const ControlSnapshot held = harness->control->snapshot();
  Rng admit_rng(1);
  benchmark::DoNotOptimize(trace);
  benchmark::DoNotOptimize(metrics);
  std::uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness->control->AdmitAtModule(held, req, 0, now, &admit_rng));
    benchmark::DoNotOptimize(harness->control->ShouldDrop(held, ctx));
    ++n;
    if (metrics != nullptr) {
      admitted->Add(1);
    }
    if (trace != nullptr) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kAdmit;
      ev.module = 0;
      ev.request_id = n;  // Varies the sampling hash input, like real ids.
      ev.ts = now;
      trace->EmitSampled(ev);
      if ((n & 8191u) == 0) {
        // Keep the SPSC ring from saturating into the (cheaper) drop-newest
        // path; producer-side drains are the simulator's own pattern.
        scratch.clear();
        shard->Drain(&scratch);
      }
    }
  }
}

void BM_ObsAdmissionUntraced(benchmark::State& state) {
  RunObsAdmissionLoop(state, nullptr, nullptr);
}
BENCHMARK(BM_ObsAdmissionUntraced);

void BM_ObsAdmissionTraced(benchmark::State& state) {
  static TraceRecorder* recorder = [] {
    TraceRecorder::Options options;
    options.sample_rate = 1.0;  // Worst case: every request traced.
    options.seed = 42;
    return new TraceRecorder(options);
  }();
  static MetricsRegistry* registry = new MetricsRegistry();
  RunObsAdmissionLoop(state, recorder, registry);
}
BENCHMARK(BM_ObsAdmissionTraced);

// --- Resilience ------------------------------------------------------------

// Chaos-schedule front end: parse the full grammar and expand a
// probabilistic entry into its concrete timeline. Runs once per experiment
// setup, so this guards against accidental quadratic parsing, not a hot
// path.
void BM_ChaosScheduleParseExpand(benchmark::State& state) {
  for (auto _ : state) {
    const ChaosSchedule schedule = ParseChaosSchedule(
        "5:1:hang:2, 8:0:slow:3.5:4, 10:stall-sync:3, prob:2:hang:1.5:60");
    benchmark::DoNotOptimize(ExpandChaosSchedule(schedule, 42));
  }
}
BENCHMARK(BM_ChaosScheduleParseExpand);

// The retry-path tax: a compressed kill-heavy experiment with the
// deadline-aware retry machinery on, versus BM_EndToEndRun's fault-free
// config. The watchdog/retry bookkeeping must stay noise next to the
// experiment itself — the per-request delta is what the gate bounds. The
// counter reports how many retries actually exercised the path.
void BM_RetryPathKillHeavy(benchmark::State& state) {
  ExperimentConfig config;
  config.app = "tm";
  config.trace = "tweet";
  config.policy = "pard";
  config.duration_s = 2.0;
  config.base_rate = 250.0;
  config.seed = 7;
  config.slo_override = 2 * kUsPerSec;
  config.runtime.enable_scaling = false;
  config.runtime.fixed_workers = {2, 2, 2};
  config.runtime.fleet_events =
      ParseFaultSchedule("0.5:0:kill:1,0.8:1:kill:1,1.0:1:add:1,1.3:2:kill:1,1.5:0:add:1");
  config.runtime.resilience.max_retries = 2;
  std::uint64_t retries = 0;
  for (auto _ : state) {
    const ExperimentResult result = RunExperiment(config);
    retries = result.retries;
    benchmark::DoNotOptimize(result.analysis->DropRate());
  }
  state.counters["retries"] = benchmark::Counter(static_cast<double>(retries));
}
BENCHMARK(BM_RetryPathKillHeavy)->Unit(benchmark::kMillisecond);

// --- Multi-tenant admission ------------------------------------------------

// The tenant governor's ingress tax: one TenantOf + one AdmitAtIngress per
// iteration against a live shed plan (overloaded fleet, mid-run thresholds).
// This is the entire per-request cost of tenancy on the hot path — two
// splitmix64 hashes, one atomic threshold load and, on a shed, one relaxed
// counter bump — and the gate pins it at nanoseconds next to the ~µs broker
// decision. Captured in bench/BENCH_PR9.json.
void BM_TenantAdmissionDecision(benchmark::State& state) {
  TenantGovernor governor(MakeReferenceTenantCatalog(), /*seed=*/42);
  std::vector<ModuleState> states(5);
  states[2].load_factor = 1.6;  // Sheds ~37% of traffic, floors permitting.
  governor.Resync(states);
  std::uint64_t id = 0;
  std::uint64_t admitted = 0;
  for (auto _ : state) {
    ++id;
    const int tenant = governor.TenantOf(id);
    admitted += governor.AdmitAtIngress(id, tenant) ? 1 : 0;
  }
  benchmark::DoNotOptimize(admitted);
  state.counters["admit_rate"] = benchmark::Counter(
      id > 0 ? static_cast<double>(admitted) / static_cast<double>(id) : 0.0);
}
BENCHMARK(BM_TenantAdmissionDecision);

// The consolidation scenario, compressed: a 3-tenant mix on one shared
// fleet, end to end through the simulator with per-tenant accounting and
// fleet-cost tracking on. Compare with BM_EndToEndRun — the delta is the
// whole-run price of tenancy (stamping, governor resyncs, per-tenant
// metrics). The counter reports weighted good requests per cost-unit, the
// objective bench/consolidation.cc demonstrates at full scale.
void BM_TenantConsolidationRun(benchmark::State& state) {
  ExperimentConfig config;
  config.app = "lv";
  config.trace = "tweet";
  config.policy = "pard";
  config.duration_s = 2.0;
  config.base_rate = 60.0;
  config.seed = 7;
  config.runtime.provision_headroom = 1.25;
  config.runtime.enable_scaling = true;
  config.runtime.scaling_epoch = 5 * kUsPerSec;
  config.runtime.tenants = MakeReferenceTenantCatalog();
  double value_per_cost = 0.0;
  for (auto _ : state) {
    const ExperimentResult result = RunExperiment(config);
    value_per_cost = result.fleet_cost > 0.0
                         ? result.analysis->WeightedGoodCount() / result.fleet_cost
                         : 0.0;
    benchmark::DoNotOptimize(result.analysis->WeightedNormalizedGoodput());
  }
  state.counters["weighted_good_per_cost"] = benchmark::Counter(value_per_cost);
}
BENCHMARK(BM_TenantConsolidationRun)->Unit(benchmark::kMillisecond);

// --- Arrival generation ----------------------------------------------------

// Thinning a rate curve into arrivals, which every run of either substrate
// does before it starts. Arg 0 is perfbench's sim-lv-tweet stream (the tweet
// curve at 200 req/s from curve seed 7, 1000 s: ~824k candidates, 237,560
// arrivals), arg 1 its serve-da-mmpp-tenants stream (150 / 600 req/s MMPP,
// 150 s). The curve is built once; each iteration samples it from a fresh
// generator.
void BM_GenerateArrivals(benchmark::State& state) {
  const bool mmpp = state.range(0) == 1;
  const SimTime end = SecToUs(mmpp ? 150.0 : 1000.0);
  const RateFunction curve = [&] {
    if (mmpp) {
      MmppOptions options;
      options.base_rate = 150.0;
      options.burst_rate = 600.0;
      Rng rng = Rng(7).Fork("mmpp-schedule");
      return MakeMmppTrace(options, end, rng);
    }
    TraceOptions options;
    options.duration_s = 1000.0;
    options.base_rate = 200.0;
    options.seed = 7;
    return MakeTrace("tweet", options);
  }();
  std::size_t arrivals = 0;
  for (auto _ : state) {
    Rng rng = Rng(1).Fork(mmpp ? "arrivals:mmpp" : "arrivals:tweet");
    std::vector<SimTime> out = GenerateArrivals(curve, 0, end, rng);
    arrivals = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["arrivals"] = benchmark::Counter(static_cast<double>(arrivals));
}
BENCHMARK(BM_GenerateArrivals)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- End to end ------------------------------------------------------------

// A complete compressed experiment (trace generation, serving, analysis):
// the wall-clock number all kernel/estimator/queue speedups roll into.
void BM_EndToEndRun(benchmark::State& state) {
  ExperimentConfig config;
  config.app = "lv";
  config.trace = "tweet";
  config.policy = "pard";
  config.duration_s = 2.0;
  config.base_rate = 60.0;
  config.seed = 7;
  config.runtime.provision_headroom = 1.25;
  config.runtime.enable_scaling = true;
  config.runtime.scaling_epoch = 5 * kUsPerSec;
  std::size_t requests = 0;
  for (auto _ : state) {
    const ExperimentResult result = RunExperiment(config);
    requests = result.analysis->Total();
    benchmark::DoNotOptimize(result.analysis->DropRate());
  }
  state.counters["requests"] = benchmark::Counter(static_cast<double>(requests));
}
BENCHMARK(BM_EndToEndRun)->Unit(benchmark::kMillisecond);

// The same compressed experiment with the full observability stack wired in
// at sample rate 1.0 (every request traced, all metrics live) — the
// whole-event-loop half of the traced/untraced overhead gate. Compare with
// BM_EndToEndRun: the delta is the total tracing tax on a simulator run.
void BM_EndToEndRunTraced(benchmark::State& state) {
  ExperimentConfig config;
  config.app = "lv";
  config.trace = "tweet";
  config.policy = "pard";
  config.duration_s = 2.0;
  config.base_rate = 60.0;
  config.seed = 7;
  config.runtime.provision_headroom = 1.25;
  config.runtime.enable_scaling = true;
  config.runtime.scaling_epoch = 5 * kUsPerSec;
  std::size_t requests = 0;
  for (auto _ : state) {
    TraceRecorder::Options trace_options;
    trace_options.sample_rate = 1.0;
    trace_options.seed = config.seed;
    TraceRecorder recorder(trace_options);
    MetricsRegistry registry;
    config.runtime.trace = &recorder;
    config.runtime.metrics = &registry;
    const ExperimentResult result = RunExperiment(config);
    requests = result.analysis->Total();
    benchmark::DoNotOptimize(result.analysis->DropRate());
    benchmark::DoNotOptimize(recorder.total_dropped_events());
  }
  state.counters["requests"] = benchmark::Counter(static_cast<double>(requests));
}
BENCHMARK(BM_EndToEndRunTraced)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pard

// BENCHMARK_MAIN plus one alias: --json expands to --benchmark_format=json so
// tooling (the perf ctest tier, tools/bench_compare) has a stable spelling.
int main(int argc, char** argv) {
  std::vector<char*> args;
  static char json_flag[] = "--benchmark_format=json";
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    args.push_back(std::strcmp(argv[i], "--json") == 0 ? json_flag : argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
