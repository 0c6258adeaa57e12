// Tests for the wall-clock serving runtime (src/serve/).
//
// Two kinds of assertion live here:
//   1. Hard invariants — the load generator replaying every arrival in
//      order, the simulator's request count on every trace, clock
//      monotonicity. These never depend on timing. Every serve run also
//      checks its own request log when RunTrace ends (CheckRunInvariants:
//      terminal fates, drop attribution, monotone hop stamps), so each
//      scenario below fails on a broken record without restating the rules.
//   2. Sim-vs-serve validation bands on matched arrival streams. Serve runs
//      the simulator's own ModuleRuntime/Worker state machine, so what is
//      left between them is wall-clock wake-up lateness: normalized goodput
//      on the fig08 smoke workload (tweet trace, 1.5 s, 40 req/s — the same
//      shape the smoke_bench_fig08 ctest entry uses) must land within
//      kGoodputTolerance of the simulator's, and each module's mean
//      requests per batch on lv/tweet within kBatchSizeTolerance.
//
// The whole suite is in the tsan ctest preset: a TSan-clean pass pins the
// concurrency contracts of ControlPlane, ServeModule (module mutex, timer
// thread, outbox) and the shared StateBoard/estimator facade.
#include <gtest/gtest.h>
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/time_types.h"
#include "core/pard_policy.h"
#include "exec/thread_pool.h"
#include "harness/experiment.h"
#include "jsonio/json.h"
#include "obs/drop_reason.h"
#include "pipeline/apps.h"
#include "pipeline/backend_profile.h"
#include "runtime/backend_fleet.h"
#include "runtime/drop_policy.h"
#include "runtime/request_arena.h"
#include "runtime/request_lifecycle.h"
#include "runtime/state_board.h"
#include "runtime/control_plane.h"
#include "serve/load_generator.h"
#include "serve/serve_clock.h"
#include "serve/serve_options.h"
#include "serve/serve_runtime.h"
#include "trace/arrival_generator.h"
#include "trace/traces.h"

namespace pard {
namespace {

// Both bands are the worst gap seen in 20 Release runs under `ctest -j4`
// plus 20 runs of the tsan preset's serve_test, plus a stated margin; a later
// change may tighten them, never loosen them.
//   - Goodput on the fig08 smoke trace (38 requests): every one of the 40
//     runs matched the simulator exactly (gap 0). The margin, 0.03, lets one
//     request of the 38 (0.026) land differently.
//   - Mean requests per batch per module on lv/tweet at 5x: worst relative
//     gap 0.194 in Release (one run; the other 19 stayed at or under 0.077)
//     and 0.053 under TSan. The margin, 0.156, covers the host's wall-clock
//     stalls, which reach further at times: a suite run at 10x once read
//     0.31. A discipline that forms batches only when a worker frees up
//     reads 0.42-1.07 on modules 1-4 of this workload.
constexpr double kGoodputTolerance = 0.03;
constexpr double kBatchSizeTolerance = 0.35;

TEST(ServeClock, SleepUntilNeverReturnsBeforeItsTarget) {
  // A non-integer speedup makes every virtual -> wall conversion round; no
  // target may be undershot by a rounding step.
  ServeClock clock(37.3);
  clock.Start();
  SimTime target = clock.Now();
  for (int i = 0; i < 400; ++i) {
    target += 1 + (i * 7919) % 613;  // Irregular 1..613 virtual µs steps.
    clock.SleepUntil(target);
    ASSERT_GE(clock.Now(), target) << "step " << i;
  }
}

TEST(ServeClock, SleepUntilReturnsAtOnceForAPastTarget) {
  ServeClock clock(1.0);
  clock.Start();
  clock.SleepUntil(2 * kUsPerMs);
  const SimTime before = clock.Now();
  // Before the epoch, at it, after it, and the current time. Slept as a
  // relative duration, the first target alone would take an hour.
  for (const SimTime past : {-3600 * kUsPerSec, SimTime{0}, kUsPerMs, before}) {
    clock.SleepUntil(past);
  }
  EXPECT_LT(clock.Now() - before, 3600 * kUsPerSec);
}

TEST(ServeClock, SleepUntilSetsOneNanosecondTimerSlackOnTheCallingThread) {
  ServeClock clock(50.0);
  clock.Start();
  std::atomic<int> slack{-1};
  WorkerGroup thread;
  thread.Spawn([&] {
    clock.SleepUntil(clock.Now() + kUsPerMs);
    slack.store(prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL));
  });
  thread.Join();
  EXPECT_EQ(slack.load(), 1);
}

TEST(ServeClock, RejectsNonPositiveSpeedup) {
  EXPECT_THROW(ServeClock(0.0), CheckError);
  EXPECT_THROW(ServeClock(-3.0), CheckError);
}

TEST(LoadGen, ReplaysEveryArrivalInOrder) {
  ServeClock clock(1000.0);
  clock.Start();
  std::vector<SimTime> schedule;
  for (int i = 0; i < 50; ++i) {
    schedule.push_back(i * 10 * kUsPerMs);  // 10 ms virtual apart.
  }
  int injected = 0;
  SimTime last = -1;
  ReplayArrivals(clock, schedule, [&](SimTime t) {
    EXPECT_GT(t, last);
    EXPECT_GE(clock.Now(), t - 1);  // Not early, up to 1 us of rounding.
    last = t;
    ++injected;
  });
  EXPECT_EQ(injected, 50);
  EXPECT_EQ(last, schedule.back());
}

TEST(WorkerGroup, JoinRethrowsFirstWorkerException) {
  WorkerGroup group;
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    group.Spawn([&ran, i] {
      ran.fetch_add(1);
      if (i == 2) {
        throw std::runtime_error("worker died");
      }
    });
  }
  EXPECT_THROW(group.Join(), std::runtime_error);
  EXPECT_EQ(ran.load(), 4);
  EXPECT_NO_THROW(group.Join());  // Error consumed; re-join is clean.
}

TEST(ServeRuntime, WorkerPlanRespectsHardThreadCapWithSkewedPlans) {
  // A skewed fixed plan (many light modules + one heavy) must come out with
  // sum <= max_total_threads and >= 1 worker per module — the max(1, ...)
  // floor alone would leave the scaled sum above the cap.
  const PipelineSpec spec = MakeApp("tm");  // 3 modules.
  RuntimeOptions options;
  options.fixed_workers = {1, 1, 100};
  std::unique_ptr<DropPolicy> policy = MakePolicy("pard", PolicyParams{});
  ServeOptions serve;
  serve.max_total_threads = 8;
  ServeRuntime runtime(spec, options, policy.get(), 50.0, serve);
  int total = 0;
  for (int w : runtime.worker_plan()) {
    EXPECT_GE(w, 1);
    total += w;
  }
  EXPECT_LE(total, serve.max_total_threads);
}

// Shared serve config: the fig08 smoke workload shape (StdConfig knobs with
// the smoke-tier PARD_BENCH_DURATION_S=1.5 / PARD_BENCH_BASE_RATE=40
// override), scaling off so sim and serve provision identically.
ExperimentConfig Fig08SmokeConfig(const std::string& app, const std::string& policy) {
  ExperimentConfig config;
  config.app = app;
  config.trace = "tweet";
  config.policy = policy;
  config.duration_s = 1.5;
  config.base_rate = 40.0;
  config.seed = 7;
  config.runtime.provision_headroom = 1.25;
  config.runtime.enable_scaling = false;
  return config;
}

// The bursty stress shape: an MMPP rate alternating `base` and `burst`
// req/s with 0.5 s mean dwells, as a custom trace over `duration_s`. Its
// seed draws bursts over 0.48-0.96 s, 1.11-1.49 s and 1.62-2.42 s.
RateFunction BurstyTrace(double base, double burst, double duration_s) {
  MmppOptions mmpp;
  mmpp.base_rate = base;
  mmpp.burst_rate = burst;
  mmpp.mean_base_s = 0.5;
  mmpp.mean_burst_s = 0.5;
  Rng rng = Rng(1).Fork("mmpp-schedule");
  return MakeMmppTrace(mmpp, SecToUs(duration_s), rng);
}

TEST(ServeRuntime, InjectsTheSimulatorsArrivalsOnEveryTrace) {
  // Every workload is a rate curve the harness samples once for both
  // substrates, so serve injects exactly the simulator's request count —
  // for the synthetic Poisson and MMPP shapes as for a paper trace.
  for (const char* trace : {"tweet", "poisson", "mmpp"}) {
    ExperimentConfig config = Fig08SmokeConfig("tm", "pard");
    config.trace = trace;
    config.duration_s = 4.0;
    config.base_rate = 50.0;
    ServeOptions serve;
    serve.speedup = 40.0;
    const ExperimentResult sim = RunExperiment(config);
    const ExperimentResult served = RunServeExperiment(config, serve);
    ASSERT_GT(sim.analysis->Total(), 0u) << trace;
    EXPECT_EQ(served.analysis->Total(), sim.analysis->Total()) << trace;
    EXPECT_EQ(served.mean_input_rate, sim.mean_input_rate) << trace;
  }
}

TEST(ServeRuntime, GoodputWithinToleranceOfSimulatorOnFig08SmokeTrace) {
  // The acceptance band for the serving prototype: identical arrival stream
  // (kTrace replays the exact timestamps the simulator injects), identical
  // provisioning, policy and estimator — substrate is the only variable.
  ExperimentConfig config = Fig08SmokeConfig("tm", "pard");
  const ExperimentResult sim = RunExperiment(config);
  ServeOptions serve;
  serve.speedup = 10.0;  // Modest speedup keeps wall-clock noise small.
  const ExperimentResult served = RunServeExperiment(config, serve);

  ASSERT_EQ(sim.analysis->Total(), served.analysis->Total())
      << "matched replay must inject the identical arrival stream";
  const double sim_goodput = sim.analysis->NormalizedGoodput();
  const double serve_goodput = served.analysis->NormalizedGoodput();
  std::printf("goodput: serve %.4f sim %.4f gap %.4f\n", serve_goodput, sim_goodput,
              std::fabs(serve_goodput - sim_goodput));
  EXPECT_NEAR(serve_goodput, sim_goodput, kGoodputTolerance)
      << "serving goodput drifted outside the documented tolerance band";
}

// Mean requests per executed batch at each module, rebuilt from hop records:
// the hops of one batch share (exec_start, exec_end) and carry gpu_time =
// duration / size, so a group of equal stamps (two workers may start and end
// together) splits into batches of that size.
std::vector<double> MeanRequestsPerBatch(const RunAnalysis& analysis, int modules) {
  std::vector<double> means;
  for (int k = 0; k < modules; ++k) {
    std::map<std::tuple<SimTime, SimTime, Duration>, std::int64_t> groups;
    for (const RequestPtr& req : analysis.requests()) {
      const HopRecord& hop = req->hops[static_cast<std::size_t>(k)];
      if (hop.executed) {
        ++groups[{hop.exec_start, hop.exec_end, hop.gpu_time}];
      }
    }
    std::int64_t batches = 0;
    std::int64_t executed = 0;
    for (const auto& [stamps, hops] : groups) {
      const Duration duration = std::get<1>(stamps) - std::get<0>(stamps);
      const Duration gpu_time = std::get<2>(stamps);
      std::int64_t size = hops;
      for (std::int64_t c = 1; gpu_time > 0 && c <= hops; ++c) {
        if (duration / c == gpu_time && hops % c == 0) {
          size = c;
          break;
        }
      }
      batches += hops / size;
      executed += hops;
    }
    means.push_back(batches > 0 ? static_cast<double>(executed) / static_cast<double>(batches)
                                : 0.0);
  }
  return means;
}

TEST(ServeRuntime, BatchesLikeTheSimulatorOnTheSameArrivals) {
  // Serve runs the simulator's own Fig. 5 state machine, so on the same
  // arrivals each module must form batches of the simulator's size: the next
  // batch fills while the current one executes and launches when it ends.
  // lv on the tweet curve for 20 virtual seconds (~3,500 requests) at 5x,
  // 4 s of wall time: every wall millisecond a starved timer thread waits is
  // `speedup` virtual ones, and this test shares the host with the rest of
  // the suite.
  ExperimentConfig config;
  config.app = "lv";
  config.trace = "tweet";
  config.policy = "pard";
  config.duration_s = 20.0;
  config.base_rate = 200.0;
  config.seed = 7;
  const ExperimentResult sim = RunExperiment(config);
  ServeOptions serve;
  serve.speedup = 5.0;
  const ExperimentResult served = RunServeExperiment(config, serve);

  ASSERT_EQ(sim.analysis->Total(), served.analysis->Total());
  ASSERT_GE(sim.analysis->Total(), 3000u);
  const int modules = sim.spec.NumModules();
  const std::vector<double> sim_sizes = MeanRequestsPerBatch(*sim.analysis, modules);
  const std::vector<double> serve_sizes = MeanRequestsPerBatch(*served.analysis, modules);
  for (int k = 0; k < modules; ++k) {
    const double sim_size = sim_sizes[static_cast<std::size_t>(k)];
    const double serve_size = serve_sizes[static_cast<std::size_t>(k)];
    ASSERT_GT(sim_size, 1.0) << "module " << k << " never batched; the check would be vacuous";
    const double gap = std::fabs(serve_size / sim_size - 1.0);
    std::printf("requests per batch m%d: serve %.3f sim %.3f gap %.4f\n", k, serve_size,
                sim_size, gap);
    EXPECT_LE(gap, kBatchSizeTolerance) << "module " << k;
  }
}

TEST(ServeRuntime, BaselinePoliciesServeCleanly) {
  // Clipper++ exercises AdmitAtModule (ingress shedding) and naive the
  // PurgeExpired=false path — both through the modules' broker calls.
  for (const char* policy : {"clipper++", "naive"}) {
    ExperimentConfig config = Fig08SmokeConfig("tm", policy);
    ServeOptions serve;
    serve.speedup = 25.0;
    const ExperimentResult result = RunServeExperiment(config, serve);
    ASSERT_GT(result.analysis->Total(), 0u) << policy;
  }
}

// Serve's requests come from the lifecycle's arena too: the log, hop slots
// included, stays readable once the runtime and its policy are destroyed.
TEST(ServeRuntime, RequestsOutliveTheRuntime) {
  const PipelineSpec spec = MakeDagLiveVideo();
  RuntimeOptions options;
  options.fixed_workers = {2, 1, 2, 2, 2};
  ServeOptions serve;
  serve.speedup = 25.0;
  auto policy = std::make_unique<PardPolicy>();
  auto server = std::make_unique<ServeRuntime>(spec, options, policy.get(), 100.0, serve);
  server->RunTrace(GenerateUniformArrivals(100.0, 0, SecToUs(2)));
  const std::vector<RequestPtr> requests = server->requests();
  server.reset();
  policy.reset();

  ASSERT_GT(requests.size(), 100u);
  EXPECT_NO_THROW(CheckRunInvariants(requests, spec, 0));  // Reads every field.
  std::size_t executed = 0;
  for (const RequestPtr& req : requests) {
    ASSERT_EQ(req->hops.size(), 5u);
    for (const HopRecord& hop : req->hops) {
      executed += hop.executed ? 1 : 0;
    }
    EXPECT_LE(req->hops[3].merge_arrivals, 2);  // Module 3 merges two branches.
  }
  // Not a throughput check: under a sanitizer's slowdown PARD may shed most
  // of the stream, but some hop must have run for the reads to mean much.
  EXPECT_GT(executed, 0u);
}

TEST(ServeRuntime, DagMergeAndOverloadUnderContention) {
  // The TSan stress case: a DAG pipeline (split + merge bookkeeping), MMPP
  // bursts far beyond capacity, and a high speedup so many workers contend
  // in little wall time. One worker per module makes the overload
  // structural — drops are guaranteed by arithmetic (hundreds of req/s into
  // single-worker modules), not by scheduling luck, so the drop assertion
  // cannot flake.
  ExperimentConfig config = Fig08SmokeConfig("da", "pard");
  config.duration_s = 2.0;
  config.custom_trace = BurstyTrace(60.0, 800.0, config.duration_s);
  config.runtime.fixed_workers = std::vector<int>(5, 1);  // da has 5 modules.
  ServeOptions serve;
  serve.speedup = 40.0;
  const ExperimentResult result = RunServeExperiment(config, serve);
  ASSERT_GT(result.analysis->Total(), 0u);
  // Under an 800 req/s burst this fleet must shed load, so drops are
  // guaranteed. Goodput is NOT asserted positive: under TSan's ~10x CPU
  // slowdown every completion can legitimately miss the SLO, and this test's
  // job is contention coverage, not throughput.
  EXPECT_GT(result.analysis->DropRate(), 0.0);
  // Accounting stays consistent even when everything is shed.
  const auto share = result.analysis->PerModuleDropShare();
  double total_share = 0.0;
  for (double s : share) {
    total_share += s;
  }
  EXPECT_NEAR(total_share, 1.0, 1e-9);
}

TEST(ServeRuntime, DrainDeadlineBoundsDropFreePolicyUnderOverload) {
  // The naive policy never drops and never purges expired requests, so under
  // structural overload the backlog at the drain deadline is large. The run
  // must end by abandoning it (leftovers swept kLate) rather than serving it
  // out — RunServeExperiment returning promptly, its log checked, with a
  // nonzero late share IS the bound.
  ExperimentConfig config = Fig08SmokeConfig("tm", "naive");
  config.custom_trace = RateFunction::Constant(500.0);
  config.runtime.fixed_workers = std::vector<int>(3, 1);  // tm has 3 modules.
  ServeOptions serve;
  serve.speedup = 40.0;
  const ExperimentResult result = RunServeExperiment(config, serve);
  ASSERT_GT(result.analysis->Total(), 100u);
  // Overload + no dropping means abandoned/late requests must exist.
  EXPECT_GT(result.analysis->DropRate(), 0.0);
}

TEST(ServeRuntime, HeterogeneousFleetFailureAndRecoveryConserves) {
  // ISSUE 5 acceptance scenario, invariant half: a mixed-grade fleet takes a
  // mid-run worker kill and a scale-up recovery (cold start) and still
  // accounts for every request exactly once (the run checks its log). Runs
  // under TSan in the tsan preset, pinning the roster-mutation concurrency
  // contract.
  PipelineSpec spec = MakeApp("tm");
  BackendProfile fast;
  fast.name = "fast";
  BackendProfile slow;
  slow.name = "slow";
  slow.speed_grade = 0.5;
  slow.cold_start = 200 * kUsPerMs;
  spec.set_backends({fast, slow});
  RuntimeOptions options;
  options.fixed_workers = {2, 2, 2};  // Grades 1.0/0.5 round-robin per module.
  options.cold_start = 200 * kUsPerMs;
  // Kill module 1's fast worker mid-run; provision a replacement shortly
  // after (active once its backend's cold start elapses).
  options.fleet_events = ParseFaultSchedule("0.8:1:kill:1,1.2:1:add:1");
  // The control thread applies the kill when it wakes for it. A wake later
  // than one sync period would have skipped a sync epoch, so one period is
  // the lateness the kill may take.
  options.sync_period = 400 * kUsPerMs;
  constexpr SimTime kKillAt = 800 * kUsPerMs;
  std::unique_ptr<DropPolicy> policy = MakePolicy("pard", PolicyParams{});
  ServeOptions serve;
  serve.speedup = 20.0;
  ServeRuntime runtime(spec, options, policy.get(), 60.0, serve);

  std::vector<SimTime> arrivals;
  for (int i = 0; i < 120; ++i) {
    arrivals.push_back(i * 25 * kUsPerMs);  // 40 req/s for 3 s.
  }
  runtime.RunTrace(arrivals);
  ASSERT_EQ(runtime.requests().size(), arrivals.size());

  // The fleet log tells the whole story: the scheduled kill, then a
  // cold-starting replacement that eventually activates. The kill runs
  // Worker::Fail when the control thread wakes for it, so it lands at or
  // after its scheduled 0.8 s, within one sync period of it, and before the
  // recovery.
  SimTime kill_at = -1;
  bool saw_recovery_cold = false;
  bool saw_recovery_active = false;
  for (const FleetTransition& t : runtime.fleet().transitions()) {
    if (t.module_id != 1) {
      continue;
    }
    if (t.to == BackendState::kFailed) {
      kill_at = t.at;
      EXPECT_GE(t.at, kKillAt);
      EXPECT_LE(t.at, kKillAt + options.sync_period);
    } else if (kill_at >= 0 && t.to == BackendState::kColdStarting) {
      saw_recovery_cold = true;
      EXPECT_LT(kill_at, t.at);
    } else if (saw_recovery_cold && t.to == BackendState::kActive) {
      saw_recovery_active = true;
    }
  }
  EXPECT_GE(kill_at, 0);
  EXPECT_TRUE(saw_recovery_cold);
  EXPECT_TRUE(saw_recovery_active);
}

TEST(ServeRuntime, ColdStartedWorkerActivatesNoEarlierThanProvisionPlusColdStart) {
  // Cold start counts from the provisioning instant, as the simulator's
  // ModuleRuntime::ProvisionColdWorker counts it: the fleet log must never
  // show a mid-run worker active before provision + cold_start.
  const PipelineSpec spec = MakeApp("tm");
  RuntimeOptions options;
  options.fixed_workers = {1, 1, 1};
  options.cold_start = 150 * kUsPerMs;
  options.fleet_events = ParseFaultSchedule("0.3:1:add:1,0.6:2:add:2");
  std::unique_ptr<DropPolicy> policy = MakePolicy("pard", PolicyParams{});
  ServeOptions serve;
  serve.speedup = 20.0;
  ServeRuntime runtime(spec, options, policy.get(), 40.0, serve);
  std::vector<SimTime> arrivals;
  for (int i = 0; i < 40; ++i) {
    arrivals.push_back(i * 25 * kUsPerMs);  // 40 req/s for 1 s.
  }
  runtime.RunTrace(arrivals);

  std::map<std::pair<int, int>, SimTime> provisioned;  // (module, worker) -> at.
  int cold_activations = 0;
  for (const FleetTransition& t : runtime.fleet().transitions()) {
    const auto key = std::make_pair(t.module_id, t.worker_id);
    if (t.to == BackendState::kColdStarting) {
      provisioned[key] = t.at;
      continue;
    }
    const bool initial =
        t.worker_id < runtime.worker_plan()[static_cast<std::size_t>(t.module_id)];
    if (t.to == BackendState::kActive && !initial) {
      ASSERT_EQ(provisioned.count(key), 1u);
      EXPECT_GE(t.at, provisioned[key] + options.cold_start)
          << "module " << t.module_id << " worker " << t.worker_id;
      ++cold_activations;
    }
  }
  EXPECT_EQ(cold_activations, 3);
}

TEST(ServeRuntime, ScalingEngineGrowsFleetUnderOverloadAndRecordsHistory) {
  // pardsim --serve --enable-scaling end to end: an underprovisioned fixed
  // fleet under structural overload must scale up (real threads after a
  // cold start) and the per-epoch worker history must land in the result.
  ExperimentConfig config = Fig08SmokeConfig("tm", "pard");
  config.duration_s = 3.0;
  config.runtime.fixed_workers = {1, 1, 1};
  config.runtime.enable_scaling = true;
  config.runtime.scaling_epoch = 1 * kUsPerSec;
  config.runtime.cold_start = 200 * kUsPerMs;
  config.custom_trace = RateFunction::Constant(300.0);
  ServeOptions serve;
  serve.speedup = 25.0;
  const ExperimentResult result = RunServeExperiment(config, serve);
  ASSERT_FALSE(result.worker_history.empty());
  int peak_workers = 0;
  for (const auto& sample : result.worker_history) {
    ASSERT_EQ(sample.workers.size(), 3u);
    for (int w : sample.workers) {
      peak_workers = std::max(peak_workers, w);
    }
  }
  // 300 req/s into single-worker modules: the engine must have scaled past
  // the initial one worker somewhere.
  EXPECT_GT(peak_workers, 1);
}

TEST(ServeRuntime, PardGoodputAtLeastDropFreeBaselineOnHeterogeneousScenario) {
  // ISSUE 5 acceptance scenario, policy half: on the SAME heterogeneous
  // fleet + failure + recovery under structural overload, PARD's proactive
  // dropping must salvage at least the goodput of the drop-free baseline
  // (whose backlog turns completions late). Identical arrival stream, fleet
  // and fault schedule — policy is the only variable.
  // Sustained ~2x structural overload (capacity provisioned at 0.6x the
  // offered rate, further cut by the t4 grades): the drop-free baseline's
  // queues grow for the whole run, so its completions go late, while PARD
  // sheds the doomed share early. The baseline's good requests all arrive
  // before its backlog passes the SLO, so its normalized goodput falls like
  // 1/duration while PARD's holds at its steady state — 20 virtual seconds
  // make the gap structural. Measured on 4 vCPUs (pard vs naive):
  //   - 5 s, Release, alone: 0.182-0.192 vs 0.151-0.173; six copies at
  //     once: pard < naive in 9 of 24 runs; ASan/UBSan: failed 2 of 10.
  //   - 20 s, Release, alone: 0.516-0.524 vs 0.041-0.042; six copies at
  //     once: 0.34-0.53 vs <= 0.033; TSan: 0.35-0.39 vs <= 0.010; ASan:
  //     0.31-0.36 vs <= 0.022. One pard + naive pair costs ~1.2 s wall.
  auto run = [](const std::string& policy) {
    ExperimentConfig config;
    config.app = "lvhet";  // lv on the mixed a100/t4 catalog.
    config.trace = "tweet";
    config.policy = policy;
    config.duration_s = 20.0;
    config.seed = 7;
    config.runtime.provision_headroom = 0.6;
    config.runtime.cold_start = 200 * kUsPerMs;
    config.runtime.fleet_events = ParseFaultSchedule("1.5:2:kill:1,2:2:add:1");
    config.custom_trace = RateFunction::Constant(300.0);
    ServeOptions serve;
    serve.speedup = 40.0;
    return RunServeExperiment(config, serve);
  };
  const ExperimentResult pard = run("pard");
  const ExperimentResult naive = run("naive");
  ASSERT_EQ(pard.analysis->Total(), naive.analysis->Total())
      << "matched scenario must inject the identical arrival stream";
  EXPECT_GE(pard.analysis->NormalizedGoodput(), naive.analysis->NormalizedGoodput());
}

TEST(ServeRuntime, ShardedBrokersWithScalingAndFaultsConserve) {
  // Contention stress, sized for the tsan preset: 4 broker threads hammer
  // the source module's admission path concurrently while a DAG pipeline's
  // module timer threads fire batches and forward hand-offs under MMPP
  // bursts, the scaling engine adds cold-starting workers, and a fault
  // schedule kills and recovers a worker mid-run. Every request must still
  // resolve exactly once — and a TSan-clean pass pins the contracts
  // (module-held control snapshots, fate claims, module mutexes and
  // outboxes).
  ExperimentConfig config = Fig08SmokeConfig("da", "pard");
  config.duration_s = 2.5;
  config.runtime.fixed_workers = std::vector<int>(5, 2);
  config.runtime.enable_scaling = true;
  config.runtime.scaling_epoch = 1 * kUsPerSec;
  config.runtime.cold_start = 100 * kUsPerMs;
  config.runtime.fleet_events = ParseFaultSchedule("0.8:1:kill:1,1.2:1:add:1");
  config.custom_trace = BurstyTrace(80.0, 600.0, config.duration_s);
  ServeOptions serve;
  serve.speedup = 25.0;
  serve.broker_threads = 4;
  const ExperimentResult result = RunServeExperiment(config, serve);
  ASSERT_GT(result.analysis->Total(), 0u);
  // Structural overload (600 req/s bursts into this fleet): load was shed.
  EXPECT_GT(result.analysis->DropRate(), 0.0);
}

TEST(ServeRuntime, ObsExportWritesLoadableTraceAndMetrics) {
  // End-to-end --trace-out/--metrics-out through the serving runtime: both
  // files must parse as JSON, the trace must contain real lifecycle events
  // (Perfetto loads exactly this shape) and the metrics series must have
  // rows from the control loop's sample job.
  ExperimentConfig config = Fig08SmokeConfig("tm", "pard");
  config.obs.trace_out = testing::TempDir() + "serve_obs_trace.json";
  config.obs.metrics_out = testing::TempDir() + "serve_obs_metrics.json";
  config.runtime.metrics_interval = SecToUs(0.25);
  ServeOptions serve;
  serve.speedup = 25.0;
  const ExperimentResult result = RunServeExperiment(config, serve);
  ASSERT_GT(result.analysis->Total(), 0u);

  const auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const JsonValue trace = ParseJson(read_file(config.obs.trace_out));
  const JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  EXPECT_GT(events->AsArray().size(), 10u);
  bool saw_span = false;
  bool saw_fate = false;
  for (const JsonValue& ev : events->AsArray()) {
    const JsonValue* ph = ev.Find("ph");
    if (ph == nullptr) {
      continue;
    }
    saw_span = saw_span || ph->AsString() == "X";
    if (const JsonValue* name = ev.Find("name");
        name != nullptr && name->AsString().rfind("fate:", 0) == 0) {
      saw_fate = true;
    }
  }
  EXPECT_TRUE(saw_span) << "no exec/queue spans in the exported trace";
  EXPECT_TRUE(saw_fate) << "no terminal fate events in the exported trace";

  const JsonValue metrics = ParseJson(read_file(config.obs.metrics_out));
  ASSERT_TRUE(metrics.At("samples").IsArray());
  EXPECT_GT(metrics.At("samples").AsArray().size(), 0u)
      << "the control loop took no metrics sample";
  // Every terminal request bumps exactly one fate.* counter. Assert the
  // conservation sum rather than completions alone — under sanitizer
  // slowdown a short run can legitimately complete zero requests.
  const JsonObject& totals = metrics.At("totals").AsObject();
  ASSERT_TRUE(totals.count("fate.completed"));
  std::int64_t fates = 0;
  for (const auto& [name, value] : totals) {
    if (name.rfind("fate.", 0) == 0) {
      fates += value.AsInt();
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(fates), result.analysis->Total());
}

TEST(ServeRuntime, DynamicPathsServeTerminalUnderBursts) {
  ExperimentConfig config = Fig08SmokeConfig("da", "pard");
  config.runtime.dynamic_paths = true;
  config.custom_trace = RateFunction::Constant(120.0);
  ServeOptions serve;
  serve.speedup = 40.0;
  const ExperimentResult result = RunServeExperiment(config, serve);
  ASSERT_GT(result.analysis->Total(), 0u);
}

// ---- Off-lock sync + parallel refresh (ISSUE 10) ---------------------------

std::vector<ModuleState> RefreshWarmStates(int n, int round, Rng* rng) {
  std::vector<ModuleState> states;
  for (int i = 0; i < n; ++i) {
    ModuleState s;
    s.module_id = i;
    s.batch_duration = (8 + round) * kUsPerMs;
    s.batch_size = 4;
    s.avg_queue_delay = 1000.0 + 100.0 * round;
    s.load_factor = 0.7;
    for (int j = 0; j < 256; ++j) {
      s.wait_samples.push_back(rng->Uniform(0.0, 12000.0));
    }
    states.push_back(std::move(s));
  }
  return states;
}

// Per-module forked RNG streams make the refreshed estimates a deterministic
// function of the Sync sequence, independent of the refresh pool's thread
// count: every broker decision after the same syncs must be identical.
TEST(ControlPlaneRefresh, ParallelRefreshDeterministicAcrossThreadCounts) {
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board_1(lv.NumModules());
  StateBoard board_4(lv.NumModules());
  PardPolicy policy_1;
  PardPolicy policy_4;
  ControlPlane::Options opt_1;
  opt_1.parallel_refresh = true;
  opt_1.refresh_threads = 1;
  ControlPlane::Options opt_4;
  opt_4.parallel_refresh = true;
  opt_4.refresh_threads = 4;
  ControlPlane plane_1(&lv, &policy_1, &board_1, opt_1);
  ControlPlane plane_4(&lv, &policy_4, &board_4, opt_4);

  Rng rng_1(55);
  Rng rng_4(55);
  for (int round = 0; round < 3; ++round) {
    const SimTime now = (round + 1) * kUsPerSec;
    std::vector<ModuleState> states_1 = RefreshWarmStates(lv.NumModules(), round, &rng_1);
    std::vector<ModuleState> states_4 = RefreshWarmStates(lv.NumModules(), round, &rng_4);
    const PolicyRefreshStats a = plane_1.Sync(states_1, now);
    const PolicyRefreshStats b = plane_4.Sync(states_4, now);
    EXPECT_EQ(a.refreshed, b.refreshed) << round;
    EXPECT_EQ(a.skipped, b.skipped) << round;

    const RequestPtr owned = NewRequest(std::make_shared<RequestArena>(), lv.NumModules());
    Request& req = *owned;
    req.id = 1;
    req.slo = lv.slo();
    req.sent = now;
    for (int m = 0; m < lv.NumModules(); ++m) {
      EXPECT_EQ(policy_1.estimator()->EstimateSubsequent(m),
                policy_4.estimator()->EstimateSubsequent(m))
          << "round " << round << " module " << m;
      for (Duration age = 0; age <= req.slo; age += 10 * kUsPerMs) {
        AdmissionContext ctx;
        ctx.request = &req;
        ctx.module_id = m;
        ctx.now = now + age;
        ctx.batch_start = now + age;
        ctx.batch_duration = 10 * kUsPerMs;
        ctx.batch_size = 4;
        EXPECT_EQ(plane_1.ShouldDrop(plane_1.snapshot(), ctx),
                  plane_4.ShouldDrop(plane_4.snapshot(), ctx))
            << "round " << round << " module " << m << " age " << age;
      }
    }
  }
}

// TSan hammer for the module contract: four readers, each standing in for a
// module with its own mutex and held snapshot, decide only under that mutex
// while the syncing thread runs repeated Syncs — board publish, OnSync,
// pooled estimator refresh and snapshot build, with no control mutex — and
// after each hands every reader the new snapshot under the reader's mutex,
// as ControlLoop::SyncTick does. A TSan-clean pass pins that the sync and
// the decisions share nothing but the immutable views.
TEST(ControlPlaneRefresh, OffLockSyncPublishesCleanlyUnderConcurrentReaders) {
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board(lv.NumModules());
  PardPolicy policy;
  ControlPlane::Options options;
  options.parallel_refresh = true;
  options.refresh_threads = 2;
  ControlPlane plane(&lv, &policy, &board, options);

  struct Reader {
    std::mutex mu;
    ControlSnapshot held;  // Guarded by mu.
  };
  std::array<Reader, 4> readers;
  for (Reader& reader : readers) {
    reader.held = plane.snapshot();  // What a module takes at construction.
  }
  std::atomic<bool> stop{false};
  std::atomic<int> deciding{0};  // Readers past their first decisions.
  std::atomic<std::uint64_t> decisions{0};
  WorkerGroup threads;
  for (int t = 0; t < static_cast<int>(readers.size()); ++t) {
    threads.Spawn([&, t]() {
      Reader& reader = readers[static_cast<std::size_t>(t)];
      // Each thread takes its request from an arena of its own: arenas are
      // single-threaded.
      const RequestPtr owned = NewRequest(std::make_shared<RequestArena>(), lv.NumModules());
      Request& req = *owned;
      req.id = static_cast<std::uint64_t>(t) + 1;
      req.slo = lv.slo();
      Rng admit_rng(static_cast<std::uint64_t>(t) + 1);  // Each module's own, in a run.
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int m = 0; m < lv.NumModules(); ++m) {
          const SimTime now = static_cast<SimTime>(local % 7) * 100 * kUsPerMs;
          req.sent = now;
          AdmissionContext ctx;
          ctx.request = &req;
          ctx.module_id = m;
          ctx.now = now;
          ctx.batch_start = now;
          ctx.batch_duration = 10 * kUsPerMs;
          ctx.batch_size = 4;
          std::lock_guard<std::mutex> lock(reader.mu);
          plane.ShouldDrop(reader.held, ctx);
          plane.ChoosePopSide(reader.held, m, now);
          plane.AdmitAtModule(reader.held, req, m, now, &admit_rng);
          ++local;
        }
        if (local == static_cast<std::uint64_t>(lv.NumModules())) {
          deciding.fetch_add(1, std::memory_order_relaxed);
        }
      }
      decisions.fetch_add(local, std::memory_order_relaxed);
    });
  }
  // Sync only once every reader decides, so the syncs overlap decisions
  // even on a loaded host.
  while (deciding.load(std::memory_order_relaxed) < static_cast<int>(readers.size())) {
    std::this_thread::yield();
  }
  Rng rng(66);
  const std::uint64_t epoch_before = plane.SnapshotEpoch();
  constexpr int kSyncs = 50;
  for (int round = 0; round < kSyncs; ++round) {
    std::vector<ModuleState> states = RefreshWarmStates(lv.NumModules(), round % 5, &rng);
    plane.Sync(states, (round + 1) * 100 * kUsPerMs);
    for (Reader& reader : readers) {
      std::lock_guard<std::mutex> lock(reader.mu);
      reader.held = plane.snapshot();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  threads.Join();
  EXPECT_EQ(plane.SnapshotEpoch(), epoch_before + kSyncs);
  for (Reader& reader : readers) {
    std::lock_guard<std::mutex> lock(reader.mu);
    EXPECT_EQ(reader.held.view, plane.snapshot().view);
    EXPECT_EQ(reader.held.published_at, kSyncs * 100 * kUsPerMs);
  }
  EXPECT_GT(decisions.load(), 0u);
}

}  // namespace
}  // namespace pard
