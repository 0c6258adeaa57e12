// Tests for the resilience layer (src/resilience/ + the runtime hooks):
//
//   1. ChaosSchedule grammar — positive parses for all four event forms and
//      negative parses whose errors name the event index, field position and
//      offending token.
//   2. Deterministic expansion — probabilistic entries expand to the same
//      concrete timeline for the same (schedule, seed) on every call, so sim
//      and serve replay identical chaos.
//   3. Simulator substrate — kill-heavy schedules with retries enabled run
//      to a log that passes the end-of-run check (CheckRunInvariants), a
//      retried request keeps no stamp of its lost attempt, a sync stall past
//      the staleness budget trips the stale-snapshot fallback,
//      the watchdog recovers an indefinite hang on a deterministic
//      timeline (judged at scheduled instants even when the clock reads
//      late, as serve's does), and chaos runs are bit-deterministic. Both runtimes refuse
//      a fault or chaos event naming an unknown module.
//   4. Serving substrate — the randomized chaos soak: ~30 virtual seconds of
//      hangs (scheduled + probabilistic), a slowdown, a control-plane sync
//      stall and live scaling. Asserts watchdog recovery of
//      hung workers within the hang budget (plus sweep/scheduling slack),
//      replacement provisioning, and stale-snapshot fallback activity. Runs
//      under TSan in the tsan preset, pinning the watchdog and
//      snapshot-staleness concurrency contracts.
//   5. The acceptance comparison: under chaos overload PARD's proactive
//      dropping must still beat the drop-free baseline on goodput
//      (simulated, so the comparison is exact and cannot flake).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/policy_factory.h"
#include "common/check.h"
#include "common/time_types.h"
#include "harness/experiment.h"
#include "metrics/analysis.h"
#include "models/registry.h"
#include "obs/drop_reason.h"
#include "pipeline/apps.h"
#include "resilience/chaos.h"
#include "runtime/backend_fleet.h"
#include "runtime/control_loop.h"
#include "runtime/module_host.h"
#include "runtime/module_runtime.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/request_lifecycle.h"
#include "serve/serve_options.h"
#include "serve/serve_runtime.h"
#include "sim/simulation.h"

namespace pard {
namespace {

// ---------------------------------------------------------------- grammar --

TEST(ChaosSchedule, ParsesAllEventForms) {
  const ChaosSchedule schedule = ParseChaosSchedule(
      "5:1:hang:2, 8:0:slow:3.5:4, 10:stall-sync:3, 2:1:hang:1:0.5, "
      "prob:2:hang:0.4:30");
  ASSERT_EQ(schedule.events.size(), 5u);

  const ChaosEvent& hang = schedule.events[0];
  EXPECT_EQ(hang.kind, ChaosKind::kHang);
  EXPECT_EQ(hang.at, SecToUs(5));
  EXPECT_EQ(hang.module_id, 1);
  EXPECT_EQ(hang.count, 2);
  EXPECT_EQ(hang.duration, 0);  // Indefinite: cleared by watchdog/Fail only.

  const ChaosEvent& slow = schedule.events[1];
  EXPECT_EQ(slow.kind, ChaosKind::kSlow);
  EXPECT_EQ(slow.module_id, 0);
  EXPECT_DOUBLE_EQ(slow.factor, 3.5);
  EXPECT_EQ(slow.duration, SecToUs(4));

  const ChaosEvent& stall = schedule.events[2];
  EXPECT_EQ(stall.kind, ChaosKind::kStallSync);
  EXPECT_EQ(stall.module_id, -1);
  EXPECT_EQ(stall.duration, SecToUs(3));

  const ChaosEvent& finite_hang = schedule.events[3];
  EXPECT_EQ(finite_hang.duration, MsToUs(500));

  const ChaosEvent& prob = schedule.events[4];
  EXPECT_DOUBLE_EQ(prob.rate_per_s, 0.4);
  EXPECT_EQ(prob.window_end, SecToUs(30));
}

TEST(ChaosSchedule, RejectsMalformedEntries) {
  EXPECT_THROW(ParseChaosSchedule(""), CheckError);
  EXPECT_THROW(ParseChaosSchedule("5:1"), CheckError);
  EXPECT_THROW(ParseChaosSchedule("x:1:hang:1"), CheckError);
  EXPECT_THROW(ParseChaosSchedule("5:1:explode:1"), CheckError);
  EXPECT_THROW(ParseChaosSchedule("5:1:hang:0"), CheckError);
  EXPECT_THROW(ParseChaosSchedule("5:1:slow:2.0"), CheckError);       // No duration.
  EXPECT_THROW(ParseChaosSchedule("5:1:slow:0:4"), CheckError);       // Zero factor.
  EXPECT_THROW(ParseChaosSchedule("5:stall-sync:0"), CheckError);     // Zero duration.
  EXPECT_THROW(ParseChaosSchedule("prob:1:slow:2.0:4"), CheckError);  // prob != hang.
  EXPECT_THROW(ParseChaosSchedule("prob:1:hang:0:30"), CheckError);   // Zero rate.
}

// Parse errors must point at the exact event and token, mirroring the fault-
// schedule parser's contract.
TEST(ChaosSchedule, ErrorsNameTheBadTokenAndPosition) {
  const auto message_of = [](const char* text) -> std::string {
    try {
      ParseChaosSchedule(text);
    } catch (const CheckError& e) {
      return e.what();
    }
    return "";
  };
  {
    const std::string msg = message_of("1:0:hang:1, 5:bad:hang:1");
    EXPECT_NE(msg.find("chaos event 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("field 2 (\"bad\")"), std::string::npos) << msg;
  }
  {
    const std::string msg = message_of("5:1:explode:1");
    EXPECT_NE(msg.find("chaos event 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("field 3 (\"explode\")"), std::string::npos) << msg;
    EXPECT_NE(msg.find("hang|slow|stall-sync"), std::string::npos) << msg;
  }
  {
    const std::string msg = message_of("q:1:hang:1");
    EXPECT_NE(msg.find("field 1 (\"q\")"), std::string::npos) << msg;
  }
}

// ------------------------------------------------------------- expansion --

TEST(ChaosSchedule, ExpansionIsDeterministicPerSeed) {
  const ChaosSchedule schedule = ParseChaosSchedule("prob:0:hang:2.0:20, 3:1:slow:2.0:5");
  const std::vector<ChaosEvent> a = ExpandChaosSchedule(schedule, 42);
  const std::vector<ChaosEvent> b = ExpandChaosSchedule(schedule, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].module_id, b[i].module_id);
  }
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(), [](const ChaosEvent& x, const ChaosEvent& y) {
    return x.at < y.at;
  }));
  // ~40 expected hangs plus the pass-through slow event; every expanded hang
  // is concrete (no residual rate) and inside the window.
  std::size_t hangs = 0;
  for (const ChaosEvent& e : a) {
    if (e.kind == ChaosKind::kHang) {
      ++hangs;
      EXPECT_EQ(e.rate_per_s, 0.0);
      EXPECT_EQ(e.count, 1);
      EXPECT_LT(e.at, SecToUs(20));
    }
  }
  EXPECT_GT(hangs, 10u);
  EXPECT_LT(hangs, 100u);

  // A different seed draws a different timeline (equal timelines would need
  // dozens of identical exponential draws).
  const std::vector<ChaosEvent> c = ExpandChaosSchedule(schedule, 43);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at != c[i].at;
  }
  EXPECT_TRUE(differs);
}

// ------------------------------------------------------------- simulator --

ExperimentConfig KillHeavyConfig() {
  ExperimentConfig config;
  config.app = "tm";
  config.trace = "tweet";
  config.policy = "pard";
  config.duration_s = 10.0;
  config.base_rate = 250.0;  // Structural overload for 2-worker modules.
  config.seed = 7;
  config.slo_override = 2 * kUsPerSec;  // Roomy SLO so retries can land.
  config.runtime.enable_scaling = false;
  config.runtime.fixed_workers = {2, 2, 2};
  config.runtime.fleet_events =
      ParseFaultSchedule("2:0:kill:1,3:1:kill:1,4:1:add:1,5:2:kill:1,6:0:add:1,7:1:kill:1");
  config.runtime.resilience.max_retries = 2;
  return config;
}

TEST(SimResilience, RetriedRequestKeepsNoStampOfItsLostAttempt) {
  // Three workers per module under overload with a 2 s SLO, one worker of
  // module i % 3 killed at each second i = 1..10 and added back 0.4 s
  // later: hundreds of requests are re-enqueued mid-batch. A retry must drop
  // the lost batch's batch_entry and exec_start; kept, a retried request
  // reads arrive after exec_start and the run's end-of-run check throws
  // (rule 2, monotone hop stamps).
  ExperimentConfig config;
  config.app = "tm";
  config.trace = "tweet";
  config.policy = "pard";
  config.duration_s = 12.0;
  config.base_rate = 260.0;
  config.seed = 11;
  config.slo_override = 2 * kUsPerSec;
  config.runtime.enable_scaling = false;
  config.runtime.fixed_workers = {3, 3, 3};
  config.runtime.resilience.max_retries = 3;
  std::string schedule;
  for (int i = 1; i <= 10; ++i) {
    const std::string module = std::to_string(i % 3);
    schedule += (i > 1 ? "," : "") + std::to_string(i) + ":" + module + ":kill:1," +
                std::to_string(i) + ".4:" + module + ":add:1";
  }
  config.runtime.fleet_events = ParseFaultSchedule(schedule);
  const ExperimentResult result = RunExperiment(config);
  EXPECT_GT(result.retries, 100u);
}

TEST(SimResilience, SyncStallPastStalenessBudgetFallsBackAndConserves) {
  // The simulator decides through the same control plane as serve, so it
  // honors the staleness budget too: a 3 s sync stall ages the published
  // snapshot past a 1 s budget and the broker takes the conservative
  // fallback rules until syncing resumes.
  ExperimentConfig config = KillHeavyConfig();
  config.runtime.fleet_events.clear();
  config.runtime.resilience.chaos = ParseChaosSchedule("4:stall-sync:3");
  config.runtime.resilience.staleness_budget = 1 * kUsPerSec;
  const ExperimentResult stalled = RunExperiment(config);
  ASSERT_GT(stalled.analysis->Total(), 500u);
  EXPECT_GT(stalled.stale_fallbacks, 0u);

  // Without the stall every decision reads a snapshot at most one sync
  // period old, inside the budget.
  config.runtime.resilience.chaos = ChaosSchedule();
  EXPECT_EQ(RunExperiment(config).stale_fallbacks, 0u);
}

// The serve soak's overload (tm, two workers per module, 150 req/s evenly
// spaced for 30 virtual seconds) with one indefinite module-1 hang at t=3 s,
// run on the simulator. The policy outlives the runtime.
struct SimHangRun {
  std::unique_ptr<DropPolicy> policy;
  std::unique_ptr<PipelineRuntime> runtime;
};

SimHangRun RunIndefiniteHang(Duration hang_budget) {
  RuntimeOptions options;
  options.seed = 11;
  options.enable_scaling = false;  // Recovery comes from the watchdog path.
  options.fixed_workers = {2, 2, 2};
  options.resilience.chaos = ParseChaosSchedule("3:1:hang:1");
  options.resilience.max_retries = 2;
  options.resilience.hang_budget = hang_budget;
  SimHangRun run;
  run.policy = MakePolicy("pard", PolicyParams{});
  run.runtime = std::make_unique<PipelineRuntime>(MakeApp("tm"), options, run.policy.get(), 150.0);
  std::vector<SimTime> arrivals;
  for (int i = 0; i < 4500; ++i) {
    arrivals.push_back(static_cast<SimTime>(i) * 6667);
  }
  run.runtime->RunTrace(arrivals);
  return run;
}

TEST(SimResilience, WatchdogRecoversIndefiniteHang) {
  // The simulator runs the serve watchdog's control job, so the hang is
  // caught on an exact timeline: hung at 3 s, past the 2 s budget after
  // 5 s, failed at the first sweep (every budget / 4) after that.
  constexpr SimTime kHangAt = 3 * kUsPerSec;
  constexpr Duration kBudget = 2 * kUsPerSec;
  constexpr Duration kSweep = kBudget / 4;
  const SimHangRun run = RunIndefiniteHang(kBudget);
  const PipelineRuntime& rt = *run.runtime;
  const RunAnalysis analysis(rt.requests(), rt.spec());
  ASSERT_EQ(analysis.Total(), 4500u);
  EXPECT_GE(rt.watchdog_recoveries(), 1u);

  SimTime first_kill = -1;
  bool saw_replacement_cold = false;
  bool saw_replacement_active = false;
  for (const FleetTransition& t : rt.fleet().transitions()) {
    if (t.module_id != 1) {
      continue;
    }
    if (t.to == BackendState::kFailed && first_kill < 0) {
      first_kill = t.at;
    } else if (first_kill >= 0 && t.to == BackendState::kColdStarting) {
      saw_replacement_cold = true;
    } else if (saw_replacement_cold && t.to == BackendState::kActive) {
      saw_replacement_active = true;
    }
  }
  ASSERT_GE(first_kill, 0) << "watchdog never failed the hung module-1 worker";
  EXPECT_GE(first_kill, kHangAt + kBudget);
  EXPECT_LE(first_kill, kHangAt + kBudget + kSweep);
  EXPECT_TRUE(saw_replacement_cold);
  EXPECT_TRUE(saw_replacement_active);

  // Deterministic: a second run leaves the identical fleet log.
  const SimHangRun again = RunIndefiniteHang(kBudget);
  const std::vector<FleetTransition>& a = rt.fleet().transitions();
  const std::vector<FleetTransition>& b = again.runtime->fleet().transitions();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at) << i;
    EXPECT_EQ(a[i].module_id, b[i].module_id) << i;
    EXPECT_EQ(a[i].worker_id, b[i].worker_id) << i;
    EXPECT_EQ(a[i].to, b[i].to) << i;
  }
  EXPECT_EQ(again.runtime->watchdog_recoveries(), rt.watchdog_recoveries());

  // With the watchdog off the hung worker stays hung until the run ends.
  const SimHangRun off = RunIndefiniteHang(0);
  EXPECT_EQ(off.runtime->watchdog_recoveries(), 0u);
  for (const FleetTransition& t : off.runtime->fleet().transitions()) {
    EXPECT_NE(t.to, BackendState::kFailed) << "module " << t.module_id << " at " << t.at;
  }
}

// The simulator's kernel read through a clock that runs 1 ms late per
// virtual second, as serve's timer threads wake after their deadlines: every
// event still fires at its scheduled instant, but Now() trails it by more
// the later the event.
class LateTimer final : public ModuleTimer {
 public:
  explicit LateTimer(Simulation* sim) : sim_(sim) {}
  SimTime Now() const override { return sim_->Now() + sim_->Now() / 1000; }
  EventId ScheduleAt(SimTime t, Callback cb) override { return sim_->ScheduleAt(t, std::move(cb)); }
  bool Cancel(EventId id) override { return sim_->Cancel(id); }

 private:
  Simulation* sim_;
};

// Host of a one-module pipeline that never sees a request.
class IdleHost final : public ModuleHost {
 public:
  explicit IdleHost(RequestLifecycle* lifecycle) : lifecycle_(lifecycle) {}
  void OnModuleDone(RequestPtr, int) override { ADD_FAILURE() << "no request was injected"; }
  RequestLifecycle& lifecycle() override { return *lifecycle_; }

 private:
  RequestLifecycle* lifecycle_;
};

TEST(SimResilience, LateWakeUpsJudgeHangsAtTheirScheduledInstants) {
  // smoke_pardsim_chaos's timing: a hang at 1 s, a 1 s budget, sweeps every
  // 0.25 s. The sweep at 2.0 s finds the worker hung for exactly the budget,
  // not longer, so the first kill is the 2.25 s sweep's — even when each
  // job reads the clock late, and the 2.0 s sweep later than the hang.
  constexpr SimTime kHangAt = 1 * kUsPerSec;
  constexpr Duration kBudget = 1 * kUsPerSec;
  constexpr SimTime kFirstKill = kHangAt + kBudget + kBudget / 4;
  ModuleSpec module;
  module.id = 0;
  module.model = "eye_tracking";
  const PipelineSpec spec("one", 200 * kUsPerMs, {module});
  RuntimeOptions options;
  options.resilience.chaos = ParseChaosSchedule("1:0:hang:1");
  options.resilience.hang_budget = kBudget;
  std::unique_ptr<DropPolicy> policy = MakePolicy("pard", PolicyParams{});

  Simulation sim;
  LateTimer timer(&sim);
  RequestLifecycle lifecycle(spec, options);
  BackendFleet fleet(spec, options.cold_start, options.cost_aware_provisioning);
  IdleHost host(&lifecycle);
  std::unique_ptr<ModuleRuntime> runtime;
  ControlLoop::Substrate substrate;
  substrate.timer = &timer;
  substrate.with_module = [&runtime](int, const ControlLoop::ModuleFn& fn) { fn(*runtime); };
  substrate.control = ControlPlane::RunOptions(options);
  ControlLoop loop(spec, options, policy.get(), &lifecycle, &fleet, substrate);
  runtime = std::make_unique<ModuleRuntime>(&timer, &host, &loop.control(), &fleet, module,
                                            ProfileRegistry::Get(module.model),
                                            lifecycle.batch_sizes()[0], 2, options);
  loop.StopAfter(3 * kUsPerSec);
  sim.Run();

  SimTime first_kill = -1;
  for (const FleetTransition& t : fleet.transitions()) {
    if (t.to == BackendState::kFailed) {
      first_kill = t.at;
      break;
    }
  }
  EXPECT_EQ(loop.watchdog_recoveries(), 1u);
  // Fail() stamps the late clock: the 2.25 s sweep reads 2.25225 s.
  EXPECT_EQ(first_kill, kFirstKill + kFirstKill / 1000);
}

TEST(ScheduleValidation, UnknownModuleFailsBothRuntimes) {
  // A schedule naming a module the pipeline does not have must fail
  // construction loudly, naming the module, in both substrates.
  const PipelineSpec spec = MakeApp("tm");
  const std::string unknown = std::to_string(spec.NumModules());
  std::vector<RuntimeOptions> bad(2);
  bad[0].fleet_events = ParseFaultSchedule("1:" + unknown + ":kill:1");
  bad[1].resilience.chaos = ParseChaosSchedule("1:" + unknown + ":hang:1");
  ServeOptions serve;
  for (RuntimeOptions& options : bad) {
    options.fixed_workers = {1, 1, 1};
    std::unique_ptr<DropPolicy> policy = MakePolicy("pard", PolicyParams{});
    const auto message_of = [&](auto construct) -> std::string {
      try {
        construct();
      } catch (const CheckError& e) {
        return e.what();
      }
      return "";
    };
    const std::string sim =
        message_of([&] { PipelineRuntime rt(spec, options, policy.get(), 10.0); });
    const std::string served =
        message_of([&] { ServeRuntime rt(spec, options, policy.get(), 10.0, serve); });
    for (const std::string& msg : {sim, served}) {
      EXPECT_NE(msg.find("unknown module " + unknown), std::string::npos) << "'" << msg << "'";
    }
  }
}

TEST(SimResilience, ChaosRunsAreBitDeterministic) {
  ExperimentConfig config = KillHeavyConfig();
  config.runtime.resilience.chaos =
      ParseChaosSchedule("2.5:1:hang:1:1.5, 4:0:slow:2.5:3, 5:stall-sync:2, prob:2:hang:0.5:9");
  const ExperimentResult a = RunExperiment(config);
  const ExperimentResult b = RunExperiment(config);
  ASSERT_EQ(a.analysis->Total(), b.analysis->Total());
  EXPECT_GT(a.retries, 0u);  // The kills strand queued work with budget to spare.
  EXPECT_EQ(a.retries, b.retries);
  for (std::size_t i = 0; i < a.analysis->requests().size(); ++i) {
    const Request& x = *a.analysis->requests()[i];
    const Request& y = *b.analysis->requests()[i];
    ASSERT_EQ(x.fate, y.fate) << "request " << x.id;
    ASSERT_EQ(x.finish, y.finish) << "request " << x.id;
    ASSERT_EQ(x.drop_reason, y.drop_reason) << "request " << x.id;
  }
}

TEST(SimResilience, FiniteHangDelaysButConserves) {
  // A finite hang freezes one of two workers for 2 s mid-run: throughput
  // halves during the window, then the worker resumes. The run's log passes
  // its end-of-run check; the hang itself drops nothing.
  ExperimentConfig config = KillHeavyConfig();
  config.runtime.fleet_events.clear();
  config.runtime.resilience.chaos = ParseChaosSchedule("3:1:hang:1:2");
  const ExperimentResult result = RunExperiment(config);
  const std::vector<std::size_t> reasons = result.analysis->DropReasonCounts();
  EXPECT_EQ(reasons[static_cast<std::size_t>(DropReason::kWorkerFailure)], 0u);
  EXPECT_EQ(reasons[static_cast<std::size_t>(DropReason::kRetryExhausted)], 0u);
}

TEST(SimResilience, PardBeatsDropFreeBaselineUnderChaosOverload) {
  // The acceptance comparison, run on the deterministic substrate so the
  // ordering is exact: under overload with kills, hangs, a slowdown and a
  // sync stall, proactive dropping must still clear more goodput than the
  // drop-free naive baseline (which wastes GPU time on doomed requests).
  ExperimentConfig config = KillHeavyConfig();
  config.slo_override = 0;  // The app SLO: tight enough that lateness bites.
  config.runtime.resilience.chaos =
      ParseChaosSchedule("2.5:1:hang:1:1.5, 4:0:slow:2.0:3, 5:stall-sync:2");
  const ExperimentResult pard = RunExperiment(config);
  config.policy = "naive";
  const ExperimentResult naive = RunExperiment(config);
  EXPECT_GE(pard.analysis->NormalizedGoodput(), naive.analysis->NormalizedGoodput())
      << "pard=" << pard.analysis->NormalizedGoodput()
      << " naive=" << naive.analysis->NormalizedGoodput();
  EXPECT_GT(pard.analysis->NormalizedGoodput(), 0.0);
}

// --------------------------------------------------------------- serving --

TEST(ServeResilience, ChaosSoakRecoversHungWorkersAndConserves) {
  // The randomized chaos soak: 30 virtual seconds of structural overload
  // with a scheduled indefinite hang, probabilistic hangs, a slowdown, a
  // control-plane sync stall and the deadline-aware retry path — the full
  // self-healing loop end to end. Bounds below are generous because
  // wall-clock scheduling (and TSan's ~10x slowdown in the tsan preset)
  // jitters detection latency; the *virtual* duration is fixed by the
  // speedup, so the test costs ~3 s of wall time regardless.
  PipelineSpec spec = MakeApp("tm");
  RuntimeOptions options;
  options.seed = 11;
  options.enable_scaling = false;  // Recovery comes from the watchdog path.
  options.fixed_workers = {2, 2, 2};
  options.resilience.chaos = ParseChaosSchedule(
      "3:1:hang:1, 10:stall-sync:4, 16:2:slow:3.0:6, prob:0:hang:0.15:28");
  options.resilience.max_retries = 2;
  options.resilience.hang_budget = 2 * kUsPerSec;
  options.resilience.staleness_budget = 1 * kUsPerSec;
  std::unique_ptr<DropPolicy> policy = MakePolicy("pard", PolicyParams{});
  ServeOptions serve;
  serve.speedup = 10.0;
  ServeRuntime runtime(spec, options, policy.get(), 150.0, serve);

  // 150 req/s of evenly-spaced arrivals for 30 virtual seconds: structural
  // overload for 2-worker modules, so every worker is continuously busy and
  // the hang at t=3 s is guaranteed to land on an in-flight batch.
  std::vector<SimTime> arrivals;
  for (int i = 0; i < 4500; ++i) {
    arrivals.push_back(static_cast<SimTime>(i) * 6667);
  }
  runtime.RunTrace(arrivals);  // Throws when the chaos broke a record.
  ASSERT_EQ(runtime.requests().size(), arrivals.size());

  // The watchdog force-failed the scheduled indefinite hang (plus any
  // probabilistic hangs it caught mid-batch), and each kill provisioned a
  // replacement worker.
  ASSERT_GE(runtime.watchdog_recoveries(), 1u);

  // Recovery timeline from the fleet transition log: the scheduled hang
  // lands at t=3 s on a busy module-1 worker. Detection must come after the
  // 2 s hang budget has genuinely elapsed and before budget + sweep cadence
  // + generous scheduling slack; the replacement must cold-start and
  // eventually activate.
  constexpr SimTime kHangAt = 3 * kUsPerSec;
  constexpr SimTime kBudget = 2 * kUsPerSec;
  constexpr SimTime kSlack = 6 * kUsPerSec;  // Sweep period + TSan/CI jitter.
  SimTime first_kill = -1;
  bool saw_replacement_cold = false;
  bool saw_replacement_active = false;
  for (const FleetTransition& t : runtime.fleet().transitions()) {
    if (t.module_id != 1) {
      continue;
    }
    if (t.to == BackendState::kFailed && first_kill < 0 && t.at >= kHangAt) {
      first_kill = t.at;
    } else if (first_kill >= 0 && t.to == BackendState::kColdStarting) {
      saw_replacement_cold = true;
    } else if (saw_replacement_cold && t.to == BackendState::kActive) {
      saw_replacement_active = true;
    }
  }
  ASSERT_GE(first_kill, 0) << "watchdog never failed the hung module-1 worker";
  EXPECT_GE(first_kill, kHangAt + kBudget);
  EXPECT_LE(first_kill, kHangAt + kBudget + kSlack);
  EXPECT_TRUE(saw_replacement_cold);
  EXPECT_TRUE(saw_replacement_active);

  // The sync stall at t=10 s ages the snapshot past the 1 s staleness
  // budget, so lock-free readers must have taken the conservative fallback.
  EXPECT_GT(runtime.control().StaleFallbacks(), 0u);
}

}  // namespace
}  // namespace pard
