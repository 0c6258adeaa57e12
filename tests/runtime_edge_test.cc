// Edge-case coverage for the serving runtime: DAG drop interactions, invalid
// accounting across branches, state-board staleness, network delay,
// queue-order consequences, the end-of-run record check
// (CheckRunInvariants), one test per rule, and racing fate claims.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/naive_policy.h"
#include "baselines/nexus_policy.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/pard_policy.h"
#include "metrics/analysis.h"
#include "obs/metrics.h"
#include "pipeline/apps.h"
#include "resilience/chaos.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/request_arena.h"
#include "runtime/request_lifecycle.h"
#include "trace/arrival_generator.h"

namespace pard {
namespace {

RuntimeOptions FixedWorkers(std::vector<int> workers, Duration network_delay = 500) {
  RuntimeOptions o;
  o.fixed_workers = std::move(workers);
  o.network_delay = network_delay;
  return o;
}

// Drops requests at a chosen module, but only for decisions taken after a
// cutoff time (so sibling DAG branches get a chance to run first).
class DropAtModulePolicy : public DropPolicy {
 public:
  DropAtModulePolicy(int module_id, SimTime after = 0)
      : module_id_(module_id), after_(after) {}
  std::shared_ptr<const PolicyView> MakeView() override {
    struct View final : PolicyView {
      bool ShouldDrop(const AdmissionContext& ctx) const override {
        return ctx.module_id == module_id && ctx.now >= after;
      }
      int module_id = 0;
      SimTime after = 0;
    };
    auto view = std::make_shared<View>();
    view->module_id = module_id_;
    view->after = after_;
    return view;
  }
  std::string Name() const override { return "drop-at-module"; }

 private:
  int module_id_;
  SimTime after_;
};

TEST(DagRuntime, DropOnOneBranchInvalidatesSiblingWork) {
  // The pose branch (module 1) has one backlogged worker while the face
  // branch (module 2) has four; requests reaching the pose broker after
  // 100 ms are dropped there, by which time the face branch has already
  // executed them — wasted sibling computation, the DAG effect the paper
  // quantifies in §5.2.
  DropAtModulePolicy policy(1, MsToUs(100));
  // Pose (module 1) is the bottleneck: its broker decisions lag the face
  // branch's execution, so drops there strand completed face work.
  PipelineRuntime rt(MakeDagLiveVideo(), FixedWorkers({4, 1, 4, 2, 2}), &policy, 20.0);
  rt.RunTrace(GenerateUniformArrivals(800.0, 0, SecToUs(2)));
  std::size_t wasted_sibling = 0;
  for (const RequestPtr& r : rt.requests()) {
    if (r->fate == RequestFate::kDropped && r->drop_module == 1) {
      EXPECT_FALSE(r->hops[1].executed);
      EXPECT_FALSE(r->hops[3].executed);  // Merge never ran.
      if (r->hops[2].executed) {
        EXPECT_GT(r->hops[2].gpu_time, 0);
        ++wasted_sibling;
      }
    }
  }
  EXPECT_GT(wasted_sibling, 10u);
}

TEST(DagRuntime, DropAtMergeStopsSink) {
  DropAtModulePolicy policy(3);
  PipelineRuntime rt(MakeDagLiveVideo(), FixedWorkers({1, 1, 1, 1, 1}), &policy, 20.0);
  rt.RunTrace({0});
  const RequestPtr& r = rt.requests()[0];
  EXPECT_EQ(r->fate, RequestFate::kDropped);
  EXPECT_EQ(r->drop_module, 3);
  EXPECT_TRUE(r->hops[1].executed);
  EXPECT_TRUE(r->hops[2].executed);
  EXPECT_FALSE(r->hops[4].executed);
}

TEST(NetworkDelay, AccumulatesPerHop) {
  NaivePolicy policy;
  const Duration delay = 3 * kUsPerMs;
  PipelineRuntime rt(MakeTrafficMonitoring(), FixedWorkers({1, 1, 1}, delay), &policy, 10.0);
  rt.RunTrace({0});
  const RequestPtr& r = rt.requests()[0];
  EXPECT_EQ(r->hops[0].arrive, delay);  // Client -> M1.
  EXPECT_EQ(r->hops[1].arrive, r->hops[0].exec_end + delay);
  EXPECT_EQ(r->hops[2].arrive, r->hops[1].exec_end + delay);
}

TEST(StateBoard, SyncPublishesFreshStates) {
  NaivePolicy policy;
  RuntimeOptions options = FixedWorkers({1, 1, 1});
  PipelineRuntime rt(MakeTrafficMonitoring(), options, &policy, 100.0);
  // Before any sync tick, board states are defaults.
  EXPECT_EQ(rt.board().Get(0).updated_at, 0);
  Rng rng(3);
  const auto arrivals = GenerateArrivals(RateFunction::Constant(100.0), 0, SecToUs(4), rng);
  // Read the board mid-run, just after the 3 s sync tick.
  ModuleState state;
  SimTime read_at = 0;
  rt.sim().ScheduleAt(SecToUs(3) + 1, [&] {
    state = rt.board().Get(0);
    read_at = rt.sim().Now();
  });
  rt.RunTrace(arrivals);
  EXPECT_GT(state.updated_at, 0);
  EXPECT_GT(state.load_factor, 0.0);
  EXPECT_FALSE(state.wait_samples.empty());
  // Staleness: the snapshot is at most one sync period old.
  EXPECT_GE(state.updated_at, read_at - options.sync_period);
}

TEST(StateBoard, LoadFactorReflectsOverload) {
  NaivePolicy policy;
  PipelineRuntime rt(MakeTrafficMonitoring(), FixedWorkers({1, 1, 1}), &policy, 50.0);
  // Offer far beyond one worker's capacity and check mu > 1 after syncs.
  Rng rng(5);
  const auto arrivals =
      GenerateArrivals(RateFunction::Constant(1200.0), 0, SecToUs(6), rng);
  double load_factor = 0.0;
  rt.sim().ScheduleAt(SecToUs(5) + 1, [&] { load_factor = rt.board().Get(0).load_factor; });
  rt.RunTrace(arrivals);
  EXPECT_GT(load_factor, 1.0);
}

// The sync publishes each wait reservoir in ring-slot order, so the board
// compares reservoirs slot by slot: a module with traffic must read as
// changed, and an idle one as unchanged once its stats window has emptied.
TEST(StateBoard, IdleModulesSkipRefreshOnceStatsWindowEmpties) {
  PardPolicy policy;
  MetricsRegistry registry;
  RuntimeOptions options = FixedWorkers({1, 1, 1});
  options.metrics = &registry;
  const Duration traffic = SecToUs(6);
  options.drain = options.stats_window + SecToUs(6);
  PipelineRuntime rt(MakeTrafficMonitoring(), options, &policy, 100.0);
  Rng rng(7);
  const auto arrivals = GenerateArrivals(RateFunction::Constant(100.0), 0, traffic, rng);
  const Counter* refreshed = registry.GetCounter("control.refresh_modules_refreshed");
  const Counter* skipped = registry.GetCounter("control.refresh_modules_skipped");
  // Each sync's own counts: read the counters just after every sync.
  struct SyncCounts {
    SimTime at;
    std::int64_t refreshed;
    std::int64_t skipped;
  };
  std::vector<SyncCounts> syncs;
  std::int64_t last_refreshed = 0;
  std::int64_t last_skipped = 0;
  const SimTime end = arrivals.back() + options.drain;
  for (SimTime t = options.sync_period; t <= end; t += options.sync_period) {
    rt.sim().ScheduleAt(t + 1, [&, t] {
      syncs.push_back({t, refreshed->Value() - last_refreshed, skipped->Value() - last_skipped});
      last_refreshed = refreshed->Value();
      last_skipped = skipped->Value();
    });
  }
  rt.RunTrace(arrivals);
  const int modules = rt.spec().NumModules();
  int busy = 0;
  int idle = 0;
  for (const SyncCounts& s : syncs) {
    if (s.at <= traffic) {
      ++busy;
      EXPECT_GE(s.refreshed, 1) << "sync at " << s.at;
    } else if (s.at > arrivals.back() + options.stats_window + options.sync_period) {
      ++idle;
      EXPECT_EQ(s.refreshed, 0) << "sync at " << s.at;
      EXPECT_EQ(s.skipped, modules) << "sync at " << s.at;
    }
  }
  EXPECT_EQ(busy, 6);
  EXPECT_GE(idle, 4);
}

// The sync's hand-off: probed 1 us after every sync instant, each module
// holds the control plane's current snapshot, stamped at the last sync that
// ran. A stall-sync window hands nothing over, so inside it every module
// keeps the snapshot it took before the stall.
TEST(StateBoard, EverySyncHandsEachModuleTheNewSnapshot) {
  PardPolicy policy;
  RuntimeOptions options = FixedWorkers({1, 1, 1});
  // With 1 s syncs, the ones at 3, 4 and 5 s fall in the window, so the one
  // at 2 s is the last before the stall; the one at 6 s runs.
  ASSERT_EQ(options.sync_period, kUsPerSec);
  constexpr SimTime kStallFrom = 2500 * kUsPerMs;
  constexpr SimTime kStallUntil = 5500 * kUsPerMs;
  constexpr SimTime kLastSyncBeforeStall = 2 * kUsPerSec;
  options.resilience.chaos = ParseChaosSchedule("2.5:stall-sync:3");
  const Duration traffic = SecToUs(8);
  options.drain = SecToUs(2);
  PipelineRuntime rt(MakeTrafficMonitoring(), options, &policy, 100.0);
  Rng rng(7);
  const auto arrivals = GenerateArrivals(RateFunction::Constant(100.0), 0, traffic, rng);
  const int modules = rt.spec().NumModules();
  std::shared_ptr<const PolicyView> before_stall;
  int probes = 0;
  int stalled = 0;
  const SimTime end = arrivals.back() + options.drain;
  for (SimTime t = options.sync_period; t <= end; t += options.sync_period) {
    rt.sim().ScheduleAt(t + 1, [&, t] {
      ++probes;
      const bool in_stall = t >= kStallFrom && t < kStallUntil;
      const SimTime last_sync = in_stall ? kLastSyncBeforeStall : t;
      const ControlSnapshot& current = rt.control().snapshot();
      EXPECT_EQ(current.published_at, last_sync) << "sync at " << t;
      for (int m = 0; m < modules; ++m) {
        const ControlSnapshot& held = rt.module(m).control_snapshot();
        EXPECT_EQ(held.published_at, last_sync) << "module " << m << ", sync at " << t;
        EXPECT_EQ(held.view, current.view) << "module " << m << ", sync at " << t;
        if (in_stall) {
          EXPECT_EQ(held.view, before_stall) << "module " << m << ", sync at " << t;
        }
      }
      if (in_stall) {
        ++stalled;
      } else {
        before_stall = current.view;
      }
    });
  }
  rt.RunTrace(arrivals);
  EXPECT_EQ(stalled, 3);
  EXPECT_GE(probes, 9);
}

TEST(QueueOrder, FifoServesInArrivalOrderUnderBacklog) {
  NexusPolicy policy;  // FIFO pops.
  // Long SLO so nothing drops; single worker; burst of simultaneous work.
  ModuleSpec m;
  m.id = 0;
  m.model = "eye_tracking";
  const PipelineSpec spec("fifo", SecToUs(60), {m});
  PipelineRuntime rt(spec, FixedWorkers({1}, 0), &policy, 10.0);
  rt.RunTrace(GenerateUniformArrivals(2000.0, 0, SecToUs(1)));
  // Execution start times must be non-decreasing in request id.
  SimTime last = -1;
  for (const RequestPtr& r : rt.requests()) {
    if (r->hops[0].executed) {
      EXPECT_GE(r->hops[0].exec_start, last);
      last = r->hops[0].exec_start;
    }
  }
}

TEST(Metrics, InvalidRateCountsLateCompletions) {
  NaivePolicy policy;
  // SLO impossible to meet: everything completes late; all GPU time invalid.
  ModuleSpec m;
  m.id = 0;
  m.model = "eye_tracking";
  const PipelineSpec spec("late", MsToUs(2), {m});
  PipelineRuntime rt(spec, FixedWorkers({1}), &policy, 10.0);
  rt.RunTrace({0, 1000, 2000});
  RunAnalysis analysis(rt.requests(), spec);
  EXPECT_DOUBLE_EQ(analysis.DropRate(), 1.0);
  EXPECT_DOUBLE_EQ(analysis.InvalidRate(), 1.0);
  EXPECT_DOUBLE_EQ(analysis.NormalizedGoodput(), 0.0);
}

TEST(Scaling, WorkerHistoryRecorded) {
  NaivePolicy policy;
  RuntimeOptions options;
  options.enable_scaling = true;
  options.scaling_epoch = 1 * kUsPerSec;
  PipelineRuntime rt(MakeTrafficMonitoring(), options, &policy, 100.0);
  Rng rng(9);
  const auto arrivals = GenerateArrivals(RateFunction::Constant(100.0), 0, SecToUs(5), rng);
  rt.RunTrace(arrivals);
  EXPECT_GE(rt.worker_history().size(), 3u);
  for (const auto& sample : rt.worker_history()) {
    EXPECT_EQ(sample.workers.size(), 3u);
    for (int w : sample.workers) {
      EXPECT_GE(w, 1);
    }
  }
}

TEST(Runtime, UnsortedArrivalsRejected) {
  NaivePolicy policy;
  PipelineRuntime rt(MakeTrafficMonitoring(), FixedWorkers({1, 1, 1}), &policy, 10.0);
  EXPECT_THROW(rt.RunTrace({1000, 0}), CheckError);
}

// Throws from the first sync tick (1 s), while arrivals are still pending.
class ThrowOnFirstSyncPolicy : public NaivePolicy {
 public:
  void OnSync(SimTime now) override {
    NaivePolicy::OnSync(now);
    if (!thrown_) {
      thrown_ = true;
      throw std::runtime_error("sync failed");
    }
  }

 private:
  bool thrown_ = false;
};

TEST(Runtime, ThrowingRunDetachesTheArrivalStream) {
  ThrowOnFirstSyncPolicy policy;
  PipelineRuntime rt(MakeTrafficMonitoring(), FixedWorkers({1, 1, 1}), &policy, 10.0);
  {
    const std::vector<SimTime> arrivals = GenerateUniformArrivals(10.0, 0, SecToUs(3));
    EXPECT_THROW(rt.RunTrace(arrivals), std::runtime_error);
  }
  // The arrivals vector is gone. No stream is left attached, so a new one
  // attaches and running on reads nothing stale (ASan flags a stale read).
  const std::vector<SimTime> more = {rt.sim().Now() + 1};
  int fired = 0;
  rt.sim().ScheduleStream(more, [&] { ++fired; });
  rt.sim().Run();
  EXPECT_EQ(fired, 1);
}

// Each request and its hop slots sit in an arena that the requests keep
// alive, so the log stays readable once the runtime and its policy are gone,
// as perfbench and the harness read it. ASan flags a read of freed slots.
TEST(Runtime, RequestsOutliveTheRuntime) {
  const PipelineSpec spec = MakeDagLiveVideo();
  auto policy = std::make_unique<NexusPolicy>();
  auto rt =
      std::make_unique<PipelineRuntime>(spec, FixedWorkers({2, 1, 2, 2, 2}), policy.get(), 100.0);
  rt->RunTrace(GenerateUniformArrivals(300.0, 0, SecToUs(2)));
  const std::vector<RequestPtr> requests = rt->requests();
  rt.reset();
  policy.reset();

  ASSERT_GT(requests.size(), 500u);
  EXPECT_NO_THROW(CheckRunInvariants(requests, spec, 0));  // Reads every field.
  std::size_t executed = 0;
  for (const RequestPtr& req : requests) {
    ASSERT_EQ(req->hops.size(), 5u);
    for (const HopRecord& hop : req->hops) {
      executed += hop.executed ? 1 : 0;
    }
    EXPECT_LE(req->hops[3].merge_arrivals, 2);  // Module 3 merges two branches.
  }
  EXPECT_GT(executed, requests.size());
}

// The run's arena is the one owner of its requests: every RequestPtr shares
// its control block, so owner order ties between any two requests of a run,
// and only requests of another run (another arena) order apart.
TEST(Runtime, RequestsOfARunShareOneOwner) {
  NaivePolicy policy;
  const auto run = [&policy] {
    PipelineRuntime rt(MakeDagLiveVideo(), FixedWorkers({2, 1, 2, 2, 2}), &policy, 100.0);
    rt.RunTrace(GenerateUniformArrivals(100.0, 0, SecToUs(2)));
    return rt.requests();
  };
  const std::vector<RequestPtr> requests = run();
  ASSERT_GT(requests.size(), 100u);
  for (const RequestPtr& req : requests) {
    EXPECT_FALSE(req.owner_before(requests.front())) << req->id;
    EXPECT_FALSE(requests.front().owner_before(req)) << req->id;
  }
  const RequestPtr other = run().front();
  EXPECT_NE(other.owner_before(requests.front()), requests.front().owner_before(other));
}

// The hop view holds only a count and finds its slots right after the
// Request that holds it, where NewRequest places them: records of one block
// lie back to back, and a stamp written through one RequestPtr reads back
// through another.
TEST(RequestArena, HopSlotsFollowTheirRequest) {
  const auto bytes = [](const void* p) { return static_cast<const unsigned char*>(p); };
  for (const int n : {1, 5, 255}) {
    const auto arena = std::make_shared<RequestArena>();
    const RequestPtr first = NewRequest(arena, n);
    const RequestPtr second = NewRequest(arena, n);
    const auto num_hops = static_cast<std::size_t>(n);
    ASSERT_EQ(first->hops.size(), num_hops);
    EXPECT_EQ(bytes(&first->hops[0]), bytes(first.get()) + sizeof(Request)) << n;
    EXPECT_EQ(static_cast<std::size_t>(bytes(second.get()) - bytes(first.get())),
              sizeof(Request) + num_hops * sizeof(HopRecord))
        << n;
    std::size_t visited = 0;
    for (HopRecord& hop : first->hops) {
      hop.exec_end = 1000 + static_cast<SimTime>(visited++);
    }
    EXPECT_EQ(visited, num_hops);
    const RequestPtr copy = first;
    for (std::size_t k = 0; k < num_hops; ++k) {
      EXPECT_EQ(copy->hops[k].exec_end, 1000 + static_cast<SimTime>(k)) << n << " hop " << k;
    }
    // The last slot ends where the next record starts: writing it left the
    // next header and its slots alone.
    EXPECT_EQ(second->finish, -1) << n;
    EXPECT_EQ(second->hops.size(), num_hops);
    EXPECT_EQ(second->hops[0].exec_end, -1) << n;
  }
  const Request standalone;
  EXPECT_TRUE(standalone.hops.empty());
  EXPECT_EQ(standalone.hops.begin(), standalone.hops.end());
}

// ---- The end-of-run record check: each test corrupts one field of one
// record in a finished run's log and expects the rule it breaks named.

// A finished DAG run under overload: its log holds completions, drops at
// modules and executed hops on both branches.
struct FinishedRun {
  PipelineSpec spec = MakeDagLiveVideo();
  std::vector<RequestPtr> requests;

  FinishedRun() {
    PardPolicy policy;
    PipelineRuntime rt(spec, FixedWorkers({2, 1, 2, 2, 2}), &policy, 100.0);
    rt.RunTrace(GenerateUniformArrivals(300.0, 0, SecToUs(2)));
    requests = rt.requests();
  }

  // The first record that satisfies `pred`; the test fails without one.
  template <typename Pred>
  Request& First(Pred pred) {
    for (const RequestPtr& req : requests) {
      if (pred(*req)) {
        return *req;
      }
    }
    throw std::logic_error("no record fits the corruption");
  }

  // CheckRunInvariants' message on the log, "" when every rule holds.
  std::string Message() const {
    try {
      CheckRunInvariants(requests, spec, 0);
    } catch (const CheckError& e) {
      return e.what();
    }
    return "";
  }
};

TEST(RunInvariants, Rule1DropWithoutAReason) {
  FinishedRun run;
  run.First([](const Request& r) { return r.fate == RequestFate::kDropped; }).drop_reason =
      DropReason::kNone;
  EXPECT_NE(run.Message().find("rule 1 ("), std::string::npos) << run.Message();
}

TEST(RunInvariants, Rule2ExecutionBeforeBatchEntry) {
  FinishedRun run;
  Request& req = run.First([](const Request& r) { return r.Good(); });
  req.hops[2].exec_start = req.hops[2].batch_entry - 1;
  EXPECT_NE(run.Message().find("rule 2 (hop stamps are monotone): 1 of " +
                               std::to_string(run.requests.size()) + " requests, first request " +
                               std::to_string(req.id) + " at module 2"),
            std::string::npos)
      << run.Message();
}

TEST(RunInvariants, Rule3FinishBeforeSend) {
  FinishedRun run;
  Request& req = run.First([](const Request& r) { return r.Good(); });
  req.finish = req.sent - 1;
  EXPECT_NE(run.Message().find("rule 3 ("), std::string::npos) << run.Message();
}

TEST(RunInvariants, Rule4IdsOutOfOrder) {
  FinishedRun run;
  run.requests[1]->id = run.requests[0]->id;
  EXPECT_NE(run.Message().find("rule 4 ("), std::string::npos) << run.Message();
}

TEST(RunInvariants, Rule5TenantWithoutACatalog) {
  FinishedRun run;
  run.requests.back()->tenant = 0;
  EXPECT_NE(run.Message().find("rule 5 ("), std::string::npos) << run.Message();
}

// ---- Fate claims: any thread may drop or complete a request; one wins.

TEST(RequestLifecycle, RacingDropsAndCompletionsClaimEachFateOnce) {
  // Four threads race over every request of a da run: even ones drop it,
  // odd ones complete it. Every hop is stamped as executed, so either fate
  // is legal, and each request must take exactly one.
  constexpr int kRequests = 2000;
  constexpr int kThreads = 4;
  const PipelineSpec spec = MakeDagLiveVideo();
  MetricsRegistry registry;
  RuntimeOptions options;
  options.metrics = &registry;
  RequestLifecycle lifecycle(spec, options);
  for (SimTime sent = 0; sent < kRequests; ++sent) {
    const RequestPtr req = lifecycle.NewRequest();
    ASSERT_TRUE(lifecycle.Inject(req, sent));
    for (HopRecord& hop : req->hops) {
      hop.arrive = hop.batch_entry = hop.exec_start = hop.exec_end = sent;
      hop.executed = true;
    }
  }
  ASSERT_EQ(lifecycle.InFlight(), static_cast<std::size_t>(kRequests));
  std::atomic<bool> go{false};
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (const RequestPtr& req : lifecycle.requests()) {
        const bool won = t % 2 == 0
                             ? lifecycle.Drop(*req, t, req->sent, DropReason::kBrokerCandidate)
                             : lifecycle.Complete(*req, req->sent);
        wins.fetch_add(won ? 1 : 0, std::memory_order_relaxed);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(wins.load(), kRequests);
  EXPECT_EQ(registry.GetCounter("fate.completed")->Value() +
                registry.GetCounter("fate.dropped.broker_candidate")->Value(),
            kRequests);
  EXPECT_EQ(lifecycle.InFlight(), 0u);
  lifecycle.EndRun(kRequests);  // Throws CheckError on a broken record.
}

TEST(Runtime, BatchSizesPlannedPerModule) {
  NaivePolicy policy;
  PipelineRuntime rt(MakeLiveVideo(), FixedWorkers({1, 1, 1, 1, 1}), &policy, 10.0);
  ASSERT_EQ(rt.batch_sizes().size(), 5u);
  for (int b : rt.batch_sizes()) {
    EXPECT_GE(b, 1);
    EXPECT_LE(b, 32);
  }
}


TEST(ExecJitter, ZeroJitterIsDeterministicProfile) {
  NaivePolicy policy;
  RuntimeOptions options = FixedWorkers({1});
  ModuleSpec m;
  m.id = 0;
  m.model = "eye_tracking";
  const PipelineSpec spec("jit", MsToUs(500), {m});
  PipelineRuntime rt(spec, options, &policy, 10.0);
  rt.RunTrace({0});
  // d(1) of eye_tracking is exactly 7 ms.
  EXPECT_EQ(rt.requests()[0]->hops[0].ExecDuration(), 7 * kUsPerMs);
}

TEST(ExecJitter, JitterVariesExecutionAroundProfile) {
  NaivePolicy policy;
  RuntimeOptions options = FixedWorkers({1});
  options.exec_jitter = 0.2;
  ModuleSpec m;
  m.id = 0;
  m.model = "eye_tracking";
  const PipelineSpec spec("jit", MsToUs(2000), {m});
  PipelineRuntime rt(spec, options, &policy, 10.0);
  // Spaced arrivals so every request runs as its own batch of 1.
  rt.RunTrace(GenerateUniformArrivals(20.0, 0, SecToUs(10)));
  double sum = 0.0;
  double lo = 1e18;
  double hi = 0.0;
  std::size_t n = 0;
  for (const RequestPtr& r : rt.requests()) {
    const HopRecord& hop = r->hops[0];
    if (hop.executed) {
      const double d = static_cast<double>(hop.ExecDuration());
      sum += d;
      lo = std::min(lo, d);
      hi = std::max(hi, d);
      ++n;
    }
  }
  ASSERT_GT(n, 100u);
  const double mean = sum / static_cast<double>(n);
  // Mean near the 7 ms profile; spread clearly present; floor respected.
  EXPECT_NEAR(mean, 7000.0, 7000.0 * 0.08);
  EXPECT_GT(hi - lo, 2000.0);
  EXPECT_GE(lo, 3500.0);  // Floored at half the profile.
}

TEST(ExecJitter, DeterministicAcrossRuns) {
  const auto run = [] {
    NaivePolicy policy;
    RuntimeOptions options;
    options.fixed_workers = {1};
    options.exec_jitter = 0.3;
    ModuleSpec m;
    m.id = 0;
    m.model = "eye_tracking";
    const PipelineSpec spec("jit", MsToUs(2000), {m});
    PipelineRuntime rt(spec, options, &policy, 10.0);
    rt.RunTrace(GenerateUniformArrivals(20.0, 0, SecToUs(3)));
    Duration total = 0;
    for (const RequestPtr& r : rt.requests()) {
      total += r->hops[0].ExecDuration();
    }
    return total;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace pard
