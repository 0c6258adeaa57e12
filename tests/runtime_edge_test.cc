// Edge-case coverage for the serving runtime: DAG drop interactions, invalid
// accounting across branches, state-board staleness, network delay, and
// queue-order consequences.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/naive_policy.h"
#include "baselines/nexus_policy.h"
#include "common/rng.h"
#include "metrics/analysis.h"
#include "pipeline/apps.h"
#include "runtime/pipeline_runtime.h"
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
  EXPECT_GT(state.input_rate, 30.0);
  EXPECT_GT(state.per_worker_throughput, 0.0);
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
  auto policy = std::make_unique<NexusPolicy>();
  auto rt = std::make_unique<PipelineRuntime>(MakeDagLiveVideo(), FixedWorkers({2, 1, 2, 2, 2}),
                                              policy.get(), 100.0);
  rt->RunTrace(GenerateUniformArrivals(300.0, 0, SecToUs(2)));
  const std::vector<RequestPtr> requests = rt->requests();
  rt.reset();
  policy.reset();

  ASSERT_GT(requests.size(), 500u);
  std::size_t executed = 0;
  for (const RequestPtr& req : requests) {
    ASSERT_TRUE(req->Terminal());
    ASSERT_EQ(req->hops.size(), 5u);
    for (const HopRecord& hop : req->hops) {
      const bool monotone =
          (hop.batch_entry < 0 || hop.arrive <= hop.batch_entry) &&
          (hop.exec_start < 0 || (0 <= hop.batch_entry && hop.batch_entry <= hop.exec_start)) &&
          (hop.exec_end < 0 || (0 <= hop.exec_start && hop.exec_start <= hop.exec_end));
      ASSERT_TRUE(monotone) << "request " << req->id;
      executed += hop.executed ? 1 : 0;
    }
    EXPECT_LE(req->hops[3].merge_arrivals, 2);  // Module 3 merges two branches.
  }
  EXPECT_GT(executed, requests.size());
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
