#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/naive_policy.h"
#include "common/rng.h"
#include "models/registry.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/pipeline_runtime.h"
#include "trace/arrival_generator.h"

namespace pard {
namespace {

// Single-module pipeline around `model` with the given SLO.
PipelineSpec OneModule(const std::string& model, Duration slo) {
  ModuleSpec m;
  m.id = 0;
  m.model = model;
  return PipelineSpec("one", slo, {m});
}

PipelineSpec TwoModules(Duration slo) {
  ModuleSpec a;
  a.id = 0;
  a.model = "eye_tracking";
  a.subs = {1};
  ModuleSpec b;
  b.id = 1;
  b.model = "expression_recognition";
  b.pres = {0};
  return PipelineSpec("two", slo, {a, b});
}

RuntimeOptions OneWorkerOptions(int modules = 1) {
  RuntimeOptions o;
  o.fixed_workers.assign(static_cast<std::size_t>(modules), 1);
  o.network_delay = 500;
  return o;
}

// eye_tracking profile: d(b) = 5ms + 2ms * b.
constexpr Duration kEyeD1 = 7 * kUsPerMs;

TEST(Worker, IdleWorkerStartsImmediatelyWithZeroWait) {
  NaivePolicy policy;
  PipelineRuntime rt(OneModule("eye_tracking", MsToUs(500)), OneWorkerOptions(), &policy, 10.0);
  rt.RunTrace({0});
  ASSERT_EQ(rt.requests().size(), 1u);
  const HopRecord& hop = rt.requests()[0]->hops[0];
  EXPECT_EQ(hop.arrive, 500);           // Network delay.
  EXPECT_EQ(hop.batch_entry, 500);      // Pulled immediately.
  EXPECT_EQ(hop.exec_start, 500);       // Idle worker: W = 0.
  EXPECT_EQ(hop.exec_end, 500 + kEyeD1);
  EXPECT_EQ(hop.QueueDelay(), 0);
  EXPECT_EQ(hop.BatchWait(), 0);
  EXPECT_TRUE(rt.requests()[0]->Good());
}

TEST(Worker, SecondRequestWaitsForRunningBatch) {
  NaivePolicy policy;
  PipelineRuntime rt(OneModule("eye_tracking", MsToUs(500)), OneWorkerOptions(), &policy, 10.0);
  // First request launches at 500; second arrives at 1500, joins the forming
  // batch and waits until the running batch ends at 500 + 7000 = 7500.
  rt.RunTrace({0, 1000});
  ASSERT_EQ(rt.requests().size(), 2u);
  const HopRecord& hop = rt.requests()[1]->hops[0];
  EXPECT_EQ(hop.arrive, 1500);
  EXPECT_EQ(hop.batch_entry, 1500);  // Space in the forming batch -> Q = 0.
  EXPECT_EQ(hop.exec_start, 500 + kEyeD1);
  EXPECT_EQ(hop.BatchWait(), 500 + kEyeD1 - 1500);
}

TEST(Worker, BatchesShareExecutionWindowAndSplitGpuTime) {
  NaivePolicy policy;
  PipelineRuntime rt(OneModule("eye_tracking", MsToUs(500)), OneWorkerOptions(), &policy, 10.0);
  // Requests at 0..4ms: the first executes alone; the rest form one batch.
  rt.RunTrace({0, 1000, 2000, 3000, 4000});
  const auto& reqs = rt.requests();
  ASSERT_EQ(reqs.size(), 5u);
  const SimTime second_start = reqs[1]->hops[0].exec_start;
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(reqs[i]->hops[0].exec_start, second_start) << i;
  }
  // Batch of 4: d = 5 + 2*4 = 13 ms; per-request GPU share = 13/4 ms.
  const Duration batch_d = 13 * kUsPerMs;
  EXPECT_EQ(reqs[1]->hops[0].exec_end - second_start, batch_d);
  EXPECT_EQ(reqs[1]->hops[0].gpu_time, batch_d / 4);
}

TEST(Worker, BatchWaitNeverExceedsRunningBatchDuration) {
  NaivePolicy policy;
  PipelineRuntime rt(OneModule("eye_tracking", MsToUs(2000)), OneWorkerOptions(), &policy, 10.0);
  Rng rng(17);
  const auto arrivals =
      GenerateArrivals(RateFunction::Constant(400.0), 0, SecToUs(3), rng);
  rt.RunTrace(arrivals);
  const Duration max_d =
      ProfileRegistry::Get("eye_tracking").BatchDuration(rt.batch_sizes()[0]);
  for (const RequestPtr& r : rt.requests()) {
    const HopRecord& hop = r->hops[0];
    if (hop.executed) {
      EXPECT_GE(hop.BatchWait(), 0);
      EXPECT_LE(hop.BatchWait(), max_d);
      EXPECT_GE(hop.QueueDelay(), 0);
    }
  }
}

TEST(Worker, BackToBackBatchesUnderLoad) {
  NaivePolicy policy;
  PipelineRuntime rt(OneModule("eye_tracking", MsToUs(2000)), OneWorkerOptions(), &policy, 10.0);
  // Sustained overload: batches must run back-to-back (no GPU idling):
  // each next exec_start equals the previous exec_end.
  const auto arrivals = GenerateUniformArrivals(500.0, 0, SecToUs(1));
  rt.RunTrace(arrivals);
  std::vector<std::pair<SimTime, SimTime>> windows;  // (start, end)
  for (const RequestPtr& r : rt.requests()) {
    const HopRecord& hop = r->hops[0];
    if (hop.executed) {
      windows.emplace_back(hop.exec_start, hop.exec_end);
    }
  }
  std::sort(windows.begin(), windows.end());
  windows.erase(std::unique(windows.begin(), windows.end()), windows.end());
  ASSERT_GT(windows.size(), 3u);
  for (std::size_t i = 1; i + 1 < windows.size(); ++i) {
    EXPECT_EQ(windows[i].second, windows[i + 1].first) << "gap between batches " << i;
  }
}

TEST(Worker, RequestsFlowThroughTwoModules) {
  NaivePolicy policy;
  PipelineRuntime rt(TwoModules(MsToUs(500)), OneWorkerOptions(2), &policy, 10.0);
  rt.RunTrace({0});
  const RequestPtr& r = rt.requests()[0];
  EXPECT_TRUE(r->hops[0].executed);
  EXPECT_TRUE(r->hops[1].executed);
  // Module 1 receives after module 0's exec end plus network delay.
  EXPECT_EQ(r->hops[1].arrive, r->hops[0].exec_end + 500);
  EXPECT_TRUE(r->Good());
  EXPECT_EQ(r->finish, r->hops[1].exec_end);
}

TEST(Worker, NaiveNeverDropsEvenWhenLate) {
  NaivePolicy policy;
  // SLO so tight nothing can meet it: 1 ms against a 7 ms execution.
  PipelineRuntime rt(OneModule("eye_tracking", MsToUs(1)), OneWorkerOptions(), &policy, 10.0);
  rt.RunTrace({0, 1000, 2000});
  for (const RequestPtr& r : rt.requests()) {
    EXPECT_EQ(r->fate, RequestFate::kLate);
    EXPECT_TRUE(r->hops[0].executed);  // Naive executed it anyway.
  }
}

// A policy that drops everything lets us verify the drop path end to end.
class AlwaysDropPolicy : public DropPolicy {
 public:
  std::shared_ptr<const PolicyView> MakeView() override {
    struct View final : PolicyView {
      bool ShouldDrop(const AdmissionContext&) const override { return true; }
    };
    return std::make_shared<View>();
  }
  std::string Name() const override { return "always-drop"; }
};

TEST(Worker, PolicyDropConsumesNoGpuTime) {
  AlwaysDropPolicy policy;
  PipelineRuntime rt(OneModule("eye_tracking", MsToUs(500)), OneWorkerOptions(), &policy, 10.0);
  rt.RunTrace({0, 1000});
  for (const RequestPtr& r : rt.requests()) {
    EXPECT_EQ(r->fate, RequestFate::kDropped);
    EXPECT_EQ(r->drop_module, 0);
    EXPECT_EQ(r->TotalGpuTime(), 0);
    EXPECT_FALSE(r->hops[0].executed);
  }
}

TEST(Worker, ExpiredRequestsPurgedFromQueue) {
  // Policy keeps everything, but purging evicts past-deadline queue entries.
  class KeepAllPolicy : public DropPolicy {
   public:
    std::shared_ptr<const PolicyView> MakeView() override {
      struct View final : PolicyView {
        bool ShouldDrop(const AdmissionContext&) const override { return false; }
      };
      return std::make_shared<View>();
    }
    std::string Name() const override { return "keep-all"; }
  };
  KeepAllPolicy policy;
  // Overload one worker massively with a short SLO: queued requests expire.
  PipelineRuntime rt(OneModule("eye_tracking", MsToUs(30)), OneWorkerOptions(), &policy, 10.0);
  rt.RunTrace(GenerateUniformArrivals(2000.0, 0, SecToUs(1)));
  std::size_t dropped = 0;
  for (const RequestPtr& r : rt.requests()) {
    dropped += r->fate == RequestFate::kDropped ? 1 : 0;
  }
  EXPECT_GT(dropped, 0u);
}

TEST(Dispatcher, SpreadsLoadAcrossWorkers) {
  NaivePolicy policy;
  RuntimeOptions options;
  options.fixed_workers = {4};
  PipelineRuntime rt(OneModule("eye_tracking", MsToUs(2000)), options, &policy, 10.0);
  rt.RunTrace(GenerateUniformArrivals(800.0, 0, SecToUs(1)));
  // All requests served within a deep pipeline of 4 workers; with
  // least-loaded dispatch the completion rate must be ~4x one worker's.
  std::size_t executed = 0;
  for (const RequestPtr& r : rt.requests()) {
    executed += r->hops[0].executed ? 1 : 0;
  }
  EXPECT_EQ(executed, rt.requests().size());
}

TEST(Scaling, ColdStartDelaysActivation) {
  NaivePolicy policy;
  RuntimeOptions options;
  options.fixed_workers = {1};
  options.cold_start = SecToUs(2);
  PipelineRuntime rt(OneModule("eye_tracking", MsToUs(2000)), options, &policy, 10.0);
  ModuleRuntime& module = rt.module(0);
  EXPECT_EQ(module.ActiveWorkers(), 1);
  module.SetTargetWorkers(3);
  EXPECT_EQ(module.ActiveWorkers(), 1);       // Still warming.
  EXPECT_EQ(module.ProvisionedWorkers(), 3);
  rt.RunTrace({SecToUs(3)});
  EXPECT_EQ(module.ActiveWorkers(), 3);       // Warm after cold_start.
}

TEST(Scaling, DrainingReducesWorkers) {
  NaivePolicy policy;
  RuntimeOptions options;
  options.fixed_workers = {4};
  PipelineRuntime rt(OneModule("eye_tracking", MsToUs(2000)), options, &policy, 10.0);
  ModuleRuntime& module = rt.module(0);
  module.SetTargetWorkers(2);
  // Idle workers retire immediately.
  EXPECT_EQ(module.ActiveWorkers(), 2);
}

}  // namespace
}  // namespace pard
