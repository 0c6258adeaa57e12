// Dynamic-path DAG routing (§5.2) and request-path prediction (future work).
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "baselines/naive_policy.h"
#include "core/latency_estimator.h"
#include "core/pard_policy.h"
#include "harness/experiment.h"
#include "pipeline/apps.h"
#include "runtime/pipeline_runtime.h"
#include "trace/arrival_generator.h"

namespace pard {
namespace {

ExperimentConfig DynConfig(const std::string& policy) {
  ExperimentConfig c;
  c.app = "da";
  c.trace = "tweet";
  c.policy = policy;
  c.duration_s = 120.0;
  c.base_rate = 240.0;
  c.seed = 13;
  c.runtime.dynamic_paths = true;
  return c;
}

TEST(DynamicPath, RequestsTakeExactlyOneBranch) {
  NaivePolicy policy;
  RuntimeOptions options;
  options.fixed_workers = {2, 2, 2, 2, 2};
  options.dynamic_paths = true;
  PipelineRuntime rt(MakeDagLiveVideo(), options, &policy, 50.0);
  rt.RunTrace(GenerateUniformArrivals(50.0, 0, SecToUs(5)));
  int pose_only = 0;
  int face_only = 0;
  for (const RequestPtr& r : rt.requests()) {
    ASSERT_TRUE(r->dynamic_path);
    const bool pose = r->hops[1].executed;
    const bool face = r->hops[2].executed;
    EXPECT_NE(pose, face) << "exactly one branch must execute";
    pose_only += pose && !face ? 1 : 0;
    face_only += face && !pose ? 1 : 0;
    // The merge and sink still execute for every completed request.
    if (r->Good()) {
      EXPECT_TRUE(r->hops[3].executed);
      EXPECT_TRUE(r->hops[4].executed);
    }
  }
  // Both branches are exercised across the population (p = 0.5 each).
  EXPECT_GT(pose_only, 0);
  EXPECT_GT(face_only, 0);
}

TEST(DynamicPath, MergeWaitsForSingleExpectedArrival) {
  NaivePolicy policy;
  RuntimeOptions options;
  options.fixed_workers = {1, 1, 1, 1, 1};
  options.dynamic_paths = true;
  PipelineRuntime rt(MakeDagLiveVideo(), options, &policy, 10.0);
  rt.RunTrace({0});
  const RequestPtr& r = rt.requests()[0];
  EXPECT_TRUE(r->Good());
  const int chosen = r->hops[0].branch_choice;
  EXPECT_TRUE(chosen == 1 || chosen == 2);
  EXPECT_EQ(r->hops[3].expected_arrivals, 1);  // Merge expects one delivery.
  EXPECT_EQ(r->hops[3].merge_arrivals, 1);
}

TEST(DynamicPath, StaticPipelinesUnaffected) {
  NaivePolicy policy;
  RuntimeOptions options;
  options.fixed_workers = {1, 1, 1, 1, 1};
  PipelineRuntime rt(MakeDagLiveVideo(), options, &policy, 10.0);
  rt.RunTrace({0});
  const RequestPtr& r = rt.requests()[0];
  EXPECT_FALSE(r->dynamic_path);
  EXPECT_TRUE(r->hops[1].executed);
  EXPECT_TRUE(r->hops[2].executed);
}

TEST(DynamicPath, EstimatorFiltersInconsistentPaths) {
  const PipelineSpec da = MakeDagLiveVideo();
  StateBoard board(5);
  for (int i = 0; i < 5; ++i) {
    ModuleState s;
    s.module_id = i;
    s.batch_duration = (i == 1) ? 50 * kUsPerMs : 5 * kUsPerMs;  // Pose slow.
    board.Publish(std::move(s));
  }
  EstimatorOptions options;
  options.include_wait = false;
  options.include_queue = false;
  LatencyEstimator est(&da, &board, options, Rng(2));

  HopRecord face_hops[5];
  face_hops[0].branch_choice = 2;  // Face branch chosen at the fork.
  Request via_face;
  via_face.dynamic_path = true;
  via_face.hops = HopSlots(face_hops, 5);
  // Static estimate from module 0 takes the slow pose path: 50+5+5 = 60 ms.
  EXPECT_EQ(est.EstimateSubsequent(0), 60 * kUsPerMs);
  // Path-aware estimate follows the chosen face branch: 5+5+5 = 15 ms.
  EXPECT_EQ(est.EstimateSubsequentForRequest(0, via_face), 15 * kUsPerMs);

  HopRecord pose_hops[5];
  pose_hops[0].branch_choice = 1;
  Request via_pose;
  via_pose.dynamic_path = true;
  via_pose.hops = HopSlots(pose_hops, 5);
  EXPECT_EQ(est.EstimateSubsequentForRequest(0, via_pose), 60 * kUsPerMs);

  // Static requests fall back to the conservative maximum.
  Request static_req;
  EXPECT_EQ(est.EstimateSubsequentForRequest(0, static_req), 60 * kUsPerMs);
}

TEST(DynamicPath, ConservationHoldsUnderLoad) {
  const auto r = RunExperiment(DynConfig("pard"));
  std::size_t terminal = 0;
  for (const RequestPtr& req : r.analysis->requests()) {
    terminal += req->Terminal() ? 1 : 0;
  }
  EXPECT_EQ(terminal, r.analysis->Total());
  EXPECT_GT(r.analysis->Total(), 1000u);
}

TEST(DynamicPath, PredictionDoesNotHurtDropRate) {
  // §5.2: dynamic paths degrade PARD's estimation; path prediction recovers
  // it. At minimum prediction must not do worse.
  const double plain = RunExperiment(DynConfig("pard")).analysis->DropRate();
  const double predicted = RunExperiment(DynConfig("pard-path")).analysis->DropRate();
  EXPECT_LE(predicted, plain + 0.01);
}

TEST(DynamicPath, PardPathFactoryName) {
  const auto policy = MakePolicy("pard-path");
  EXPECT_EQ(policy->Name(), "pard-path");
}

}  // namespace
}  // namespace pard
