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
#include "runtime/request_arena.h"
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
  // The fork records the index of the branch it takes into its subs.
  const int choice = r->hops[0].branch_choice;
  ASSERT_TRUE(choice == 0 || choice == 1);
  const int chosen = rt.spec().Module(0).subs[static_cast<std::size_t>(choice)];
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

// pard-path's L_sub for `req` at module 0, read off its view's drop
// boundary: with no elapsed time and a zero-length current batch, the view
// drops iff L_sub > SLO. Checks L_sub == `expected` exactly: kept at an SLO of
// `expected`, dropped 1 us below it.
void ExpectPathEstimate(const PolicyView& view, Request& req, Duration expected) {
  AdmissionContext ctx;
  ctx.request = &req;
  ctx.module_id = 0;
  req.sent = 0;
  for (const Duration slo : {expected, expected - 1}) {
    req.slo = slo;
    EXPECT_EQ(view.ShouldDrop(ctx), slo < expected) << "slo " << slo;
  }
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
  PardOptions options;
  options.path_prediction = true;  // pard-path.
  options.estimator.include_wait = false;
  options.estimator.include_queue = false;
  PardPolicy policy(options);
  policy.Bind(&da, &board);
  const std::shared_ptr<const PolicyView> view = policy.MakeView();

  const auto arena = std::make_shared<RequestArena>();
  const RequestPtr via_face = NewRequest(arena, 5);
  via_face->hops[0].branch_choice = 1;  // Face branch (da's subs[1]) chosen at the fork.
  via_face->dynamic_path = true;
  // Static estimate from module 0 takes the slow pose path: 50+5+5 = 60 ms.
  EXPECT_EQ(policy.estimator()->EstimateSubsequent(0), 60 * kUsPerMs);
  // Path-aware estimate follows the chosen face branch: 5+5+5 = 15 ms.
  ExpectPathEstimate(*view, *via_face, 15 * kUsPerMs);

  const RequestPtr via_pose = NewRequest(arena, 5);
  via_pose->hops[0].branch_choice = 0;  // Pose, subs[0].
  via_pose->dynamic_path = true;
  ExpectPathEstimate(*view, *via_pose, 60 * kUsPerMs);

  // Static requests fall back to the conservative maximum.
  ExpectPathEstimate(*view, *NewRequest(arena, 5), 60 * kUsPerMs);
}

TEST(DynamicPath, PredictionDoesNotHurtDropRate) {
  // §5.2: dynamic paths degrade PARD's estimation; path prediction recovers
  // it. At minimum prediction must not do worse.
  const ExperimentResult plain = RunExperiment(DynConfig("pard"));
  ASSERT_GT(plain.analysis->Total(), 1000u);
  const double predicted = RunExperiment(DynConfig("pard-path")).analysis->DropRate();
  EXPECT_LE(predicted, plain.analysis->DropRate() + 0.01);
}

TEST(DynamicPath, PardPathFactoryName) {
  const auto policy = MakePolicy("pard-path");
  EXPECT_EQ(policy->Name(), "pard-path");
}

}  // namespace
}  // namespace pard
