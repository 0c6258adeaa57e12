#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/clipper_policy.h"
#include "baselines/nexus_policy.h"
#include "baselines/overload_control_policy.h"
#include "baselines/policy_factory.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/pard_policy.h"
#include "pipeline/apps.h"
#include "runtime/batch_planner.h"
#include "runtime/request_arena.h"
#include "runtime/state_board.h"

namespace pard {
namespace {

// The returned copy shares its hop slots with the arena record, and the
// arena lives as long as the test binary.
Request MakeRequest(SimTime sent, Duration slo) {
  static const auto arena = std::make_shared<RequestArena>();
  Request r = *NewRequest(arena, 8);
  r.id = 1;
  r.sent = sent;
  r.slo = slo;
  r.deadline = sent + slo;
  return r;
}

AdmissionContext MakeContext(const Request& req, int module_id, SimTime now,
                             SimTime batch_start, Duration batch_duration) {
  AdmissionContext ctx;
  ctx.request = &req;
  ctx.module_id = module_id;
  ctx.now = now;
  ctx.batch_start = batch_start;
  ctx.batch_duration = batch_duration;
  ctx.batch_size = 4;
  return ctx;
}

// Every decision is read from the policy's view, as both runtimes read it
// through the control plane.
std::shared_ptr<const PolicyView> Bound(DropPolicy& policy, const PipelineSpec& spec,
                                        const StateBoard& board) {
  policy.Bind(&spec, &board);
  return policy.MakeView();
}

StateBoard QuietBoard(const PipelineSpec& spec, Duration d = 10 * kUsPerMs) {
  StateBoard board(spec.NumModules());
  for (int i = 0; i < spec.NumModules(); ++i) {
    ModuleState s;
    s.module_id = i;
    s.batch_duration = d;
    s.batch_size = 4;
    s.load_factor = 0.5;
    board.Publish(std::move(s));
  }
  return board;
}

// ---- Nexus ---------------------------------------------------------------------

TEST(NexusPolicy, KeepsWhenCurrentModuleFits) {
  NexusPolicy policy;
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board = QuietBoard(lv);
  const auto view = Bound(policy, lv, board);
  const Request req = MakeRequest(0, MsToUs(500));
  // batch ends at 100ms + 10ms execution = 110ms << 500ms: keep, even though
  // four more modules follow (the reactive blindness the paper critiques).
  EXPECT_FALSE(view->ShouldDrop(MakeContext(req, 0, MsToUs(90), MsToUs(100), 10 * kUsPerMs)));
}

TEST(NexusPolicy, DropsWhenCurrentModuleAloneBusts) {
  NexusPolicy policy;
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board = QuietBoard(lv);
  const auto view = Bound(policy, lv, board);
  const Request req = MakeRequest(0, MsToUs(500));
  EXPECT_TRUE(view->ShouldDrop(MakeContext(req, 0, MsToUs(495), MsToUs(495), 10 * kUsPerMs)));
}

TEST(NexusPolicy, UsesArrivalOrder) {
  NexusPolicy policy;
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board = QuietBoard(lv);
  EXPECT_EQ(Bound(policy, lv, board)->ChoosePopSide(0, 0), PopSide::kOldest);
}

// ---- Clipper++ -------------------------------------------------------------------

TEST(ClipperPolicy, DropsOnlyAfterCumulativeBudgetExceeded) {
  ClipperPlusPolicy policy;
  const PipelineSpec tm = MakeTrafficMonitoring();
  StateBoard board = QuietBoard(tm);
  const auto view = Bound(policy, tm, board);
  const std::vector<Duration> budgets = CumulativeSplitBudgets(tm, PlanBatchSizes(tm));
  const Request req = MakeRequest(0, tm.slo());
  // Just inside module 0's cumulative budget: keep.
  EXPECT_FALSE(view->ShouldDrop(MakeContext(req, 0, budgets[0] - 1, budgets[0] - 1, 1000)));
  // Just past it: drop — even though the end-to-end SLO still has room.
  EXPECT_TRUE(view->ShouldDrop(MakeContext(req, 0, budgets[0] + 1, budgets[0] + 1, 1000)));
  // The same elapsed time at a later module is fine (bigger cumulative budget).
  EXPECT_FALSE(view->ShouldDrop(MakeContext(req, 2, budgets[0] + 1, budgets[0] + 1, 1000)));
  // FIFO, like Clipper.
  EXPECT_EQ(view->ChoosePopSide(0, 0), PopSide::kOldest);
}

// ---- Overload control (PARD-oc) -----------------------------------------------------

TEST(OverloadControlPolicy, ShedsWhenQueueDelayAboveThreshold) {
  OverloadControlOptions options;
  options.queue_threshold = 20 * kUsPerMs;
  options.alpha = 1.0;  // Shed everything while overloaded, deterministically.
  OverloadControlPolicy policy(options);
  const PipelineSpec tm = MakeTrafficMonitoring();
  StateBoard board = QuietBoard(tm);
  const auto quiet = Bound(policy, tm, board);
  ASSERT_TRUE(quiet->NeedsAdmissionRng());
  Rng rng(1);  // The control plane hands over one of its admission shards.
  const Request req = MakeRequest(0, tm.slo());
  EXPECT_TRUE(quiet->AdmitAtModule(req, 1, 0, &rng));  // Not overloaded.
  ModuleState overloaded;
  overloaded.module_id = 1;
  overloaded.avg_queue_delay = 25.0 * kUsPerMs;
  board.Publish(std::move(overloaded));
  const auto view = policy.MakeView();  // The next sync's view.
  EXPECT_FALSE(view->AdmitAtModule(req, 1, 0, &rng));  // Module itself sheds.
  EXPECT_FALSE(view->AdmitAtModule(req, 0, 0, &rng));  // Ingress sheds for it.
  EXPECT_TRUE(view->AdmitAtModule(req, 2, 0, &rng));   // Other modules unaffected.
}

TEST(OverloadControlPolicy, NeverDropsAtBroker) {
  OverloadControlPolicy policy;
  const PipelineSpec tm = MakeTrafficMonitoring();
  StateBoard board = QuietBoard(tm);
  const auto view = Bound(policy, tm, board);
  const Request req = MakeRequest(0, tm.slo());
  EXPECT_FALSE(view->ShouldDrop(MakeContext(req, 0, 0, 0, 1000)));
}

// ---- PARD ------------------------------------------------------------------------

TEST(PardPolicy, ProactivelyDropsForDownstreamBudget) {
  PardOptions options;
  options.estimator.mc_samples = 4000;
  PardPolicy policy(options);
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board = QuietBoard(lv, 10 * kUsPerMs);
  const auto view = Bound(policy, lv, board);
  const Request req = MakeRequest(0, MsToUs(500));
  // At module 0 with 440ms already burned: 4 downstream modules need ~40ms+
  // of exec alone, so PARD drops where Nexus (current-module-only) keeps.
  const AdmissionContext ctx =
      MakeContext(req, 0, MsToUs(440), MsToUs(440), 10 * kUsPerMs);
  EXPECT_TRUE(view->ShouldDrop(ctx));
  NexusPolicy nexus;
  EXPECT_FALSE(Bound(nexus, lv, board)->ShouldDrop(ctx));
}

TEST(PardPolicy, KeepsWhenBudgetSuffices) {
  PardPolicy policy;
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board = QuietBoard(lv, 10 * kUsPerMs);
  const auto view = Bound(policy, lv, board);
  const Request req = MakeRequest(0, MsToUs(500));
  EXPECT_FALSE(view->ShouldDrop(MakeContext(req, 0, MsToUs(10), MsToUs(10), 10 * kUsPerMs)));
}

TEST(PardPolicy, BackwardOnlyMatchesNexusPredicate) {
  PardOptions options;
  options.backward_only = true;
  PardPolicy policy(options);
  NexusPolicy nexus;
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board = QuietBoard(lv);
  const auto view = Bound(policy, lv, board);
  const auto nexus_view = Bound(nexus, lv, board);
  const Request req = MakeRequest(0, MsToUs(500));
  for (SimTime t : {MsToUs(100), MsToUs(300), MsToUs(480), MsToUs(495)}) {
    const AdmissionContext ctx = MakeContext(req, 0, t, t, 10 * kUsPerMs);
    EXPECT_EQ(view->ShouldDrop(ctx), nexus_view->ShouldDrop(ctx)) << t;
  }
}

TEST(PardPolicy, AdaptiveOrderFollowsLoadFactor) {
  PardPolicy policy;
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board = QuietBoard(lv);
  // Initial mode: LBF.
  EXPECT_EQ(Bound(policy, lv, board)->ChoosePopSide(0, 0), PopSide::kMinBudget);
  // Publish overload on module 0 and sync.
  ModuleState hot;
  hot.module_id = 0;
  hot.load_factor = 1.8;
  hot.burstiness = 0.1;
  board.Publish(std::move(hot));
  policy.OnSync(SecToUs(1));
  const auto view = policy.MakeView();
  EXPECT_EQ(view->ChoosePopSide(0, SecToUs(1)), PopSide::kMaxBudget);
  // Other modules unchanged.
  EXPECT_EQ(view->ChoosePopSide(1, SecToUs(1)), PopSide::kMinBudget);
}

TEST(PardPolicy, FixedOrderVariants) {
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board = QuietBoard(lv);
  PardOptions fcfs;
  fcfs.order = PardOptions::Order::kFcfs;
  PardPolicy p_fcfs(fcfs);
  EXPECT_EQ(Bound(p_fcfs, lv, board)->ChoosePopSide(0, 0), PopSide::kOldest);
  PardOptions hbf;
  hbf.order = PardOptions::Order::kHbf;
  PardPolicy p_hbf(hbf);
  EXPECT_EQ(Bound(p_hbf, lv, board)->ChoosePopSide(0, 0), PopSide::kMaxBudget);
  PardOptions lbf;
  lbf.order = PardOptions::Order::kLbf;
  PardPolicy p_lbf(lbf);
  EXPECT_EQ(Bound(p_lbf, lv, board)->ChoosePopSide(0, 0), PopSide::kMinBudget);
}

TEST(PardPolicy, StaticSplitUsesCumulativeBudgets) {
  PardOptions options;
  options.budget_scope = PardOptions::BudgetScope::kStaticSplit;
  PardPolicy policy(options);
  const PipelineSpec tm = MakeTrafficMonitoring();
  StateBoard board = QuietBoard(tm);
  const auto view = Bound(policy, tm, board);
  const std::vector<Duration> budgets = CumulativeSplitBudgets(tm, PlanBatchSizes(tm));
  const Request req = MakeRequest(0, tm.slo());
  const Duration d = 10 * kUsPerMs;
  // Finishing inside module 0's cumulative budget: keep.
  EXPECT_FALSE(view->ShouldDrop(MakeContext(req, 0, 0, budgets[0] - d - 1, d)));
  // Finishing beyond it: drop (proactive within the module, unlike Clipper).
  EXPECT_TRUE(view->ShouldDrop(MakeContext(req, 0, 0, budgets[0] - d + 1, d)));
}

TEST(PardPolicy, WclSplitReactsToRuntimeWorstCase) {
  PardOptions options;
  options.budget_scope = PardOptions::BudgetScope::kWclSplit;
  PardPolicy policy(options);
  const PipelineSpec tm = MakeTrafficMonitoring();
  StateBoard board = QuietBoard(tm);
  policy.Bind(&tm, &board);
  const Request req = MakeRequest(0, tm.slo());
  const Duration d = 10 * kUsPerMs;
  const AdmissionContext at_m0 = MakeContext(req, 0, 0, MsToUs(250), d);

  // Sink module dominates the runtime worst case: nearly the whole SLO is
  // reallocated to it, module 0's cumulative budget collapses, and the
  // 250 ms decision is dropped.
  ModuleState sink_heavy;
  sink_heavy.module_id = 2;
  sink_heavy.batch_duration = d;
  sink_heavy.worst_stage_latency = 300.0 * kUsPerMs;
  board.Publish(std::move(sink_heavy));
  policy.OnSync(SecToUs(1));
  EXPECT_TRUE(policy.MakeView()->ShouldDrop(at_m0));

  // Flip the bottleneck to module 0: its budget expands and the same
  // decision is now kept — budgets follow the runtime WCL.
  ModuleState sink_calm;
  sink_calm.module_id = 2;
  sink_calm.batch_duration = d;
  board.Publish(std::move(sink_calm));
  ModuleState front_heavy;
  front_heavy.module_id = 0;
  front_heavy.batch_duration = d;
  front_heavy.worst_stage_latency = 300.0 * kUsPerMs;
  board.Publish(std::move(front_heavy));
  policy.OnSync(SecToUs(2));
  EXPECT_FALSE(policy.MakeView()->ShouldDrop(at_m0));
}

// ---- Factory ----------------------------------------------------------------------

TEST(PolicyFactory, BuildsEveryName) {
  for (const std::string& name : AllPolicyNames()) {
    const auto policy = MakePolicy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->Name(), name);
  }
}

TEST(PolicyFactory, UnknownNameThrows) { EXPECT_THROW(MakePolicy("bogus"), CheckError); }

TEST(PolicyFactory, AblationListCoversTable1) {
  const auto names = AblationPolicyNames();
  EXPECT_EQ(names.size(), 12u);
  for (const std::string& name : names) {
    EXPECT_NO_THROW(MakePolicy(name)) << name;
  }
}

TEST(PolicyFactory, LambdaParameterReachesEstimator) {
  PolicyParams params;
  params.lambda = 0.42;
  const auto policy = MakePolicy("pard", params);
  auto* pard = dynamic_cast<PardPolicy*>(policy.get());
  ASSERT_NE(pard, nullptr);
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board = QuietBoard(lv);
  pard->Bind(&lv, &board);
  EXPECT_DOUBLE_EQ(pard->estimator()->options().lambda, 0.42);
}

TEST(PolicyFactory, McSamplesParameterReachesEstimator) {
  PolicyParams params;
  params.mc_samples = 64;
  const auto policy = MakePolicy("pard-upper", params);
  auto* pard = dynamic_cast<PardPolicy*>(policy.get());
  ASSERT_NE(pard, nullptr);
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board = QuietBoard(lv);
  pard->Bind(&lv, &board);
  EXPECT_EQ(pard->estimator()->options().mc_samples, 64);
}

}  // namespace
}  // namespace pard
