#include <gtest/gtest.h>

#include "rag/rag_workflow.h"

namespace pard {
namespace {

RagOptions QuickOptions() {
  RagOptions o;
  o.duration_s = 40.0;
  o.seed = 5;
  return o;
}

TEST(RagWorkflow, ConservationAndDeterminism) {
  const RagResult a = RunRagWorkflow(RagPolicy::kProactive, QuickOptions());
  EXPECT_EQ(a.good + a.dropped, a.total);
  EXPECT_GT(a.total, 500u);
  const RagResult b = RunRagWorkflow(RagPolicy::kProactive, QuickOptions());
  EXPECT_EQ(a.good, b.good);
  EXPECT_EQ(a.dropped, b.dropped);
}

// One seed's outcome, pinned exactly: the arrival path (how sends enter the
// event kernel) must not change which requests meet their TTFT, nor how
// many executions each stage records.
TEST(RagWorkflow, GoldenSeedFive) {
  const RagResult r = RunRagWorkflow(RagPolicy::kProactive, QuickOptions());
  EXPECT_EQ(r.total, 2887u);
  EXPECT_EQ(r.good, 2399u);
  EXPECT_EQ(r.dropped, 488u);
  ASSERT_EQ(r.stages.size(), 4u);
  EXPECT_EQ(r.stages[0].latency.Size(), 2619u);
  EXPECT_EQ(r.stages[1].latency.Size(), 2511u);
  EXPECT_EQ(r.stages[2].latency.Size(), 2511u);
  EXPECT_EQ(r.stages[3].latency.Size(), 2399u);
}

TEST(RagWorkflow, SameWorkloadAcrossPolicies) {
  const RagResult reactive = RunRagWorkflow(RagPolicy::kReactive, QuickOptions());
  const RagResult proactive = RunRagWorkflow(RagPolicy::kProactive, QuickOptions());
  EXPECT_EQ(reactive.total, proactive.total);
}

// The paper's Fig. 15a ordering: proactive dropping beats reactive, and the
// output-length oracle (predict) does at least as well as proactive.
TEST(RagWorkflow, ProactiveBeatsReactive) {
  const RagResult reactive = RunRagWorkflow(RagPolicy::kReactive, QuickOptions());
  const RagResult proactive = RunRagWorkflow(RagPolicy::kProactive, QuickOptions());
  const RagResult predict = RunRagWorkflow(RagPolicy::kPredict, QuickOptions());
  EXPECT_GT(proactive.NormalizedGoodput(), reactive.NormalizedGoodput());
  EXPECT_LT(proactive.DropRate(), reactive.DropRate());
  EXPECT_GE(predict.NormalizedGoodput(), proactive.NormalizedGoodput() - 0.02);
}

TEST(RagWorkflow, StageLatencyShapes) {
  const RagResult r = RunRagWorkflow(RagPolicy::kProactive, QuickOptions());
  ASSERT_EQ(r.stages.size(), 4u);
  const auto& rewrite = r.stages[0].latency;
  const auto& retrieve = r.stages[1].latency;
  const auto& search = r.stages[2].latency;
  ASSERT_FALSE(rewrite.Empty());
  ASSERT_FALSE(retrieve.Empty());
  ASSERT_FALSE(search.Empty());
  // search has the long tail (Fig. 15b): p99/p50 far above retrieve's ratio.
  const double search_tail = search.Quantile(0.99) / search.Quantile(0.50);
  const double retrieve_tail = retrieve.Quantile(0.99) / std::max(1.0, retrieve.Quantile(0.50));
  EXPECT_GT(search_tail, 3.0);
  EXPECT_LT(retrieve_tail, 3.0);
  // rewrite latency varies with output length: nontrivial spread.
  EXPECT_GT(rewrite.Quantile(0.9), 1.5 * rewrite.Quantile(0.1));
}

TEST(RagWorkflow, HigherLoadIncreasesDrops) {
  RagOptions low = QuickOptions();
  low.arrival_rate = 20.0;
  RagOptions high = QuickOptions();
  high.arrival_rate = 80.0;
  const RagResult a = RunRagWorkflow(RagPolicy::kProactive, low);
  const RagResult b = RunRagWorkflow(RagPolicy::kProactive, high);
  EXPECT_LE(a.DropRate(), b.DropRate() + 0.02);
}

TEST(RagWorkflow, PolicyNames) {
  EXPECT_EQ(RagPolicyName(RagPolicy::kReactive), "reactive");
  EXPECT_EQ(RagPolicyName(RagPolicy::kProactive), "proactive");
  EXPECT_EQ(RagPolicyName(RagPolicy::kPredict), "predict");
}

}  // namespace
}  // namespace pard
