// End-to-end experiments asserting the paper's qualitative results hold in
// this reproduction: PARD beats the reactive baselines on goodput, drop rate
// and invalid rate; reactive policies drop late in the pipeline while PARD
// drops early; conservation and determinism invariants hold.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>

#include "harness/experiment.h"

namespace pard {
namespace {

ExperimentConfig QuickConfig(const std::string& app, const std::string& trace,
                             const std::string& policy) {
  ExperimentConfig c;
  c.app = app;
  c.trace = trace;
  c.policy = policy;
  // A rate whose burst peaks exceed the mean-provisioned capacity: the
  // regime where dropping policy decides goodput (paper's red-box regions).
  c.duration_s = 150.0;
  c.base_rate = 240.0;
  c.seed = 7;
  return c;
}

TEST(Integration, DeterministicAcrossRuns) {
  const ExperimentResult a = RunExperiment(QuickConfig("lv", "tweet", "pard"));
  const ExperimentResult b = RunExperiment(QuickConfig("lv", "tweet", "pard"));
  EXPECT_EQ(a.analysis->Total(), b.analysis->Total());
  EXPECT_DOUBLE_EQ(a.analysis->DropRate(), b.analysis->DropRate());
  EXPECT_DOUBLE_EQ(a.analysis->InvalidRate(), b.analysis->InvalidRate());
}

TEST(Integration, SameArrivalsAcrossPolicies) {
  const ExperimentResult a = RunExperiment(QuickConfig("lv", "tweet", "pard"));
  const ExperimentResult b = RunExperiment(QuickConfig("lv", "tweet", "naive"));
  ASSERT_EQ(a.analysis->Total(), b.analysis->Total());
  for (std::size_t i = 0; i < a.analysis->requests().size(); i += 97) {
    EXPECT_EQ(a.analysis->requests()[i]->sent, b.analysis->requests()[i]->sent);
  }
}

// The paper's headline comparison (Fig. 8/10): PARD sustains higher goodput
// with lower drop and invalid rates than every baseline.
TEST(Integration, PardBeatsBaselinesOnBurstyWorkload) {
  std::map<std::string, double> goodput;
  std::map<std::string, double> drop;
  std::map<std::string, double> invalid;
  for (const char* policy : {"pard", "nexus", "clipper++", "naive"}) {
    const ExperimentResult r = RunExperiment(QuickConfig("lv", "tweet", policy));
    goodput[policy] = r.analysis->NormalizedGoodput();
    drop[policy] = r.analysis->DropRate();
    invalid[policy] = r.analysis->InvalidRate();
  }
  EXPECT_GT(goodput["pard"], goodput["nexus"]);
  EXPECT_GT(goodput["pard"], goodput["clipper++"]);
  EXPECT_GT(goodput["pard"], goodput["naive"]);
  EXPECT_LT(drop["pard"], drop["nexus"]);
  EXPECT_LT(drop["pard"], drop["clipper++"]);
  EXPECT_LT(invalid["pard"], invalid["nexus"]);
  // Naive wastes the most computation of all (paper: up to 129x PARD).
  EXPECT_GT(invalid["naive"], invalid["pard"]);
}

// Fig. 2c / Fig. 11b: reactive policies concentrate drops in the latter half
// of the pipeline; PARD concentrates them in the first half.
TEST(Integration, DropPlacementEarlyForPardLateForReactive) {
  const auto share_late_half = [](const ExperimentResult& r) {
    const std::vector<double> share = r.analysis->PerModuleDropShare();
    double late = 0.0;
    for (std::size_t m = share.size() / 2; m < share.size(); ++m) {
      late += share[m];
    }
    return late;
  };
  const ExperimentResult pard_run = RunExperiment(QuickConfig("lv", "tweet", "pard"));
  const ExperimentResult nexus_run = RunExperiment(QuickConfig("lv", "tweet", "nexus"));
  EXPECT_LT(share_late_half(pard_run), 0.5);
  EXPECT_GT(share_late_half(nexus_run), share_late_half(pard_run));
}

TEST(Integration, PardBackDropsLaterThanPard) {
  const ExperimentResult pard_run = RunExperiment(QuickConfig("lv", "tweet", "pard"));
  const ExperimentResult back_run = RunExperiment(QuickConfig("lv", "tweet", "pard-back"));
  const auto last_module_share = [](const ExperimentResult& r) {
    return r.analysis->PerModuleDropShare().back();
  };
  // Without downstream awareness most drops land in the last module
  // (paper: 95% for PARD-back).
  EXPECT_GT(last_module_share(back_run), last_module_share(pard_run));
  EXPECT_GT(back_run.analysis->InvalidRate(), pard_run.analysis->InvalidRate());
}

TEST(Integration, SweetSpotBeatsLowerAndUpperOnGoodput) {
  const double pard = RunExperiment(QuickConfig("lv", "tweet", "pard"))
                          .analysis->NormalizedGoodput();
  const double lower = RunExperiment(QuickConfig("lv", "tweet", "pard-lower"))
                           .analysis->NormalizedGoodput();
  const double upper = RunExperiment(QuickConfig("lv", "tweet", "pard-upper"))
                           .analysis->NormalizedGoodput();
  EXPECT_GE(pard, lower - 0.02);
  EXPECT_GE(pard, upper - 0.02);
  // PARD-lower mis-keeps: its invalid rate exceeds PARD's (paper: 3.5x).
  const double pard_invalid =
      RunExperiment(QuickConfig("lv", "tweet", "pard")).analysis->InvalidRate();
  const double lower_invalid =
      RunExperiment(QuickConfig("lv", "tweet", "pard-lower")).analysis->InvalidRate();
  EXPECT_GE(lower_invalid, pard_invalid);
}

TEST(Integration, DagPipelineServesAndDropsCorrectly) {
  const ExperimentResult r = RunExperiment(QuickConfig("da", "wiki", "pard"));
  const RunAnalysis& a = *r.analysis;
  EXPECT_GT(a.Total(), 1000u);
  EXPECT_GT(a.NormalizedGoodput(), 0.5);
  // Completed requests executed BOTH branches and the merge module.
  std::size_t checked = 0;
  for (const RequestPtr& req : a.requests()) {
    if (req->Good()) {
      EXPECT_TRUE(req->hops[1].executed);  // pose branch
      EXPECT_TRUE(req->hops[2].executed);  // face branch
      EXPECT_TRUE(req->hops[3].executed);  // merge
      // The merge waited for the later branch.
      EXPECT_GE(req->hops[3].arrive, req->hops[1].exec_end);
      EXPECT_GE(req->hops[3].arrive, req->hops[2].exec_end);
      if (++checked > 200) {
        break;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(Integration, SloSensitivityMonotone) {
  // Looser SLOs must not increase the drop rate (Fig. 14b trend).
  ExperimentConfig c = QuickConfig("lv", "tweet", "pard");
  c.slo_override = MsToUs(250);
  const double tight = RunExperiment(c).analysis->DropRate();
  c.slo_override = MsToUs(600);
  const double loose = RunExperiment(c).analysis->DropRate();
  EXPECT_LE(loose, tight + 0.02);
}

TEST(Integration, StressGoodputSaturatesNearCapacity) {
  // Fixed provisioning, rising offered load (Fig. 14a): goodput grows, then
  // saturates instead of collapsing for PARD.
  ExperimentConfig c = QuickConfig("tm", "wiki", "pard");
  c.runtime.fixed_workers = {8, 5, 5};
  double last_goodput = 0.0;
  double peak = 0.0;
  for (double rate : {60.0, 120.0, 240.0, 480.0}) {
    c.base_rate = rate;
    const ExperimentResult r = RunExperiment(c);
    last_goodput = r.analysis->MeanGoodput();
    peak = std::max(peak, last_goodput);
  }
  // At 4x overload PARD still delivers a large fraction of its peak.
  EXPECT_GT(last_goodput, 0.5 * peak);
}

TEST(Integration, AdaptivePriorityActuallyTransitions) {
  const ExperimentResult r = RunExperiment(QuickConfig("lv", "azure", "pard"));
  // The bursty azure trace pushes modules above and below saturation, so the
  // adaptive controller must have logged transitions for module 0.
  bool saw_hbf = false;
  bool saw_lbf = false;
  for (const auto& t : r.transitions) {
    if (t.module_id == 0) {
      saw_hbf |= t.mode == PriorityMode::kHbf;
      saw_lbf |= t.mode == PriorityMode::kLbf;
    }
  }
  EXPECT_TRUE(saw_lbf);
  EXPECT_TRUE(saw_hbf);
}

TEST(Integration, ScalingEngineAddsWorkersUnderLoad) {
  ExperimentConfig c = QuickConfig("tm", "tweet", "pard");
  c.base_rate = 550.0;  // High enough that worker targets actually move.
  c.runtime.enable_scaling = true;
  c.runtime.provision_headroom = 0.7;  // Start under-provisioned; scaling must react.
  const ExperimentResult r = RunExperiment(c);
  ASSERT_FALSE(r.worker_history.empty());
  int max_workers = 0;
  int min_workers = 1 << 20;
  for (const auto& sample : r.worker_history) {
    const int total = std::accumulate(sample.workers.begin(), sample.workers.end(), 0);
    max_workers = std::max(max_workers, total);
    min_workers = std::min(min_workers, total);
  }
  EXPECT_GT(max_workers, min_workers);
}

TEST(Integration, OverloadControlShedsButCoarsely) {
  const ExperimentResult oc = RunExperiment(QuickConfig("lv", "tweet", "pard-oc"));
  const ExperimentResult pard = RunExperiment(QuickConfig("lv", "tweet", "pard"));
  // OC sheds (drops exist) but is coarser than PARD (paper: 2.1x drop rate).
  EXPECT_GT(oc.analysis->DropRate(), 0.0);
  EXPECT_GE(oc.analysis->DropRate(), pard.analysis->DropRate() * 0.8);
}

}  // namespace
}  // namespace pard
