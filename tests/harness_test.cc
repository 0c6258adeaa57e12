// Tests for the experiment harness, the JSON run report, and failure
// injection.
#include <gtest/gtest.h>
#include <cctype>
#include <string>

#include "harness/experiment.h"
#include "metrics/report.h"
#include "pipeline/apps.h"
#include "runtime/backend_fleet.h"

namespace pard {
namespace {

ExperimentConfig Quick(const std::string& policy = "pard") {
  ExperimentConfig c;
  c.app = "tm";
  c.trace = "wiki";
  c.policy = policy;
  c.duration_s = 60.0;
  c.base_rate = 150.0;
  c.seed = 3;
  return c;
}

TEST(Harness, RunsAndAnalyzes) {
  const ExperimentResult r = RunExperiment(Quick());
  EXPECT_GT(r.analysis->Total(), 1000u);
  EXPECT_GT(r.mean_input_rate, 50.0);
  EXPECT_EQ(r.spec.app_name(), "tm");
}

TEST(Harness, SloOverrideApplied) {
  ExperimentConfig c = Quick();
  c.slo_override = MsToUs(321);
  const ExperimentResult r = RunExperiment(c);
  EXPECT_EQ(r.spec.slo(), MsToUs(321));
  for (const RequestPtr& req : r.analysis->requests()) {
    EXPECT_EQ(req->slo, MsToUs(321));
    break;
  }
}

TEST(Harness, CustomSpecOverridesApp) {
  ExperimentConfig c = Quick();
  c.custom_spec = MakeGameAnalysis();
  const ExperimentResult r = RunExperiment(c);
  EXPECT_EQ(r.spec.app_name(), "gm");
  EXPECT_EQ(r.spec.NumModules(), 5);
}

TEST(Harness, FixedWorkersRespected) {
  ExperimentConfig c = Quick();
  c.runtime.fixed_workers = {2, 2, 2};
  EXPECT_NO_THROW(RunExperiment(c));
  c.runtime.fixed_workers = {2, 2};  // Wrong arity.
  EXPECT_THROW(RunExperiment(c), CheckError);
}

TEST(Harness, UnknownNamesThrow) {
  ExperimentConfig c = Quick();
  c.policy = "bogus";
  EXPECT_THROW(RunExperiment(c), CheckError);
  c = Quick();
  c.trace = "bogus";
  EXPECT_THROW(RunExperiment(c), CheckError);
  c = Quick();
  c.app = "bogus";
  EXPECT_THROW(RunExperiment(c), CheckError);
}

// Every policy the factory knows must run the quick grid without violating
// conservation — a smoke property over the whole policy zoo. The run checks
// its own log when it ends (CheckRunInvariants), so a broken record throws.
class AllPoliciesTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllPoliciesTest, ConservationOnQuickRun) {
  ExperimentConfig c = Quick(GetParam());
  c.duration_s = 30.0;
  const ExperimentResult r = RunExperiment(c);
  EXPECT_GT(r.analysis->Total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(PolicyZoo, AllPoliciesTest, ::testing::ValuesIn(AllPolicyNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) {
                               ch = '_';
                             }
                           }
                           return name;
                         });

// ---- run report ---------------------------------------------------------------

TEST(RunReport, ContainsSummaryAndPerModule) {
  const ExperimentResult r = RunExperiment(Quick());
  const JsonValue report = BuildRunReport(*r.analysis);
  EXPECT_EQ(report.At("summary").At("total").AsInt(),
            static_cast<std::int64_t>(r.analysis->Total()));
  EXPECT_NEAR(report.At("summary").At("drop_rate").AsDouble(), r.analysis->DropRate(), 1e-12);
  EXPECT_EQ(report.At("per_module").At("drop_share").AsArray().size(), 3u);
  EXPECT_EQ(report.At("per_module").At("mean_queue_delay_ms").AsArray().size(), 3u);
  EXPECT_TRUE(report.At("latency").At("sum_wait_ms").IsObject());
}

TEST(RunReport, SeriesOptional) {
  const ExperimentResult r = RunExperiment(Quick());
  ReportOptions options;
  options.include_series = false;
  const JsonValue report = BuildRunReport(*r.analysis, options);
  EXPECT_EQ(report.Find("series"), nullptr);
  options.include_series = true;
  const JsonValue with = BuildRunReport(*r.analysis, options);
  EXPECT_NE(with.Find("series"), nullptr);
  EXPECT_EQ(with.At("series").At("t_s").AsArray().size(),
            with.At("series").At("normalized_goodput").AsArray().size());
}

TEST(RunReport, JsonSerializable) {
  const ExperimentResult r = RunExperiment(Quick());
  const JsonValue report = BuildRunReport(*r.analysis);
  // Dump/parse round trip must preserve the document.
  EXPECT_TRUE(ParseJson(report.Dump()) == report);
}

// ---- failure injection -----------------------------------------------------------

TEST(FailureInjection, KilledWorkersDropTheirRequests) {
  ExperimentConfig c = Quick("naive");
  c.runtime.fixed_workers = {2, 2, 2};
  c.runtime.fleet_events = ParseFaultSchedule("20:1:kill:2");  // The whole module.
  const ExperimentResult r = RunExperiment(c);
  // Everything after the failure is dropped at module 1 (no capacity left,
  // no scaling) even though the policy itself never drops.
  std::size_t dropped_at_m1 = 0;
  for (const RequestPtr& req : r.analysis->requests()) {
    if (req->fate == RequestFate::kDropped) {
      EXPECT_EQ(req->drop_module, 1);
      ++dropped_at_m1;
    }
  }
  EXPECT_GT(dropped_at_m1, 100u);
}

TEST(FailureInjection, ScalingRestoresCapacity) {
  ExperimentConfig c = Quick("pard");
  c.runtime.enable_scaling = true;
  c.runtime.scaling_epoch = 2 * kUsPerSec;
  c.runtime.cold_start = 1 * kUsPerSec;
  c.runtime.fleet_events = ParseFaultSchedule("20:0:kill:1");
  const ExperimentResult r = RunExperiment(c);
  // Requests sent well after the failure complete again.
  const RunAnalysis tail = r.analysis->Slice(SecToUs(40), SecToUs(60));
  EXPECT_GT(tail.NormalizedGoodput(), 0.5);
}

TEST(FailureInjection, OutOfRangeModuleThrows) {
  ExperimentConfig c = Quick();
  c.runtime.fleet_events = ParseFaultSchedule("1:99:kill:1");
  EXPECT_THROW(RunExperiment(c), CheckError);
}

}  // namespace
}  // namespace pard
