// Multi-tenant serving: the tenant catalog, the ingress governor, and the
// three pinned end-to-end properties from the PR charter:
//
//   1. Weighted goodput — on an overloaded 3-tenant mix, governed admission
//      (shed lowest-weight first) clears at least as much *weighted*
//      normalized goodput as the no-shed PARD baseline on the identical
//      arrival stream and tenant assignment.
//   2. Per-tenant conservation — under a chaos schedule every tenant's
//      drop-reason counts partition its dropped population exactly; tenant
//      totals partition the run.
//   3. Fairness floor — no tenant's ingress admit rate falls below its
//      admit_floor (up to hash quantization).
//
// The serve-substrate case runs the same invariants through real threads so
// the tsan preset exercises the lock-free governor reads concurrently with
// Resync.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "core/tenant_governor.h"
#include "harness/experiment.h"
#include "jsonio/json.h"
#include "metrics/analysis.h"
#include "obs/drop_reason.h"
#include "pipeline/apps.h"
#include "pipeline/backend_profile.h"
#include "pipeline/tenant_spec.h"
#include "resilience/chaos.h"
#include "runtime/backend_fleet.h"
#include "runtime/state_board.h"

namespace pard {
namespace {

// Three tiers, equal SLO class so weighted-vs-unweighted comparisons are
// apples-to-apples (slo_scale tiers are exercised separately below).
std::vector<TenantSpec> FlatSloCatalog() {
  std::vector<TenantSpec> catalog(3);
  catalog[0] = TenantSpec{"gold", 4.0, 0.2, 1.0, 0.2};
  catalog[1] = TenantSpec{"silver", 2.0, 0.3, 1.0, 0.2};
  catalog[2] = TenantSpec{"bronze", 1.0, 0.5, 1.0, 0.1};
  return catalog;
}

// The same mix with shedding disabled: every floor is 1.0, so the governor
// may never drop at ingress and admission degenerates to baseline PARD with
// tenant stamping only.
std::vector<TenantSpec> NoShedCatalog() {
  std::vector<TenantSpec> catalog = FlatSloCatalog();
  for (TenantSpec& t : catalog) {
    t.admit_floor = 1.0;
  }
  return catalog;
}

ExperimentConfig OverloadConfig() {
  ExperimentConfig config;
  config.app = "lv";
  config.trace = "tweet";
  config.policy = "pard";
  config.duration_s = 20.0;
  // Provisioned at 1.15x the trace MEAN, the tweet trace's burst regions
  // run well past capacity, so the governor sees sustained load > 1 and a
  // real shed budget (the same regime as the pardsim smoke runs).
  config.base_rate = 300.0;
  config.seed = 7;
  // Live scaling tracks demand with ceil() headroom, so burst load factors
  // genuinely exceed 1 at the sync ticks (a statically over-provisioned
  // fleet absorbs the smoothed burst and the governor never engages).
  config.runtime.enable_scaling = true;
  return config;
}

// ----------------------------------------------------------- catalog JSON --

TEST(TenantSpecJson, RoundTripsIncludingDefaults) {
  TenantSpec spec;
  spec.name = "batch";
  spec.weight = 1.5;
  spec.share = 0.25;
  spec.slo_scale = 2.0;
  spec.admit_floor = 0.1;
  EXPECT_EQ(TenantSpec::FromJson(spec.ToJson()), spec);

  // Default slo_scale/admit_floor are omitted from the JSON and restored on
  // parse.
  TenantSpec plain;
  plain.name = "plain";
  plain.weight = 2.0;
  plain.share = 0.75;
  const JsonValue v = plain.ToJson();
  EXPECT_EQ(v.AsObject().count("slo_scale"), 0u);
  EXPECT_EQ(v.AsObject().count("admit_floor"), 0u);
  EXPECT_EQ(TenantSpec::FromJson(v), plain);
}

TEST(TenantSpecJson, RejectsUnknownFieldsAndBadCatalogs) {
  EXPECT_THROW(ParseTenantCatalogText(R"({"tenants": [{"name": "a", "share": 1.0,
                                       "wieght": 2.0}]})"),
               JsonError);
  EXPECT_THROW(ParseTenantCatalogText(R"({"tenant": []})"), JsonError);
  // Shares must sum to 1.
  EXPECT_THROW(ParseTenantCatalogText(
                   R"({"tenants": [{"name": "a", "share": 0.5}]})"),
               CheckError);
  // Duplicate names.
  EXPECT_THROW(ParseTenantCatalogText(
                   R"({"tenants": [{"name": "a", "share": 0.5},
                                   {"name": "a", "share": 0.5}]})"),
               CheckError);
  EXPECT_NO_THROW(ValidateTenantCatalog(MakeReferenceTenantCatalog()));
}

// -------------------------------------------------------------- governor --

std::vector<ModuleState> StatesWithLoad(double load) {
  std::vector<ModuleState> states(3);
  states[1].load_factor = load;  // Worst module drives the plan.
  return states;
}

TEST(TenantGovernor, AssignmentMatchesSharesAndIsDeterministic) {
  TenantGovernor governor(FlatSloCatalog(), /*seed=*/42);
  const int kDraws = 20000;
  std::vector<int> counts(3, 0);
  for (int i = 0; i < kDraws; ++i) {
    const int t = governor.TenantOf(static_cast<std::uint64_t>(i));
    ASSERT_GE(t, 0);
    ASSERT_LT(t, 3);
    ++counts[static_cast<std::size_t>(t)];
    EXPECT_EQ(t, governor.TenantOf(static_cast<std::uint64_t>(i)));  // Pure.
  }
  EXPECT_NEAR(counts[0] / double(kDraws), 0.2, 0.02);
  EXPECT_NEAR(counts[1] / double(kDraws), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / double(kDraws), 0.5, 0.02);
}

TEST(TenantGovernor, ShedsLowestWeightFirstAndHonorsFloors) {
  TenantGovernor governor(FlatSloCatalog(), /*seed=*/42);
  // No overload: everyone admits everything.
  governor.Resync(StatesWithLoad(0.8));
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(governor.AdmitProbability(t), 1.0);
  }

  // Mild overload (load 1.25 -> shed 20% of traffic): bronze's 0.5 share can
  // absorb it all (cap 0.5 * (1 - 0.1) = 0.45 > 0.2), so gold/silver stay
  // untouched and bronze admits 1 - 0.2/0.5 = 60%.
  governor.Resync(StatesWithLoad(1.25));
  EXPECT_EQ(governor.AdmitProbability(0), 1.0);
  EXPECT_EQ(governor.AdmitProbability(1), 1.0);
  EXPECT_NEAR(governor.AdmitProbability(2), 0.6, 1e-12);

  // Extreme overload (load 10 -> shed 90%): every tenant is pushed to its
  // floor; the plan can never go below it.
  governor.Resync(StatesWithLoad(10.0));
  EXPECT_NEAR(governor.AdmitProbability(0), 0.2, 1e-12);
  EXPECT_NEAR(governor.AdmitProbability(1), 0.2, 1e-12);
  EXPECT_NEAR(governor.AdmitProbability(2), 0.1, 1e-12);

  // Recovery: the next healthy tick reopens the gates.
  governor.Resync(StatesWithLoad(0.5));
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(governor.AdmitProbability(t), 1.0);
  }
}

TEST(TenantGovernor, NoShedCatalogNeverDrops) {
  TenantGovernor governor(NoShedCatalog(), /*seed=*/42);
  governor.Resync(StatesWithLoad(25.0));
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(governor.AdmitProbability(t), 1.0);
    for (std::uint64_t id = 0; id < 500; ++id) {
      if (governor.TenantOf(id) == t) {
        EXPECT_TRUE(governor.AdmitAtIngress(id, t));
      }
    }
    EXPECT_EQ(governor.ShedCount(t), 0u);
  }
}

// ------------------------------------------------------------- simulator --

TEST(SimTenants, WeightedGoodputBeatsNoShedBaselineUnderOverload) {
  // Pinned property 1. Identical arrivals + identical tenant assignment;
  // the ONLY difference is whether the governor may shed at ingress.
  ExperimentConfig governed = OverloadConfig();
  governed.runtime.tenants = FlatSloCatalog();
  ExperimentConfig baseline = OverloadConfig();
  baseline.runtime.tenants = NoShedCatalog();

  const ExperimentResult a = RunExperiment(governed);
  const ExperimentResult b = RunExperiment(baseline);
  ASSERT_EQ(a.analysis->Total(), b.analysis->Total());
  EXPECT_GE(a.analysis->WeightedNormalizedGoodput(),
            b.analysis->WeightedNormalizedGoodput())
      << "governed=" << a.analysis->WeightedNormalizedGoodput()
      << " baseline=" << b.analysis->WeightedNormalizedGoodput();
  EXPECT_GT(a.analysis->WeightedNormalizedGoodput(), 0.0);

  // The governor shed only the cheap tier: ingress drops concentrate on
  // bronze, and gold keeps a higher admit rate than bronze.
  const std::vector<TenantBreakdown> tenants = a.analysis->PerTenant();
  ASSERT_EQ(tenants.size(), 3u);
  const auto shed_of = [&](int t) {
    return tenants[static_cast<std::size_t>(t)]
        .drop_reasons[static_cast<std::size_t>(DropReason::kTenantShed)];
  };
  EXPECT_GT(shed_of(2), 0u);
  EXPECT_GE(shed_of(2), shed_of(0));
}

TEST(SimTenants, PerTenantConservationExactUnderChaos) {
  // Pinned property 2: tenant totals partition the run and each tenant's
  // reason counts partition its dropped population — exactly, even with
  // kills, hangs, a slowdown and a sync stall in flight.
  ExperimentConfig config = OverloadConfig();
  config.runtime.tenants = MakeReferenceTenantCatalog();
  config.runtime.fleet_events = ParseFaultSchedule("4:0:kill:1,6:1:kill:1,8:1:add:1");
  config.runtime.resilience.chaos =
      ParseChaosSchedule("2.5:1:hang:1:1.5, 5:0:slow:2.0:3, 7:stall-sync:2");
  config.runtime.resilience.max_retries = 2;

  const ExperimentResult result = RunExperiment(config);
  const RunAnalysis& analysis = *result.analysis;
  const std::vector<TenantBreakdown> tenants = analysis.PerTenant();
  ASSERT_EQ(tenants.size(), 3u);

  std::size_t total = 0;
  std::size_t good = 0;
  std::size_t dropped = 0;
  for (const TenantBreakdown& b : tenants) {
    EXPECT_EQ(b.good + b.dropped, b.total);
    ASSERT_EQ(b.drop_reasons.size(), static_cast<std::size_t>(kNumDropReasons));
    EXPECT_EQ(b.drop_reasons[0], 0u);  // kNone = lost attribution.
    std::size_t reason_sum = 0;
    for (int r = 1; r < kNumDropReasons; ++r) {
      reason_sum += b.drop_reasons[static_cast<std::size_t>(r)];
    }
    EXPECT_EQ(reason_sum, b.dropped);
    total += b.total;
    good += b.good;
    dropped += b.dropped;
  }
  EXPECT_EQ(total, analysis.Total());  // Every request carries a tenant tag.
  EXPECT_EQ(good, analysis.GoodCount());
  EXPECT_EQ(dropped, analysis.DroppedCount());
}

TEST(SimTenants, FairnessFloorHeldUnderSustainedOverload) {
  // Pinned property 3: even at ~2.5x structural overload no tenant's admit
  // rate falls below its floor (tolerance covers hash quantization on a
  // finite sample).
  ExperimentConfig config = OverloadConfig();
  config.base_rate = 400.0;
  config.runtime.tenants = MakeReferenceTenantCatalog();
  const ExperimentResult result = RunExperiment(config);
  const std::vector<TenantBreakdown> tenants = result.analysis->PerTenant();
  ASSERT_EQ(tenants.size(), 3u);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const TenantBreakdown& b = tenants[t];
    ASSERT_GT(b.total, 100u);
    const double shed = static_cast<double>(
        b.drop_reasons[static_cast<std::size_t>(DropReason::kTenantShed)]);
    const double admit_rate = 1.0 - shed / static_cast<double>(b.total);
    EXPECT_GE(admit_rate, config.runtime.tenants[t].admit_floor - 0.05)
        << config.runtime.tenants[t].name;
  }
}

TEST(SimTenants, TenantRunsAreBitDeterministic) {
  ExperimentConfig config = OverloadConfig();
  config.runtime.tenants = MakeReferenceTenantCatalog();
  const ExperimentResult a = RunExperiment(config);
  const ExperimentResult b = RunExperiment(config);
  ASSERT_EQ(a.analysis->Total(), b.analysis->Total());
  EXPECT_EQ(a.fleet_cost, b.fleet_cost);
  for (std::size_t i = 0; i < a.analysis->requests().size(); ++i) {
    const Request& x = *a.analysis->requests()[i];
    const Request& y = *b.analysis->requests()[i];
    ASSERT_EQ(x.tenant, y.tenant) << "request " << x.id;
    ASSERT_EQ(x.fate, y.fate) << "request " << x.id;
    ASSERT_EQ(x.drop_reason, y.drop_reason) << "request " << x.id;
  }
  // Weights come from the catalog by tenant tag, summed in log order.
  EXPECT_EQ(a.analysis->WeightedGoodCount(), b.analysis->WeightedGoodCount());
  EXPECT_EQ(a.analysis->WeightedTotal(), b.analysis->WeightedTotal());
}

TEST(SimTenants, SloScaleStampsPerTenantDeadlines) {
  // A 2x slo_scale tier must carry twice the pipeline SLO on its requests.
  ExperimentConfig config = OverloadConfig();
  config.duration_s = 5.0;
  config.runtime.tenants = MakeReferenceTenantCatalog();  // batch: slo_scale 2.
  const ExperimentResult result = RunExperiment(config);
  const Duration base_slo = result.spec.slo();
  for (const RequestPtr& req : result.analysis->requests()) {
    ASSERT_GE(req->tenant, 0);
    const double scale = config.runtime.tenants[static_cast<std::size_t>(req->tenant)]
                             .slo_scale;
    EXPECT_EQ(req->slo, static_cast<Duration>(std::llround(
                            static_cast<double>(base_slo) * scale)))
        << "request " << req->id;
  }
}

TEST(SimTenants, CostAwareProvisioningPrefersCheapEffectiveGrades) {
  // Two grades: full speed at 4x cost vs half speed at 1x cost. Per unit of
  // cost the slow grade does 2x the work, so cost-aware provisioning should
  // finish the run strictly cheaper than round-robin while goodput stays
  // in the same regime (more, slower workers).
  ExperimentConfig round_robin = OverloadConfig();
  round_robin.base_rate = 150.0;
  round_robin.runtime.enable_scaling = true;
  round_robin.runtime.fixed_workers.clear();
  PipelineSpec spec = MakeApp("tm");
  spec.set_backends(ParseBackendGrades("1.0@4.0,0.5@1.0"));
  round_robin.custom_spec = spec;

  ExperimentConfig cost_aware = round_robin;
  cost_aware.runtime.cost_aware_provisioning = true;

  const ExperimentResult rr = RunExperiment(round_robin);
  const ExperimentResult ca = RunExperiment(cost_aware);
  ASSERT_GT(rr.fleet_cost, 0.0);
  ASSERT_GT(ca.fleet_cost, 0.0);
  const double rr_value = rr.analysis->WeightedGoodCount() / rr.fleet_cost;
  const double ca_value = ca.analysis->WeightedGoodCount() / ca.fleet_cost;
  EXPECT_GT(ca_value, rr_value)
      << "cost-aware " << ca_value << " vs round-robin " << rr_value;
}

// --------------------------------------------------------------- serving --

TEST(ServeTenants, ConservesPerTenantAndShedsLowestWeight) {
  // The tsan-preset case: load generator + brokers hammer the governor's
  // lock-free reads while the control thread Resyncs. Invariants are the
  // same conservation/fairness properties as the simulator, with bounds
  // loose enough for wall-clock jitter.
  ExperimentConfig config = OverloadConfig();
  config.duration_s = 10.0;
  config.runtime.tenants = FlatSloCatalog();
  ServeOptions serve;
  serve.speedup = 10.0;
  serve.broker_threads = 2;

  const ExperimentResult result = RunServeExperiment(config, serve);
  const RunAnalysis& analysis = *result.analysis;
  ASSERT_GT(analysis.Total(), 1000u);
  const std::vector<TenantBreakdown> tenants = analysis.PerTenant();
  ASSERT_EQ(tenants.size(), 3u);

  std::size_t total = 0;
  for (const TenantBreakdown& b : tenants) {
    EXPECT_EQ(b.good + b.dropped, b.total);
    ASSERT_EQ(b.drop_reasons.size(), static_cast<std::size_t>(kNumDropReasons));
    EXPECT_EQ(b.drop_reasons[0], 0u);
    std::size_t reason_sum = 0;
    for (int r = 1; r < kNumDropReasons; ++r) {
      reason_sum += b.drop_reasons[static_cast<std::size_t>(r)];
    }
    EXPECT_EQ(reason_sum, b.dropped);
    total += b.total;
  }
  EXPECT_EQ(total, analysis.Total());

  // Under structural overload the shed budget lands on bronze before gold.
  const auto shed_of = [&](int t) {
    return tenants[static_cast<std::size_t>(t)]
        .drop_reasons[static_cast<std::size_t>(DropReason::kTenantShed)];
  };
  EXPECT_GE(shed_of(2), shed_of(0));
}

}  // namespace
}  // namespace pard
