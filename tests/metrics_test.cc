#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "metrics/analysis.h"
#include "pipeline/apps.h"
#include "runtime/request_arena.h"

namespace pard {
namespace {

// Builds a request with a chosen fate, timing, and per-module GPU times.
RequestPtr Synthetic(std::uint64_t id, SimTime sent, Duration slo, RequestFate fate,
                     SimTime finish, int num_modules, int drop_module = -1) {
  static const auto arena = std::make_shared<RequestArena>();
  RequestPtr r = NewRequest(arena, num_modules);
  r->id = id;
  r->sent = sent;
  r->slo = slo;
  r->fate = fate;
  r->finish = finish;
  r->drop_module = drop_module;
  return r;
}

void AddHop(const RequestPtr& r, int module, SimTime arrive, Duration q, Duration w, Duration d,
            Duration gpu) {
  HopRecord& hop = r->hops[static_cast<std::size_t>(module)];
  hop.arrive = arrive;
  hop.batch_entry = arrive + q;
  hop.exec_start = hop.batch_entry + w;
  hop.exec_end = hop.exec_start + d;
  hop.gpu_time = static_cast<std::int32_t>(gpu);
  hop.executed = true;
}

PipelineSpec Tm() { return MakeTrafficMonitoring(); }

TEST(RunAnalysis, CountsAndRates) {
  std::vector<RequestPtr> reqs;
  reqs.push_back(Synthetic(1, 0, MsToUs(400), RequestFate::kCompleted, MsToUs(100), 3));
  reqs.push_back(Synthetic(2, 0, MsToUs(400), RequestFate::kLate, MsToUs(900), 3));
  reqs.push_back(Synthetic(3, 0, MsToUs(400), RequestFate::kDropped, MsToUs(50), 3, 1));
  RunAnalysis a(reqs, Tm());
  EXPECT_EQ(a.Total(), 3u);
  EXPECT_EQ(a.GoodCount(), 1u);
  EXPECT_EQ(a.DroppedCount(), 2u);  // Late counts as dropped (§5.1).
  EXPECT_NEAR(a.DropRate(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(a.NormalizedGoodput(), 1.0 / 3.0, 1e-12);
}

TEST(RunAnalysis, InvalidRateWeighsGpuTime) {
  std::vector<RequestPtr> reqs;
  auto good = Synthetic(1, 0, MsToUs(400), RequestFate::kCompleted, MsToUs(100), 3);
  AddHop(good, 0, 0, 0, 0, MsToUs(10), MsToUs(30));
  auto bad = Synthetic(2, 0, MsToUs(400), RequestFate::kDropped, MsToUs(50), 3, 2);
  AddHop(bad, 0, 0, 0, 0, MsToUs(10), MsToUs(10));
  AddHop(bad, 1, MsToUs(20), 0, 0, MsToUs(10), MsToUs(60));
  reqs = {good, bad};
  RunAnalysis a(reqs, Tm());
  // Invalid GPU: 10+60 of total 100.
  EXPECT_NEAR(a.InvalidRate(), 0.7, 1e-12);
}

TEST(RunAnalysis, InvalidRateZeroWhenNoGpuTime) {
  std::vector<RequestPtr> reqs = {
      Synthetic(1, 0, MsToUs(400), RequestFate::kDropped, 0, 3, 0)};
  RunAnalysis a(reqs, Tm());
  EXPECT_DOUBLE_EQ(a.InvalidRate(), 0.0);
}

TEST(RunAnalysis, PerModuleDropShareAttributesLateToSink) {
  std::vector<RequestPtr> reqs;
  reqs.push_back(Synthetic(1, 0, MsToUs(400), RequestFate::kDropped, 0, 3, 0));
  reqs.push_back(Synthetic(2, 0, MsToUs(400), RequestFate::kDropped, 0, 3, 0));
  reqs.push_back(Synthetic(3, 0, MsToUs(400), RequestFate::kLate, MsToUs(999), 3));
  reqs.push_back(Synthetic(4, 0, MsToUs(400), RequestFate::kCompleted, MsToUs(10), 3));
  RunAnalysis a(reqs, Tm());
  const std::vector<double> share = a.PerModuleDropShare();
  EXPECT_NEAR(share[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(share[1], 0.0, 1e-12);
  EXPECT_NEAR(share[2], 1.0 / 3.0, 1e-12);  // Late -> sink.
}

TEST(RunAnalysis, SliceFiltersBySendTime) {
  std::vector<RequestPtr> reqs;
  for (int i = 0; i < 10; ++i) {
    reqs.push_back(Synthetic(static_cast<std::uint64_t>(i), SecToUs(i), MsToUs(400),
                             i < 5 ? RequestFate::kCompleted : RequestFate::kDropped,
                             SecToUs(i) + MsToUs(100), 3, i < 5 ? -1 : 0));
  }
  RunAnalysis a(reqs, Tm());
  const RunAnalysis good_half = a.Slice(0, SecToUs(4));
  EXPECT_EQ(good_half.Total(), 5u);
  EXPECT_DOUBLE_EQ(good_half.DropRate(), 0.0);
  const RunAnalysis bad_half = a.Slice(SecToUs(5), SecToUs(9));
  EXPECT_DOUBLE_EQ(bad_half.DropRate(), 1.0);
}

TEST(RunAnalysis, MinNormalizedGoodputFindsWorstWindow) {
  std::vector<RequestPtr> reqs;
  // 20s of traffic at 1 req/s; seconds 10..14 all dropped.
  for (int i = 0; i < 20; ++i) {
    const bool bad = i >= 10 && i < 15;
    reqs.push_back(Synthetic(static_cast<std::uint64_t>(i), SecToUs(i), MsToUs(400),
                             bad ? RequestFate::kDropped : RequestFate::kCompleted,
                             SecToUs(i) + MsToUs(50), 3, bad ? 0 : -1));
  }
  RunAnalysis a(reqs, Tm());
  // A 4s window inside the bad stretch has goodput 0.
  EXPECT_NEAR(a.MinNormalizedGoodput(SecToUs(4)), 0.0, 1e-9);
  // The full-span window averages 15/20.
  EXPECT_NEAR(a.MinNormalizedGoodput(SecToUs(40)), 0.75, 0.1);
  // Max window drop rate mirrors it.
  EXPECT_NEAR(a.MaxWindowDropRate(SecToUs(4)), 1.0, 1e-9);
}

TEST(RunAnalysis, TransientSeriesSumsToCounts) {
  std::vector<RequestPtr> reqs;
  for (int i = 0; i < 30; ++i) {
    const bool bad = i % 3 == 0;
    reqs.push_back(Synthetic(static_cast<std::uint64_t>(i), SecToUs(i), MsToUs(400),
                             bad ? RequestFate::kDropped : RequestFate::kCompleted,
                             SecToUs(i) + MsToUs(10), 3, bad ? 1 : -1));
  }
  RunAnalysis a(reqs, Tm());
  const auto series = a.TransientDropRateSeries(SecToUs(1));
  ASSERT_FALSE(series.empty());
  double mean = 0.0;
  for (const SeriesPoint& p : series) {
    mean += p.value;
  }
  mean /= static_cast<double>(series.size());
  EXPECT_NEAR(mean, 1.0 / 3.0, 0.05);
}

TEST(RunAnalysis, GoodputSeriesCountsCompletions) {
  std::vector<RequestPtr> reqs;
  for (int i = 0; i < 10; ++i) {
    reqs.push_back(Synthetic(static_cast<std::uint64_t>(i), SecToUs(i), MsToUs(400),
                             RequestFate::kCompleted, SecToUs(i) + MsToUs(100), 3));
  }
  RunAnalysis a(reqs, Tm());
  const auto series = a.GoodputSeries(SecToUs(1));
  double total = 0.0;
  for (const SeriesPoint& p : series) {
    total += p.value;  // req/s in 1s bins -> sums to count.
  }
  EXPECT_NEAR(total, 10.0, 1e-9);
}

TEST(RunAnalysis, QueueDelayPerModuleAveragesExecutedHops) {
  std::vector<RequestPtr> reqs;
  auto r1 = Synthetic(1, 0, MsToUs(400), RequestFate::kCompleted, MsToUs(100), 3);
  AddHop(r1, 0, 0, MsToUs(4), 0, MsToUs(10), MsToUs(10));
  auto r2 = Synthetic(2, 0, MsToUs(400), RequestFate::kCompleted, MsToUs(100), 3);
  AddHop(r2, 0, 0, MsToUs(8), 0, MsToUs(10), MsToUs(10));
  reqs = {r1, r2};
  RunAnalysis a(reqs, Tm());
  const std::vector<double> q = a.MeanQueueDelayPerModule();
  EXPECT_NEAR(q[0], 6.0 * kUsPerMs, 1e-6);
  EXPECT_DOUBLE_EQ(q[1], 0.0);  // No executed hops at module 1.
}

TEST(RunAnalysis, ConsumedBudgetCountsGoodRequestsOnly) {
  std::vector<RequestPtr> reqs;
  auto good = Synthetic(1, 0, MsToUs(400), RequestFate::kCompleted, MsToUs(100), 3);
  AddHop(good, 0, MsToUs(5), MsToUs(5), MsToUs(5), MsToUs(10), MsToUs(10));
  auto dropped = Synthetic(2, 0, MsToUs(400), RequestFate::kDropped, MsToUs(50), 3, 1);
  AddHop(dropped, 0, MsToUs(5), MsToUs(50), MsToUs(50), MsToUs(10), MsToUs(10));
  reqs = {good, dropped};
  RunAnalysis a(reqs, Tm());
  const std::vector<double> consumed = a.MeanConsumedBudgetPerModule();
  // Only the good request counts: Q+W+D = 20ms at module 0.
  EXPECT_NEAR(consumed[0], 20.0 * kUsPerMs, 1e-6);
}

TEST(RunAnalysis, SumDistributionsReflectHops) {
  std::vector<RequestPtr> reqs;
  auto r = Synthetic(1, 0, MsToUs(400), RequestFate::kCompleted, MsToUs(100), 3);
  AddHop(r, 0, 0, MsToUs(1), MsToUs(2), MsToUs(3), MsToUs(3));
  AddHop(r, 1, MsToUs(10), MsToUs(4), MsToUs(5), MsToUs(6), MsToUs(6));
  reqs = {r};
  RunAnalysis a(reqs, Tm());
  EXPECT_DOUBLE_EQ(a.SumQueueDistribution().Mean(), 5.0 * kUsPerMs);
  EXPECT_DOUBLE_EQ(a.SumWaitDistribution().Mean(), 7.0 * kUsPerMs);
  EXPECT_DOUBLE_EQ(a.SumExecDistribution().Mean(), 9.0 * kUsPerMs);
}

TEST(RunAnalysis, RemainingBudgetOrdersByBatchEntry) {
  std::vector<RequestPtr> reqs;
  // Request 2 enters module 0 earlier than request 1.
  auto r1 = Synthetic(1, 0, MsToUs(400), RequestFate::kCompleted, MsToUs(100), 3);
  AddHop(r1, 0, MsToUs(50), 0, 0, MsToUs(10), MsToUs(10));
  auto r2 = Synthetic(2, 0, MsToUs(400), RequestFate::kCompleted, MsToUs(100), 3);
  AddHop(r2, 0, MsToUs(20), 0, 0, MsToUs(10), MsToUs(10));
  reqs = {r1, r2};
  RunAnalysis a(reqs, Tm());
  const std::vector<double> budgets = a.RemainingBudgetAt(0, 10);
  ASSERT_EQ(budgets.size(), 2u);
  // First by batch entry = r2 at 20ms -> remaining 380ms; then r1 -> 350ms.
  EXPECT_NEAR(budgets[0], 380.0 * kUsPerMs, 1e-6);
  EXPECT_NEAR(budgets[1], 350.0 * kUsPerMs, 1e-6);
}

// A request weighs its tenant's catalog weight, an untagged one 1.0, and a
// slice keeps the catalog.
TEST(RunAnalysis, WeightsComeFromTheCatalog) {
  std::vector<RequestPtr> reqs;
  reqs.push_back(Synthetic(1, 0, MsToUs(400), RequestFate::kCompleted, MsToUs(100), 3));
  reqs.push_back(Synthetic(2, 0, MsToUs(400), RequestFate::kCompleted, MsToUs(100), 3));
  reqs.push_back(Synthetic(3, 0, MsToUs(400), RequestFate::kDropped, MsToUs(50), 3, 1));
  reqs.push_back(Synthetic(4, MsToUs(500), MsToUs(400), RequestFate::kCompleted, MsToUs(600), 3));
  reqs[0]->tenant = 0;
  reqs[1]->tenant = 1;
  reqs[2]->tenant = 1;
  std::vector<TenantSpec> catalog(2);
  catalog[0].weight = 4.0;
  catalog[1].weight = 2.0;

  const RunAnalysis weighted(reqs, Tm(), catalog);
  EXPECT_DOUBLE_EQ(weighted.WeightedGoodCount(), 4.0 + 2.0 + 1.0);
  EXPECT_DOUBLE_EQ(weighted.WeightedTotal(), 4.0 + 2.0 + 2.0 + 1.0);
  const RunAnalysis first = weighted.Slice(0, MsToUs(100));
  EXPECT_DOUBLE_EQ(first.WeightedGoodCount(), 6.0);
  EXPECT_DOUBLE_EQ(first.WeightedTotal(), 8.0);

  const RunAnalysis plain(reqs, Tm());
  EXPECT_DOUBLE_EQ(plain.WeightedGoodCount(), 3.0);
  EXPECT_DOUBLE_EQ(plain.WeightedTotal(), 4.0);
}

TEST(RunAnalysis, EmptyRunIsAllZeros) {
  RunAnalysis a({}, Tm());
  EXPECT_EQ(a.Total(), 0u);
  EXPECT_DOUBLE_EQ(a.DropRate(), 0.0);
  EXPECT_DOUBLE_EQ(a.InvalidRate(), 0.0);
  EXPECT_DOUBLE_EQ(a.MeanGoodput(), 0.0);
  EXPECT_TRUE(a.GoodputSeries(SecToUs(1)).empty());
}

}  // namespace
}  // namespace pard
