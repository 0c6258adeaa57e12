#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "stats/empirical_distribution.h"
#include "stats/reservoir.h"
#include "stats/running_stat.h"
#include "stats/sliding_window.h"

namespace pard {
namespace {

// ---- RunningStat ------------------------------------------------------------

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.Variance(), 32.0 / 7.0, 1e-12);  // Sample variance.
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.Count(), 0);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
}

TEST(RunningStat, CvMatchesDefinition) {
  RunningStat s;
  for (double v : {1.0, 2.0, 3.0}) {
    s.Add(v);
  }
  EXPECT_NEAR(s.Cv(), s.Stddev() / s.Mean(), 1e-12);
}

TEST(RunningStat, ResetClears) {
  RunningStat s;
  s.Add(5.0);
  s.Reset();
  EXPECT_EQ(s.Count(), 0);
}

// ---- SlidingWindow ------------------------------------------------------------

TEST(SlidingWindow, MeanEvictsOldEntries) {
  SlidingWindow w(SecToUs(5));
  w.Add(SecToUs(0), 10.0);
  w.Add(SecToUs(4), 20.0);
  EXPECT_DOUBLE_EQ(w.Mean(SecToUs(4)), 15.0);
  // At t=6 the first entry (age 6s) is out of the 5s window.
  EXPECT_DOUBLE_EQ(w.Mean(SecToUs(6)), 20.0);
}

TEST(SlidingWindow, EmptyReturnsFallback) {
  SlidingWindow w(SecToUs(5));
  EXPECT_DOUBLE_EQ(w.Mean(SecToUs(1), 42.0), 42.0);
  EXPECT_DOUBLE_EQ(w.LinearWeightedMean(SecToUs(1), 7.0), 7.0);
  EXPECT_DOUBLE_EQ(w.Max(SecToUs(1), -3.0), -3.0);
}

TEST(SlidingWindow, LinearWeightingFavorsRecent) {
  SlidingWindow w(SecToUs(5));
  w.Add(SecToUs(0), 0.0);    // Age 4s at query -> weight 0.2.
  w.Add(SecToUs(4), 10.0);   // Age 0s -> weight 1.0.
  const double weighted = w.LinearWeightedMean(SecToUs(4));
  // (0.2*0 + 1.0*10) / 1.2 = 8.333...
  EXPECT_NEAR(weighted, 10.0 / 1.2, 1e-9);
  EXPECT_GT(weighted, w.Mean(SecToUs(4)));
}

TEST(SlidingWindow, LinearWeightEqualsUnweightedForSimultaneous) {
  SlidingWindow w(SecToUs(5));
  w.Add(SecToUs(2), 3.0);
  w.Add(SecToUs(2), 5.0);
  EXPECT_NEAR(w.LinearWeightedMean(SecToUs(2)), 4.0, 1e-9);
}

TEST(SlidingWindow, MaxTracksWindow) {
  SlidingWindow w(SecToUs(5));
  w.Add(SecToUs(0), 100.0);
  w.Add(SecToUs(4), 1.0);
  EXPECT_DOUBLE_EQ(w.Max(SecToUs(4)), 100.0);
  EXPECT_DOUBLE_EQ(w.Max(SecToUs(7)), 1.0);  // The 100 aged out.
}

TEST(SlidingWindow, RejectsOutOfOrderTimestamps) {
  SlidingWindow w(SecToUs(5));
  w.Add(SecToUs(2), 1.0);
  EXPECT_THROW(w.Add(SecToUs(1), 1.0), CheckError);
}

TEST(SlidingWindow, RejectsNonPositiveLength) {
  EXPECT_THROW(SlidingWindow(0), CheckError);
}

// ---- RecentReservoir -----------------------------------------------------------

TEST(RecentReservoir, KeepsMostRecentWhenFull) {
  RecentReservoir r(4);
  for (int i = 0; i < 10; ++i) {
    r.Add(static_cast<double>(i));
  }
  EXPECT_EQ(r.values().size(), 4u);
  double sum = 0.0;
  for (double v : r.values()) {
    sum += v;
  }
  EXPECT_DOUBLE_EQ(sum, 6.0 + 7.0 + 8.0 + 9.0);
}

// ---- EmpiricalDistribution ------------------------------------------------------

TEST(EmpiricalDistribution, QuantileEndpoints) {
  EmpiricalDistribution d({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(d.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.Quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), 3.0);
}

TEST(EmpiricalDistribution, QuantileInterpolates) {
  EmpiricalDistribution d({0.0, 10.0});
  EXPECT_DOUBLE_EQ(d.Quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(d.Quantile(0.75), 7.5);
}

TEST(EmpiricalDistribution, QuantileClampsArgument) {
  EmpiricalDistribution d({1.0, 2.0});
  EXPECT_DOUBLE_EQ(d.Quantile(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(d.Quantile(2.0), 2.0);
}

TEST(EmpiricalDistribution, EmptyFallback) {
  EmpiricalDistribution d;
  EXPECT_TRUE(d.Empty());
  EXPECT_DOUBLE_EQ(d.Quantile(0.5, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(d.Cdf(0.0), 0.0);
}

TEST(EmpiricalDistribution, CdfMatchesCounts) {
  EmpiricalDistribution d({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(d.Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(2.0), 0.5);
  EXPECT_DOUBLE_EQ(d.Cdf(10.0), 1.0);
}

TEST(EmpiricalDistribution, AddInvalidatesSortOrder) {
  EmpiricalDistribution d({5.0});
  d.Add(1.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.Min(), 1.0);
  EXPECT_DOUBLE_EQ(d.Max(), 5.0);
}

TEST(EmpiricalDistribution, MeanIsArithmetic) {
  EmpiricalDistribution d({1.0, 2.0, 6.0});
  EXPECT_DOUBLE_EQ(d.Mean(), 3.0);
}

// Property: quantile is monotone in q.
TEST(EmpiricalDistribution, QuantileMonotoneProperty) {
  Rng rng(77);
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) {
    samples.push_back(rng.Uniform(0.0, 100.0));
  }
  EmpiricalDistribution d(std::move(samples));
  double prev = d.Quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = d.Quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

}  // namespace
}  // namespace pard
