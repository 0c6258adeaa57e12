#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/time_types.h"

namespace pard {
namespace {

// ---- time types -------------------------------------------------------------

TEST(TimeTypes, MsRoundTrip) {
  EXPECT_EQ(MsToUs(1.0), 1000);
  EXPECT_EQ(MsToUs(0.5), 500);
  EXPECT_DOUBLE_EQ(UsToMs(2500), 2.5);
}

TEST(TimeTypes, SecRoundTrip) {
  EXPECT_EQ(SecToUs(1.0), kUsPerSec);
  EXPECT_DOUBLE_EQ(UsToSec(1500000), 1.5);
}

TEST(TimeTypes, NegativeDurations) {
  EXPECT_EQ(MsToUs(-2.0), -2000);
  EXPECT_DOUBLE_EQ(UsToMs(-1000), -1.0);
}

TEST(TimeTypes, RoundingMatchesLlround) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> us = {0.0, -0.0, 0.49999999999999994, 1.4999999999999998,
                            0x1p52 - 1.5, 0x1p52 - 0.5, std::nextafter(0x1p52, 0.0), 0x1p52,
                            0x1p52 + 1, 0x1p53, 1e18, 1e19, -0x1p52 + 0.5, -1e19,
                            inf, -inf, std::nan("")};
  for (int k = -1000; k <= 1000; ++k) {  // Exact halves and their neighbours.
    const double half = k + 0.5;
    us.insert(us.end(), {half, std::nextafter(half, -inf), std::nextafter(half, inf)});
  }
  Rng rng(42);
  for (int i = 0; i < 100000; ++i) {
    us.push_back(std::ldexp(rng.Uniform(-1.0, 1.0), static_cast<int>(rng.UniformInt(-4, 60))));
  }
  for (const double x : us) {
    EXPECT_EQ(RoundToTick(x), static_cast<Duration>(std::llround(x))) << x;
  }
  for (int i = 0; i < 100000; ++i) {
    const double sec = rng.Uniform(-10.0, 2000.0);
    EXPECT_EQ(SecToUs(sec), static_cast<Duration>(std::llround(sec * 1e6))) << sec;
    EXPECT_EQ(MsToUs(sec), static_cast<Duration>(std::llround(sec * 1e3))) << sec;
  }
}

// ---- check ------------------------------------------------------------------

TEST(Check, PassingCheckDoesNotThrow) { EXPECT_NO_THROW(PARD_CHECK(1 + 1 == 2)); }

TEST(Check, FailingCheckThrowsCheckError) {
  EXPECT_THROW(PARD_CHECK(false), CheckError);
}

TEST(Check, MessageIsIncluded) {
  try {
    PARD_CHECK_MSG(false, "context " << 42);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

// ---- rng --------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, ForkIsIndependentOfDrawCount) {
  Rng a(9);
  Rng b(9);
  a.NextU64();  // Perturb a only.
  EXPECT_EQ(a.Fork("x").NextU64(), b.Fork("x").NextU64());
}

TEST(Rng, ForkTagMatters) {
  Rng a(9);
  EXPECT_NE(a.Fork("x").NextU64(), a.Fork("y").NextU64());
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(4.0);
  }
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.15);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.15);
}

TEST(Rng, PoissonMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.Poisson(6.5));
  }
  EXPECT_NEAR(sum / n, 6.5, 0.2);
}

TEST(Rng, PoissonLargeMeanUsesApproximation) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.Poisson(200.0));
  }
  EXPECT_NEAR(sum / n, 200.0, 2.5);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(23);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(3);
  EXPECT_THROW(rng.Exponential(0.0), CheckError);
}

// ---- string_util --------------------------------------------------------------

TEST(StringUtil, SplitBasic) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, SplitPreservesEmptyFields) {
  const auto parts = Split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(StartsWith("pard-back", "pard"));
  EXPECT_FALSE(StartsWith("pa", "pard"));
}

TEST(StringUtil, ToLower) { EXPECT_EQ(ToLower("PaRd"), "pard"); }

TEST(StringUtil, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.234), "1.23");
}

}  // namespace
}  // namespace pard
