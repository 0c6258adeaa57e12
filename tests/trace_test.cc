#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "trace/arrival_generator.h"
#include "trace/rate_function.h"
#include "trace/traces.h"

namespace pard {
namespace {

TEST(RateFunction, InterpolatesLinearly) {
  const RateFunction f({{0, 100.0}, {SecToUs(10), 200.0}});
  EXPECT_DOUBLE_EQ(f.At(0), 100.0);
  EXPECT_DOUBLE_EQ(f.At(SecToUs(5)), 150.0);
  EXPECT_DOUBLE_EQ(f.At(SecToUs(10)), 200.0);
}

TEST(RateFunction, ClampsOutsideRange) {
  const RateFunction f({{SecToUs(1), 50.0}, {SecToUs(2), 70.0}});
  EXPECT_DOUBLE_EQ(f.At(0), 50.0);
  EXPECT_DOUBLE_EQ(f.At(SecToUs(100)), 70.0);
}

TEST(RateFunction, ConstantIsFlat) {
  const RateFunction f = RateFunction::Constant(42.0);
  EXPECT_DOUBLE_EQ(f.At(0), 42.0);
  EXPECT_DOUBLE_EQ(f.At(SecToUs(12345)), 42.0);
  EXPECT_DOUBLE_EQ(f.MaxRate(), 42.0);
}

TEST(RateFunction, MeanRateOfRamp) {
  const RateFunction f({{0, 0.0}, {SecToUs(10), 100.0}});
  EXPECT_NEAR(f.MeanRate(0, SecToUs(10)), 50.0, 1.0);
}

TEST(RateFunction, CvOfConstantIsZero) {
  const RateFunction f = RateFunction::Constant(10.0);
  EXPECT_NEAR(f.Cv(0, SecToUs(100)), 0.0, 1e-9);
}

TEST(RateFunction, ScaledMultipliesRate) {
  const RateFunction f({{0, 100.0}, {SecToUs(10), 200.0}});
  const RateFunction g = f.Scaled(2.0);
  EXPECT_DOUBLE_EQ(g.At(SecToUs(5)), 300.0);
}

TEST(RateFunction, RejectsInvalidPoints) {
  EXPECT_THROW(RateFunction({{0, -1.0}}), CheckError);
  EXPECT_THROW(RateFunction({{10, 1.0}, {5, 1.0}}), CheckError);
  EXPECT_THROW(RateFunction(std::vector<RateFunction::Point>{}), CheckError);
}

// ---- paper traces --------------------------------------------------------------

TraceOptions DefaultOptions() {
  TraceOptions o;
  o.duration_s = 600.0;
  o.base_rate = 200.0;
  o.seed = 11;
  return o;
}

TEST(Traces, WikiIsSmoothlyPeriodic) {
  const RateFunction f = MakeWikiTrace(DefaultOptions());
  const double cv = f.Cv(0, SecToUs(600));
  // Paper: CV ~= 0.47 for wiki.
  EXPECT_GT(cv, 0.3);
  EXPECT_LT(cv, 0.65);
}

TEST(Traces, TweetIsBursty) {
  const RateFunction f = MakeTweetTrace(DefaultOptions());
  const double cv = f.Cv(0, SecToUs(600));
  // Paper: CV ~= 1.0 for tweet.
  EXPECT_GT(cv, 0.7);
  EXPECT_LT(cv, 1.4);
}

TEST(Traces, AzureIsMostBursty) {
  const TraceOptions o = DefaultOptions();
  const double cv_azure = MakeAzureTrace(o).Cv(0, SecToUs(600));
  const double cv_tweet = MakeTweetTrace(o).Cv(0, SecToUs(600));
  const double cv_wiki = MakeWikiTrace(o).Cv(0, SecToUs(600));
  // Paper ordering: wiki (0.47) < tweet (1.0) <= azure (1.3).
  EXPECT_LT(cv_wiki, cv_tweet);
  EXPECT_GT(cv_azure, 1.0);
}

TEST(Traces, TweetHasSustainedStep) {
  const TraceOptions o = DefaultOptions();
  const RateFunction f = MakeTweetTrace(o);
  // The sustained step lives at 60%..72% of the duration. Compare it to the
  // pre-step *baseline* (median rate, so transient random bursts in the
  // earlier region don't inflate the reference).
  std::vector<double> pre;
  for (double t = 0.0; t < 0.55 * 600; t += 1.0) {
    pre.push_back(f.At(SecToUs(t)));
  }
  std::sort(pre.begin(), pre.end());
  const double baseline = pre[pre.size() / 2];
  const double during = f.MeanRate(SecToUs(0.61 * 600), SecToUs(0.70 * 600));
  EXPECT_GT(during, 1.5 * baseline);
}

TEST(Traces, DeterministicInSeed) {
  const TraceOptions o = DefaultOptions();
  const RateFunction a = MakeAzureTrace(o);
  const RateFunction b = MakeAzureTrace(o);
  for (SimTime t = 0; t < SecToUs(600); t += SecToUs(7)) {
    EXPECT_DOUBLE_EQ(a.At(t), b.At(t));
  }
}

TEST(Traces, DispatchByName) {
  const TraceOptions o = DefaultOptions();
  EXPECT_NO_THROW(MakeTrace("wiki", o));
  EXPECT_NO_THROW(MakeTrace("tweet", o));
  EXPECT_NO_THROW(MakeTrace("azure", o));
  EXPECT_NO_THROW(MakeTrace("poisson", o));
  EXPECT_NO_THROW(MakeTrace("mmpp", o));
  EXPECT_THROW(MakeTrace("bogus", o), CheckError);
}

TEST(Traces, BurstRegionInsideTrace) {
  const TraceOptions o = DefaultOptions();
  for (const char* name : {"wiki", "tweet", "azure", "poisson", "mmpp"}) {
    const TraceRegion r = BurstRegion(name, o);
    EXPECT_GE(r.begin, 0);
    EXPECT_GT(r.end, r.begin);
    EXPECT_LE(r.end, SecToUs(o.duration_s));
  }
}

// ---- synthetic shapes -------------------------------------------------------------

TEST(Traces, PoissonIsFlatAtBaseRateAndDrawsPoissonArrivals) {
  TraceOptions o = DefaultOptions();
  o.duration_s = 10.0;
  const RateFunction f = MakeTrace("poisson", o);
  EXPECT_DOUBLE_EQ(f.At(0), o.base_rate);
  EXPECT_DOUBLE_EQ(f.At(SecToUs(7.5)), o.base_rate);
  EXPECT_DOUBLE_EQ(f.MaxRate(), o.base_rate);
  Rng a(123);
  Rng b(123);
  const auto arrivals = GenerateArrivals(f, 0, SecToUs(10), a);
  EXPECT_EQ(arrivals, GenerateArrivals(f, 0, SecToUs(10), b));
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  // 2000 expected arrivals; 5 sigma is ~±224.
  EXPECT_GT(arrivals.size(), 1700u);
  EXPECT_LT(arrivals.size(), 2300u);
}

MmppOptions TestMmpp() {
  MmppOptions mmpp;
  mmpp.base_rate = 50.0;
  mmpp.burst_rate = 400.0;
  mmpp.mean_base_s = 4.0;
  mmpp.mean_burst_s = 2.0;
  return mmpp;
}

TEST(Traces, MmppCurveTakesOnlyItsTwoRates) {
  const MmppOptions mmpp = TestMmpp();
  const SimTime end = SecToUs(120);
  Rng rng(7);
  const RateFunction f = MakeMmppTrace(mmpp, end, rng);
  EXPECT_DOUBLE_EQ(f.points().front().rate, mmpp.base_rate);  // Starts quiet.
  EXPECT_LT(f.End(), end);
  std::size_t burst_points = 0;
  for (const RateFunction::Point& p : f.points()) {
    EXPECT_TRUE(p.rate == mmpp.base_rate || p.rate == mmpp.burst_rate) << p.rate;
    burst_points += p.rate == mmpp.burst_rate ? 1 : 0;
  }
  // 120 s of 4 s / 2 s mean dwells switches state ~40 times.
  EXPECT_GT(burst_points, 10u);
  EXPECT_GT(f.points().size() - burst_points, 10u);
  // A step curve: each edge ramps over 1 us, so at whole microseconds the
  // rate is always one of the two.
  for (SimTime t = SecToUs(0.5); t < end; t += SecToUs(1)) {
    const double r = f.At(t);
    EXPECT_TRUE(r == mmpp.base_rate || r == mmpp.burst_rate) << r << " at " << t;
  }
  const double mean = f.MeanRate(0, end);
  EXPECT_GT(mean, mmpp.base_rate);
  EXPECT_LT(mean, mmpp.burst_rate);
  // The arrivals drawn on it land between the two rates as well.
  Rng arrival_rng(8);
  const auto arrivals = GenerateArrivals(f, 0, end, arrival_rng);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  const double rate = static_cast<double>(arrivals.size()) / UsToSec(end);
  EXPECT_GT(rate, mmpp.base_rate);
  EXPECT_LT(rate, mmpp.burst_rate);
}

TEST(Traces, MmppCurveIsDeterministicPerSeed) {
  const MmppOptions mmpp = TestMmpp();
  const auto curve = [&](std::uint64_t seed) {
    Rng rng(seed);
    return MakeMmppTrace(mmpp, SecToUs(120), rng).points();
  };
  const auto same = [](const std::vector<RateFunction::Point>& a,
                       const std::vector<RateFunction::Point>& b) {
    if (a.size() != b.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].t != b[i].t || a[i].rate != b[i].rate) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(same(curve(7), curve(7)));
  EXPECT_FALSE(same(curve(7), curve(8)));

  // By name: the burst rate is 4x base_rate and the dwells come from the
  // trace seed.
  const TraceOptions o = DefaultOptions();
  const RateFunction named = MakeTrace("mmpp", o);
  for (const RateFunction::Point& p : named.points()) {
    EXPECT_TRUE(p.rate == o.base_rate || p.rate == 4.0 * o.base_rate) << p.rate;
  }
  EXPECT_TRUE(same(named.points(), MakeTrace("mmpp", o).points()));
  TraceOptions reseeded = o;
  reseeded.seed = o.seed + 1;
  EXPECT_FALSE(same(named.points(), MakeTrace("mmpp", reseeded).points()));
}

TEST(Traces, MmppCurveKeepsStrictlyIncreasingPointsWhenCutOneMicrosecondIn) {
  // 1 us mean dwells: segments are mostly the 2 us minimum, so across these
  // ends the cut at `end` leaves some a 1 us last segment. It gets a single
  // point (a second would repeat its instant), so the curve's last two
  // points belong to different states.
  MmppOptions mmpp = TestMmpp();
  mmpp.mean_base_s = 1e-6;
  mmpp.mean_burst_s = 1e-6;
  int single_point_tails = 0;
  for (SimTime end = 3; end < 40; ++end) {
    Rng rng(3);
    const std::vector<RateFunction::Point> points = MakeMmppTrace(mmpp, end, rng).points();
    ASSERT_GE(points.size(), 2u);
    EXPECT_EQ(points.back().t, end - 1);
    single_point_tails += points.back().rate != points[points.size() - 2].rate ? 1 : 0;
  }
  EXPECT_GT(single_point_tails, 0);
}

TEST(Traces, MmppCurveRejectsNonPositiveRatesAndDwells) {
  MmppOptions mmpp = TestMmpp();
  Rng rng(1);
  mmpp.burst_rate = 0.0;
  EXPECT_THROW(MakeMmppTrace(mmpp, SecToUs(10), rng), CheckError);
  mmpp = TestMmpp();
  mmpp.mean_base_s = 0.0;
  EXPECT_THROW(MakeMmppTrace(mmpp, SecToUs(10), rng), CheckError);
}

// ---- arrival generation ----------------------------------------------------------

TEST(ArrivalGenerator, CountMatchesIntegratedRate) {
  Rng rng(5);
  const RateFunction f = RateFunction::Constant(100.0);
  const auto arrivals = GenerateArrivals(f, 0, SecToUs(100), rng);
  // Expect ~10000 arrivals; Poisson sd = 100.
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 10000.0, 400.0);
}

TEST(ArrivalGenerator, SortedAndInRange) {
  Rng rng(6);
  const RateFunction f = MakeTweetTrace(DefaultOptions());
  const auto arrivals = GenerateArrivals(f, SecToUs(10), SecToUs(50), rng);
  ASSERT_FALSE(arrivals.empty());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i], SecToUs(10));
    EXPECT_LT(arrivals[i], SecToUs(50));
    if (i > 0) {
      EXPECT_GE(arrivals[i], arrivals[i - 1]);
    }
  }
}

TEST(ArrivalGenerator, ThinningTracksRateChanges) {
  Rng rng(7);
  // 10 req/s then 100 req/s: the second half should have ~10x the arrivals.
  const RateFunction f({{0, 10.0}, {SecToUs(50) - 1, 10.0}, {SecToUs(50), 100.0},
                        {SecToUs(100), 100.0}});
  const auto arrivals = GenerateArrivals(f, 0, SecToUs(100), rng);
  std::size_t first = 0;
  for (SimTime t : arrivals) {
    first += t < SecToUs(50) ? 1 : 0;
  }
  const std::size_t second = arrivals.size() - first;
  EXPECT_GT(second, 6 * first);
}

TEST(ArrivalGenerator, DeterministicInRng) {
  const RateFunction f = RateFunction::Constant(50.0);
  Rng a(9);
  Rng b(9);
  EXPECT_EQ(GenerateArrivals(f, 0, SecToUs(10), a), GenerateArrivals(f, 0, SecToUs(10), b));
}

TEST(ArrivalGenerator, UniformArrivalsEvenlySpaced) {
  const auto arrivals = GenerateUniformArrivals(10.0, 0, SecToUs(1));
  ASSERT_EQ(arrivals.size(), 10u);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], SecToUs(0.1));
  }
}

}  // namespace
}  // namespace pard
