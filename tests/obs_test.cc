// Tests for the observability layer (src/obs/).
//
// Pins the contracts the instrumentation relies on:
//   - TraceShard is a bounded SPSC ring that drops NEWEST on overflow and
//     counts what it dropped (a truncated trace must be self-describing).
//   - Sampling is a deterministic function of (request_id, seed), so a sim
//     run replays to a bit-identical trace — asserted end to end by running
//     the same experiment twice and comparing exported JSON strings.
//   - AtomicHistogram routes under/overflow (and NaN) to dedicated buckets
//     and refuses to Merge across different layouts.
//   - Striped counters tally exactly under concurrent writers.
//   - The registry returns stable pointers and valid JSON, and the
//     simulator samples it every metrics_interval, right after the sync
//     where both fall on one instant.
//   - Drop-reason attribution is conservative in sim mode: every dropped
//     request carries a non-kNone reason and the reasons sum to the drop
//     count (the serve-mode twin lives in tests/serve_test.cc).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "harness/experiment.h"
#include "jsonio/json.h"
#include "obs/drop_reason.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "runtime/runtime_options.h"

namespace pard {
namespace {

TEST(TraceShard, DropsNewestOnWrapAndCountsThem) {
  TraceShard shard(0, /*capacity_pow2=*/8);
  for (int i = 0; i < 20; ++i) {
    TraceEvent ev;
    ev.request_id = static_cast<std::uint64_t>(i);
    shard.Push(ev);
  }
  std::vector<TraceEvent> out;
  EXPECT_EQ(shard.Drain(&out), 8u);
  ASSERT_EQ(out.size(), 8u);
  // Drop-newest: the ring keeps the OLDEST 8 events (0..7); 12 are counted.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].request_id,
              static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(shard.dropped_events(), 12u);
  // After a drain the ring has room again and the counter is cumulative.
  TraceEvent ev;
  ev.request_id = 99;
  shard.Push(ev);
  out.clear();
  EXPECT_EQ(shard.Drain(&out), 1u);
  EXPECT_EQ(out[0].request_id, 99u);
  EXPECT_EQ(shard.dropped_events(), 12u);
}

TEST(TraceRecorder, SamplingIsDeterministicAndRateShaped) {
  TraceRecorder::Options options;
  options.sample_rate = 0.5;
  options.seed = 1234;
  TraceRecorder a(options);
  TraceRecorder b(options);
  int sampled = 0;
  for (std::uint64_t id = 1; id <= 10000; ++id) {
    EXPECT_EQ(a.Sampled(id), b.Sampled(id)) << id;
    sampled += a.Sampled(id) ? 1 : 0;
  }
  // 5000 expected; 5 sigma is ~±250.
  EXPECT_GT(sampled, 4700);
  EXPECT_LT(sampled, 5300);

  options.sample_rate = 0.0;
  TraceRecorder none(options);
  EXPECT_FALSE(none.Sampled(1));
  options.sample_rate = 1.0;
  TraceRecorder all(options);
  EXPECT_TRUE(all.Sampled(1));
}

ExperimentConfig TracedSimConfig() {
  ExperimentConfig config;
  config.app = "tm";
  config.trace = "tweet";
  config.policy = "pard";
  config.duration_s = 1.5;
  config.base_rate = 40.0;
  config.seed = 7;
  config.runtime.provision_headroom = 1.25;
  config.runtime.enable_scaling = false;
  return config;
}

TEST(TraceRecorder, SimulatorRunExportsBitIdenticalTraceOnReplay) {
  // Same seed, same workload, sample rate 0.5 (the sampling filter must make
  // the same decisions both times): the exported JSON strings — the trace and
  // the metrics series — are identical.
  auto run = [] {
    ExperimentConfig config = TracedSimConfig();
    TraceRecorder::Options options;
    options.sample_rate = 0.5;
    options.seed = config.seed;
    TraceRecorder recorder(options);
    MetricsRegistry registry;
    config.runtime.trace = &recorder;
    config.runtime.metrics = &registry;
    const ExperimentResult result = RunExperiment(config);
    EXPECT_GT(result.analysis->Total(), 0u);
    return std::make_pair(recorder.ChromeTraceJson(), registry.ToJson().Dump());
  };
  const auto [first, first_metrics] = run();
  const auto [second, second_metrics] = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_EQ(first_metrics, second_metrics);

  // The control-plane metrics carry serve's names; the wall-clock sync
  // duration stays serve-only so the series stays a function of the seed.
  const JsonValue metrics = ParseJson(first_metrics);
  EXPECT_GT(metrics.At("gauges").At("control.snapshot_epoch").AsInt(), 1);
  EXPECT_NE(metrics.At("totals").Find("control.refresh_modules_refreshed"), nullptr);
  EXPECT_NE(metrics.At("totals").Find("control.refresh_modules_skipped"), nullptr);
  EXPECT_EQ(metrics.At("gauges").Find("control.sync_epoch"), nullptr);
  EXPECT_EQ(metrics.At("histograms").Find("control.sync_duration_us"), nullptr);

  // And the export is well-formed Chrome trace JSON with real events.
  const JsonValue doc = ParseJson(first);
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  EXPECT_GT(events->AsArray().size(), 10u);
  EXPECT_EQ(doc.At("otherData").At("dropped_events").AsInt(), 0);
}

TEST(TraceRecorder, WiringTraceDoesNotChangeSimOutcomes) {
  // Instrumentation must observe, never perturb: the same sim run with and
  // without a recorder wired produces identical per-request outcomes.
  ExperimentConfig config = TracedSimConfig();
  const ExperimentResult bare = RunExperiment(config);

  TraceRecorder::Options options;
  options.seed = config.seed;
  TraceRecorder recorder(options);
  MetricsRegistry registry;
  config.runtime.trace = &recorder;
  config.runtime.metrics = &registry;
  const ExperimentResult traced = RunExperiment(config);

  ASSERT_EQ(bare.analysis->Total(), traced.analysis->Total());
  EXPECT_EQ(bare.analysis->GoodCount(), traced.analysis->GoodCount());
  EXPECT_EQ(bare.analysis->DroppedCount(), traced.analysis->DroppedCount());
  for (std::size_t i = 0; i < bare.analysis->requests().size(); ++i) {
    const RequestPtr& a = bare.analysis->requests()[i];
    const RequestPtr& b = traced.analysis->requests()[i];
    ASSERT_EQ(a->fate, b->fate) << i;
    ASSERT_EQ(a->finish, b->finish) << i;
  }
}

// When a simulator run sampled the metrics registry and when it synced,
// read back from the metrics series and the trace's sync_epoch instants, in
// virtual us.
struct SampleTimeline {
  std::vector<SimTime> samples;
  // Each row's control.snapshot_epoch gauge; -1 before the first sync
  // registers it.
  std::vector<std::int64_t> sample_epochs;
  std::vector<SimTime> syncs;
};

SampleTimeline RunSampledSim(Duration metrics_interval) {
  ExperimentConfig config = TracedSimConfig();
  config.duration_s = 6.0;
  TraceRecorder::Options options;
  options.seed = config.seed;
  TraceRecorder recorder(options);
  MetricsRegistry registry;
  config.runtime.trace = &recorder;
  config.runtime.metrics = &registry;
  config.runtime.metrics_interval = metrics_interval;
  RunExperiment(config);

  SampleTimeline timeline;
  const JsonValue metrics = registry.ToJson();
  for (const JsonValue& row : metrics.At("samples").AsArray()) {
    timeline.samples.push_back(std::llround(row.At("t_s").AsDouble() * 1e6));
    const JsonValue* epoch = row.At("gauges").Find("control.snapshot_epoch");
    timeline.sample_epochs.push_back(epoch != nullptr ? epoch->AsInt() : -1);
  }
  const JsonValue trace = ParseJson(recorder.ChromeTraceJson());
  for (const JsonValue& ev : trace.At("traceEvents").AsArray()) {
    if (const JsonValue* name = ev.Find("name");
        name != nullptr && name->AsString() == "sync_epoch") {
      timeline.syncs.push_back(std::llround(ev.At("ts").AsDouble()));
    }
  }
  return timeline;
}

TEST(MetricsRegistry, SimulatorSamplesEveryMetricsInterval) {
  // Sampling is a control-loop job in both substrates, so the simulator
  // honors metrics_interval: at the defaults (1 s, the sync period) every
  // sample lands on a sync instant and sees the epoch that sync published
  // (the gauge only exists once the first sync has run)...
  const SampleTimeline defaults = RunSampledSim(RuntimeOptions{}.metrics_interval);
  ASSERT_GT(defaults.syncs.size(), 5u);
  EXPECT_EQ(defaults.samples, defaults.syncs);
  ASSERT_GE(defaults.sample_epochs.front(), 0);
  for (std::size_t i = 0; i < defaults.sample_epochs.size(); ++i) {
    EXPECT_EQ(defaults.sample_epochs[i],
              defaults.sample_epochs.front() + static_cast<std::int64_t>(i))
        << i;
  }

  // ...at 0.25 s it samples four times per sync, for as long as it syncs,
  // and each whole-second row again follows that second's sync...
  const SampleTimeline quarter = RunSampledSim(250 * kUsPerMs);
  EXPECT_EQ(quarter.syncs, defaults.syncs);
  ASSERT_FALSE(quarter.samples.empty());
  for (std::size_t i = 0; i < quarter.samples.size(); ++i) {
    EXPECT_EQ(quarter.samples[i], static_cast<SimTime>(i + 1) * 250 * kUsPerMs) << i;
    const std::size_t syncs_before = (i + 1) / 4;  // Syncs at or before this row.
    EXPECT_EQ(quarter.sample_epochs[i],
              syncs_before == 0 ? -1 : defaults.sample_epochs[syncs_before - 1])
        << i;
  }
  EXPECT_GT(quarter.samples.back(), defaults.syncs.back() - kUsPerSec);
  EXPECT_LE(quarter.samples.back(), defaults.syncs.back());

  // ...and at 0 it keeps totals only.
  const SampleTimeline none = RunSampledSim(0);
  EXPECT_EQ(none.syncs, defaults.syncs);
  EXPECT_TRUE(none.samples.empty());
}

TEST(AtomicHistogram, RoutesUnderOverflowAndNan) {
  AtomicHistogram hist(0.0, 10.0, 10);
  hist.Observe(-1.0);                                      // underflow
  hist.Observe(std::numeric_limits<double>::quiet_NaN());  // underflow
  hist.Observe(10.0);                                      // hi is exclusive
  hist.Observe(1e18);                                      // overflow
  hist.Observe(0.0);                                       // first bucket
  hist.Observe(9.999);                                     // last bucket
  EXPECT_EQ(hist.UnderflowCount(), 2);
  EXPECT_EQ(hist.OverflowCount(), 2);
  EXPECT_EQ(hist.BucketCount(0), 1);
  EXPECT_EQ(hist.BucketCount(9), 1);
  EXPECT_EQ(hist.Count(), 6);
}

TEST(AtomicHistogram, MergeAddsAndRejectsLayoutMismatch) {
  AtomicHistogram a(0.0, 10.0, 10);
  AtomicHistogram b(0.0, 10.0, 10);
  a.Observe(1.5);
  b.Observe(1.5);
  b.Observe(-1.0);
  a.Merge(b);
  EXPECT_EQ(a.BucketCount(1), 2);
  EXPECT_EQ(a.UnderflowCount(), 1);
  EXPECT_EQ(a.Count(), 3);

  AtomicHistogram different_range(0.0, 20.0, 10);
  AtomicHistogram different_buckets(0.0, 10.0, 5);
  EXPECT_THROW(a.Merge(different_range), CheckError);
  EXPECT_THROW(a.Merge(different_buckets), CheckError);
}

TEST(Counter, TalliesExactlyUnderConcurrentWriters) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        counter.Add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter.Value(), kThreads * kAddsPerThread);
}

TEST(MetricsRegistry, ReturnsStablePointersAndValidJson) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("fate.completed");
  Counter* c2 = registry.GetCounter("fate.completed");
  EXPECT_EQ(c1, c2);
  Gauge* g = registry.GetGauge("control.snapshot_epoch");
  AtomicHistogram* h1 = registry.GetHistogram("module.m0.batch_size", 0.0, 9.0, 9);
  AtomicHistogram* h2 = registry.GetHistogram("module.m0.batch_size", 0.0, 9.0, 9);
  EXPECT_EQ(h1, h2);
  // Re-registering a histogram with a different layout is a naming bug.
  EXPECT_THROW(registry.GetHistogram("module.m0.batch_size", 0.0, 5.0, 5), CheckError);

  c1->Add(3);
  g->Set(17);
  h1->Observe(4.0);
  registry.Sample(1 * kUsPerSec);
  registry.Sample(2 * kUsPerSec);
  EXPECT_EQ(registry.sample_count(), 2u);

  const JsonValue doc = ParseJson(registry.ToJson().Dump());
  EXPECT_EQ(doc.At("totals").At("fate.completed").AsInt(), 3);
  EXPECT_EQ(doc.At("gauges").At("control.snapshot_epoch").AsInt(), 17);
  ASSERT_TRUE(doc.At("samples").IsArray());
  EXPECT_EQ(doc.At("samples").AsArray().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.At("samples").AsArray()[0].At("t_s").AsDouble(), 1.0);
}

TEST(DropReason, NamesCoverEveryEnumerator) {
  for (int r = 0; r < kNumDropReasons; ++r) {
    const char* name = DropReasonName(static_cast<DropReason>(r));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
  EXPECT_STREQ(DropReasonName(DropReason::kNone), "none");
  EXPECT_STREQ(DropReasonName(DropReason::kProactiveAdmission), "proactive_admission");
  EXPECT_STREQ(DropReasonName(DropReason::kSloLate), "slo_late");
}

TEST(DropReason, SimDropsAreFullyAttributedUnderOverload) {
  // Structural overload in the simulator: plenty of drops, and every one of
  // them must carry a reason — the reasons sum exactly to the drop count.
  // The fleet is pinned to one worker per module (provisioning scales with
  // the offered rate, so raising base_rate alone would not overload).
  ExperimentConfig config = TracedSimConfig();
  config.base_rate = 400.0;
  config.runtime.fixed_workers = std::vector<int>(3, 1);  // tm has 3 modules.
  const ExperimentResult result = RunExperiment(config);
  const RunAnalysis& analysis = *result.analysis;
  ASSERT_GT(analysis.DroppedCount(), 0u);
  const std::vector<std::size_t> reasons = analysis.DropReasonCounts();
  ASSERT_EQ(reasons.size(), static_cast<std::size_t>(kNumDropReasons));
  std::size_t sum = 0;
  for (std::size_t r = 1; r < reasons.size(); ++r) {
    sum += reasons[r];
  }
  EXPECT_EQ(sum, analysis.DroppedCount());
}

}  // namespace
}  // namespace pard
