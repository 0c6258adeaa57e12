// Tests for the parallel-execution subsystem: thread pool semantics
// (coverage, shutdown, exception propagation) and trace sharding
// (partitioning, warm-up overlap, record merging).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "baselines/policy_factory.h"
#include "common/check.h"
#include "common/time_types.h"
#include "exec/sharded_trace.h"
#include "exec/thread_pool.h"
#include "pipeline/apps.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/request.h"

namespace pard {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  ThreadPool pool(4);
  ParallelFor(pool, kN, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ConvenienceOverloadRunsInlineWithOneJob) {
  // jobs == 1 must execute on the calling thread, in order.
  std::vector<std::size_t> order;
  ParallelFor(1, 5, [&order](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, DestructorDrainsSubmittedWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
    // No Wait(): the destructor must still run everything already queued.
  }
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, WaitRethrowsFirstTaskException) {
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&executed, i] {
      executed.fetch_add(1);
      if (i % 5 == 0) {
        throw std::runtime_error("task failed");
      }
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // A failing task never cancels its siblings.
  EXPECT_EQ(executed.load(), 20);
  // The error is consumed: a second Wait() is clean and the pool reusable.
  pool.Submit([&executed] { executed.fetch_add(1); });
  EXPECT_NO_THROW(pool.Wait());
  EXPECT_EQ(executed.load(), 21);
}

TEST(ThreadPool, ParallelForPropagatesExceptionsAfterDraining) {
  std::vector<std::atomic<int>> hits(50);
  EXPECT_THROW(ParallelFor(4, hits.size(),
                           [&hits](std::size_t i) {
                             hits[i].fetch_add(1);
                             if (i == 7) {
                               throw std::runtime_error("boom");
                             }
                           }),
               std::runtime_error);
  int total = 0;
  for (auto& h : hits) {
    total += h.load();
  }
  EXPECT_EQ(total, 50);
}

TEST(ThreadPool, ResolveJobs) {
  EXPECT_EQ(ThreadPool::ResolveJobs(1), 1);
  EXPECT_EQ(ThreadPool::ResolveJobs(8), 8);
  EXPECT_GE(ThreadPool::ResolveJobs(0), 1);
  EXPECT_GE(ThreadPool::ResolveJobs(-3), 1);
}

std::vector<SimTime> EvenArrivals(std::size_t count, Duration step) {
  std::vector<SimTime> arrivals(count);
  for (std::size_t i = 0; i < count; ++i) {
    arrivals[i] = static_cast<SimTime>(i) * step;
  }
  return arrivals;
}

RequestPtr MakeRequestAt(SimTime sent) {
  auto req = std::make_shared<Request>();
  req->sent = sent;
  return req;
}

TEST(ShardedTrace, SingleShardHoldsWholeStream) {
  const auto arrivals = EvenArrivals(100, kUsPerSec);
  ShardOptions options;
  options.shards = 1;
  const ShardedTrace sharded(arrivals, 0, 100 * kUsPerSec, options);
  ASSERT_EQ(sharded.size(), 1u);
  EXPECT_EQ(sharded.shards()[0].arrivals, arrivals);
  EXPECT_EQ(sharded.shards()[0].warmup_count, 0u);
}

TEST(ShardedTrace, CoreIntervalsPartitionEveryArrivalExactlyOnce) {
  const auto arrivals = EvenArrivals(1000, kUsPerSec / 2);  // 500 s at 2 req/s.
  const SimTime end = 500 * kUsPerSec;
  ShardOptions options;
  options.shards = 7;
  options.warmup = 10 * kUsPerSec;
  const ShardedTrace sharded(arrivals, 0, end, options);
  ASSERT_EQ(sharded.size(), 7u);

  std::size_t core_total = 0;
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    const auto& shard = sharded.shards()[i];
    core_total += shard.arrivals.size() - shard.warmup_count;
    // Shards tile the span: each begins where the previous ended.
    if (i > 0) {
      EXPECT_EQ(shard.begin, sharded.shards()[i - 1].end);
      EXPECT_GT(shard.warmup_count, 0u);
      // Warm-up entries precede the core interval; core entries lie in it.
      EXPECT_LT(shard.arrivals[shard.warmup_count - 1], shard.begin);
    }
    EXPECT_GE(shard.arrivals[shard.warmup_count], shard.begin);
    EXPECT_LT(shard.arrivals.back(), shard.end);
  }
  EXPECT_EQ(sharded.shards().front().begin, 0);
  EXPECT_EQ(sharded.shards().back().end, end);
  EXPECT_EQ(core_total, arrivals.size());
}

TEST(ShardedTrace, ArrivalExactlyOnTraceEndStaysInLastShard) {
  // SecToUs rounding can place an arrival exactly on the trace end; the last
  // shard's closed right edge must keep it (no request silently lost vs the
  // unsharded run).
  auto arrivals = EvenArrivals(20, kUsPerSec);
  const SimTime end = 19 * kUsPerSec;  // Last arrival == end.
  ShardOptions options;
  options.shards = 4;
  const ShardedTrace sharded(arrivals, 0, end, options);

  std::size_t core_total = 0;
  std::vector<std::vector<RequestPtr>> records(sharded.size());
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    const auto& shard = sharded.shards()[i];
    core_total += shard.arrivals.size() - shard.warmup_count;
    for (SimTime t : shard.arrivals) {
      records[i].push_back(MakeRequestAt(t));
    }
  }
  EXPECT_EQ(core_total, arrivals.size());
  const std::vector<RequestPtr> merged = MergeShardRecords(sharded, std::move(records));
  ASSERT_EQ(merged.size(), arrivals.size());
  EXPECT_EQ(merged.back()->sent, end);
}

TEST(ShardedTrace, WarmupClampsToStreamBegin) {
  const auto arrivals = EvenArrivals(40, kUsPerSec);
  ShardOptions options;
  options.shards = 2;
  options.warmup = 3600 * kUsPerSec;  // Far longer than the whole trace.
  const ShardedTrace sharded(arrivals, 0, 40 * kUsPerSec, options);
  // Shard 1's warm-up covers all of shard 0 but never underflows time zero.
  EXPECT_EQ(sharded.shards()[1].arrivals.size(), arrivals.size());
  EXPECT_EQ(sharded.shards()[1].warmup_count, sharded.shards()[0].arrivals.size());
}

TEST(ShardedTrace, MergeDropsWarmupReplaysAndKeepsOrder) {
  const auto arrivals = EvenArrivals(10, kUsPerSec);  // 0..9 s.
  ShardOptions options;
  options.shards = 2;
  options.warmup = 2 * kUsPerSec;
  const ShardedTrace sharded(arrivals, 0, 10 * kUsPerSec, options);

  // Simulate what two shard runtimes would leave behind: shard 1 re-ran the
  // 3 s and 4 s arrivals as warm-up.
  std::vector<std::vector<RequestPtr>> records(2);
  for (SimTime t : sharded.shards()[0].arrivals) {
    records[0].push_back(MakeRequestAt(t));
  }
  for (SimTime t : sharded.shards()[1].arrivals) {
    records[1].push_back(MakeRequestAt(t));
  }
  ASSERT_EQ(sharded.shards()[1].warmup_count, 2u);

  const std::vector<RequestPtr> merged = MergeShardRecords(sharded, std::move(records));
  ASSERT_EQ(merged.size(), arrivals.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i]->sent, arrivals[i]);
  }
}

TEST(ShardedTrace, EmptyShardIsKeptAndMergesCleanly) {
  // All arrivals cluster in the first quarter of the span: later shards have
  // zero core arrivals (and possibly zero arrivals at all) but must still
  // exist, keep the tiling invariant, and merge without losing anything.
  std::vector<SimTime> arrivals;
  for (int i = 0; i < 50; ++i) {
    arrivals.push_back(i * (kUsPerSec / 2));  // All within [0, 25 s).
  }
  const SimTime end = 100 * kUsPerSec;
  ShardOptions options;
  options.shards = 4;
  options.warmup = 5 * kUsPerSec;
  const ShardedTrace sharded(arrivals, 0, end, options);
  ASSERT_EQ(sharded.size(), 4u);

  std::size_t core_total = 0;
  std::vector<std::vector<RequestPtr>> records(sharded.size());
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    const auto& shard = sharded.shards()[i];
    core_total += shard.arrivals.size() - shard.warmup_count;
    for (SimTime t : shard.arrivals) {
      records[i].push_back(MakeRequestAt(t));
    }
  }
  // Shards 2 and 3 saw nothing, not even warm-up.
  EXPECT_TRUE(sharded.shards()[2].arrivals.empty());
  EXPECT_TRUE(sharded.shards()[3].arrivals.empty());
  EXPECT_EQ(core_total, arrivals.size());
  const std::vector<RequestPtr> merged = MergeShardRecords(sharded, std::move(records));
  ASSERT_EQ(merged.size(), arrivals.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i]->sent, arrivals[i]);
  }
}

TEST(ShardedTrace, WarmupLongerThanShardWidthSpansMultipleShards) {
  // 10 shards of 4 s each, 10 s warm-up: every shard's warm-up reaches back
  // across 2+ predecessor shards (clamped at the stream begin). Core
  // accounting must stay exact regardless.
  const auto arrivals = EvenArrivals(80, kUsPerSec / 2);  // 40 s at 2 req/s.
  const SimTime end = 40 * kUsPerSec;
  ShardOptions options;
  options.shards = 10;
  options.warmup = 10 * kUsPerSec;
  const ShardedTrace sharded(arrivals, 0, end, options);
  ASSERT_EQ(sharded.size(), 10u);

  std::size_t core_total = 0;
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    const auto& shard = sharded.shards()[i];
    core_total += shard.arrivals.size() - shard.warmup_count;
    const SimTime warmup_begin = std::max<SimTime>(0, shard.begin - options.warmup);
    if (!shard.arrivals.empty()) {
      EXPECT_GE(shard.arrivals.front(), warmup_begin);
    }
    if (i >= 3) {
      // Far enough in that the full 10 s (2.5 shard widths) is available:
      // warm-up replays must cover more than one predecessor shard's span.
      EXPECT_EQ(shard.arrivals.front(), shard.begin - options.warmup);
      EXPECT_GT(shard.warmup_count,
                sharded.shards()[i - 1].arrivals.size() -
                    sharded.shards()[i - 1].warmup_count);
    }
  }
  EXPECT_EQ(core_total, arrivals.size());
}

TEST(ShardedTrace, SingleShardRunMatchesUnshardedBitForBit) {
  // The degenerate shards == 1 partition must reproduce the unsharded run
  // exactly: same arrivals in, one runtime, no warm-up — so every record
  // (fate, timestamps, per-hop decomposition) is bit-identical.
  const std::vector<SimTime> arrivals = EvenArrivals(200, kUsPerSec / 25);  // 8 s at 25 req/s.
  const SimTime end = 8 * kUsPerSec;
  ShardOptions options;
  options.shards = 1;
  const ShardedTrace sharded(arrivals, 0, end, options);
  ASSERT_EQ(sharded.size(), 1u);
  EXPECT_EQ(sharded.shards()[0].warmup_count, 0u);
  EXPECT_EQ(sharded.shards()[0].arrivals, arrivals);

  const PipelineSpec spec = MakeApp("tm");
  RuntimeOptions runtime;
  runtime.seed = 99;
  auto run = [&](const std::vector<SimTime>& stream) {
    std::unique_ptr<DropPolicy> policy = MakePolicy("pard", PolicyParams{});
    PipelineRuntime pipeline(spec, runtime, policy.get(), 25.0);
    pipeline.RunTrace(stream);
    return pipeline.requests();
  };
  const std::vector<RequestPtr> direct = run(arrivals);
  std::vector<std::vector<RequestPtr>> shard_records{run(sharded.shards()[0].arrivals)};
  const std::vector<RequestPtr> merged = MergeShardRecords(sharded, std::move(shard_records));

  ASSERT_EQ(merged.size(), direct.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const Request& a = *direct[i];
    const Request& b = *merged[i];
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.fate, b.fate);
    EXPECT_EQ(a.finish, b.finish);
    EXPECT_EQ(a.drop_module, b.drop_module);
    ASSERT_EQ(a.hops.size(), b.hops.size());
    for (std::size_t h = 0; h < a.hops.size(); ++h) {
      EXPECT_EQ(a.hops[h].arrive, b.hops[h].arrive);
      EXPECT_EQ(a.hops[h].batch_entry, b.hops[h].batch_entry);
      EXPECT_EQ(a.hops[h].exec_start, b.hops[h].exec_start);
      EXPECT_EQ(a.hops[h].exec_end, b.hops[h].exec_end);
      EXPECT_EQ(a.hops[h].gpu_time, b.hops[h].gpu_time);
    }
  }
}

TEST(ShardedTrace, MergeRejectsMismatchedRecordSets) {
  const auto arrivals = EvenArrivals(10, kUsPerSec);
  ShardOptions options;
  options.shards = 3;
  const ShardedTrace sharded(arrivals, 0, 10 * kUsPerSec, options);
  std::vector<std::vector<RequestPtr>> records(2);  // One shard short.
  EXPECT_THROW(MergeShardRecords(sharded, std::move(records)), CheckError);
}

}  // namespace
}  // namespace pard
