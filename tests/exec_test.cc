// Tests for the parallel-execution subsystem: thread pool semantics
// (coverage, shutdown, exception propagation).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "exec/thread_pool.h"

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

}  // namespace
}  // namespace pard
