#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "runtime/request.h"
#include "runtime/request_queue.h"

namespace pard {
namespace {

// A request due at `deadline`: sent at 0 with that SLO.
RequestPtr MakeReq(std::uint64_t id, SimTime deadline) {
  auto r = std::make_shared<Request>();
  r->id = id;
  r->slo = deadline;
  return r;
}

TEST(RequestQueue, EmptyPopsNull) {
  RequestQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Pop(PopSide::kOldest), nullptr);
  EXPECT_EQ(q.Pop(PopSide::kMinBudget), nullptr);
  EXPECT_EQ(q.Pop(PopSide::kMaxBudget), nullptr);
  EXPECT_EQ(q.MinDeadline(), kSimTimeMax);
}

TEST(RequestQueue, FifoOrder) {
  RequestQueue q;
  q.Push(MakeReq(1, 300));
  q.Push(MakeReq(2, 100));
  q.Push(MakeReq(3, 200));
  EXPECT_EQ(q.Pop(PopSide::kOldest)->id, 1u);
  EXPECT_EQ(q.Pop(PopSide::kOldest)->id, 2u);
  EXPECT_EQ(q.Pop(PopSide::kOldest)->id, 3u);
}

TEST(RequestQueue, MinBudgetOrder) {
  RequestQueue q;
  q.Push(MakeReq(1, 300));
  q.Push(MakeReq(2, 100));
  q.Push(MakeReq(3, 200));
  EXPECT_EQ(q.Pop(PopSide::kMinBudget)->id, 2u);
  EXPECT_EQ(q.Pop(PopSide::kMinBudget)->id, 3u);
  EXPECT_EQ(q.Pop(PopSide::kMinBudget)->id, 1u);
}

TEST(RequestQueue, MaxBudgetOrder) {
  RequestQueue q;
  q.Push(MakeReq(1, 300));
  q.Push(MakeReq(2, 100));
  q.Push(MakeReq(3, 200));
  EXPECT_EQ(q.Pop(PopSide::kMaxBudget)->id, 1u);
  EXPECT_EQ(q.Pop(PopSide::kMaxBudget)->id, 3u);
  EXPECT_EQ(q.Pop(PopSide::kMaxBudget)->id, 2u);
}

TEST(RequestQueue, MixedSidesNeverReturnSameEntryTwice) {
  RequestQueue q;
  q.Push(MakeReq(1, 100));
  q.Push(MakeReq(2, 200));
  q.Push(MakeReq(3, 300));
  // Pop min (id 1), then FIFO must skip the consumed entry.
  EXPECT_EQ(q.Pop(PopSide::kMinBudget)->id, 1u);
  EXPECT_EQ(q.Pop(PopSide::kOldest)->id, 2u);
  EXPECT_EQ(q.Pop(PopSide::kMaxBudget)->id, 3u);
  EXPECT_TRUE(q.Empty());
}

TEST(RequestQueue, EqualDeadlinesBreakTiesByArrival) {
  RequestQueue q;
  q.Push(MakeReq(1, 100));
  q.Push(MakeReq(2, 100));
  q.Push(MakeReq(3, 100));
  EXPECT_EQ(q.Pop(PopSide::kMinBudget)->id, 1u);
  EXPECT_EQ(q.Pop(PopSide::kMaxBudget)->id, 3u);
  EXPECT_EQ(q.Pop(PopSide::kMinBudget)->id, 2u);
}

TEST(RequestQueue, MinDeadlineTracksLiveEntries) {
  RequestQueue q;
  q.Push(MakeReq(1, 100));
  q.Push(MakeReq(2, 200));
  EXPECT_EQ(q.MinDeadline(), 100);
  // Consume the min through the FIFO view; MinDeadline must skip it.
  EXPECT_EQ(q.Pop(PopSide::kOldest)->id, 1u);
  EXPECT_EQ(q.MinDeadline(), 200);
}

TEST(RequestQueue, SizeTracksLiveCount) {
  RequestQueue q;
  q.Push(MakeReq(1, 100));
  q.Push(MakeReq(2, 200));
  EXPECT_EQ(q.Size(), 2u);
  q.Pop(PopSide::kMaxBudget);
  EXPECT_EQ(q.Size(), 1u);
  q.Pop(PopSide::kOldest);
  EXPECT_EQ(q.Size(), 0u);
}

// Regression (ISSUE 3): entries consumed through one view used to linger in
// the other forever under lazy invalidation. A long run that only ever pops
// through the heap (alternating HBF/LBF, the adaptive-priority pattern) must
// keep the FIFO view — and the slab — bounded by the live size, not by
// history.
TEST(RequestQueue, HeapOnlyConsumptionKeepsFifoBounded) {
  RequestQueue q;
  constexpr std::size_t kDepth = 128;
  std::uint64_t next_id = 1;
  for (std::size_t i = 0; i < kDepth; ++i) {
    q.Push(MakeReq(next_id, static_cast<SimTime>(next_id % 997)));
    ++next_id;
  }
  std::size_t max_fifo = 0;
  std::size_t max_slab = 0;
  for (int step = 0; step < 200000; ++step) {
    q.Push(MakeReq(next_id, static_cast<SimTime>(next_id % 997)));
    ++next_id;
    const RequestPtr got =
        q.Pop(step % 2 == 0 ? PopSide::kMinBudget : PopSide::kMaxBudget);
    ASSERT_NE(got, nullptr);
    max_fifo = std::max(max_fifo, q.FifoFootprint());
    max_slab = std::max(max_slab, q.SlabFootprint());
  }
  EXPECT_EQ(q.Size(), kDepth);
  // Compaction triggers at 2x live + slack; anything near history size
  // (200k) means unbounded growth came back.
  EXPECT_LE(max_fifo, 2 * kDepth + 128);
  EXPECT_LE(max_slab, 2 * kDepth + 128);
}

// The mirror image: FIFO-only consumption must keep the heap view bounded.
TEST(RequestQueue, FifoOnlyConsumptionKeepsHeapBounded) {
  RequestQueue q;
  constexpr std::size_t kDepth = 128;
  std::uint64_t next_id = 1;
  for (std::size_t i = 0; i < kDepth; ++i) {
    q.Push(MakeReq(next_id, static_cast<SimTime>(next_id % 997)));
    ++next_id;
  }
  std::size_t max_heap = 0;
  for (int step = 0; step < 200000; ++step) {
    q.Push(MakeReq(next_id, static_cast<SimTime>(next_id % 997)));
    ++next_id;
    ASSERT_NE(q.Pop(PopSide::kOldest), nullptr);
    max_heap = std::max(max_heap, q.HeapFootprint());
  }
  EXPECT_EQ(q.Size(), kDepth);
  EXPECT_LE(max_heap, 2 * kDepth + 128);
}

// Property: under random interleaved operation the queue agrees with a
// reference implementation.
class RequestQueuePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RequestQueuePropertyTest, AgreesWithReference) {
  Rng rng(GetParam());
  RequestQueue q;
  std::vector<RequestPtr> reference;  // Insertion-ordered live entries.
  std::uint64_t next_id = 1;
  for (int step = 0; step < 3000; ++step) {
    const double action = rng.NextDouble();
    if (action < 0.5 || reference.empty()) {
      auto r = MakeReq(next_id++, rng.UniformInt(0, 500));
      reference.push_back(r);
      q.Push(r);
    } else {
      const double which = rng.NextDouble();
      std::size_t pick = 0;
      PopSide side;
      if (which < 0.34) {
        side = PopSide::kOldest;
        pick = 0;
      } else if (which < 0.67) {
        side = PopSide::kMinBudget;
        for (std::size_t i = 1; i < reference.size(); ++i) {
          if (reference[i]->Deadline() < reference[pick]->Deadline()) {
            pick = i;
          }
        }
      } else {
        side = PopSide::kMaxBudget;
        for (std::size_t i = 1; i < reference.size(); ++i) {
          // >= : on equal deadlines the queue's PopMax returns the latest
          // arrival (largest sequence number).
          if (reference[i]->Deadline() >= reference[pick]->Deadline()) {
            pick = i;
          }
        }
      }
      const RequestPtr got = q.Pop(side);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got->id, reference[pick]->id);
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    EXPECT_EQ(q.Size(), reference.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RequestQueuePropertyTest, ::testing::Values(3, 7, 11, 19, 43));

}  // namespace
}  // namespace pard
