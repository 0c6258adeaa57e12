// SnapshotCell (RCU-style epoch reclamation), LockOrderGuard, and the
// ControlPlane's snapshot read path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/lock_order.h"
#include "common/rng.h"
#include "core/pard_policy.h"
#include "pipeline/apps.h"
#include "runtime/snapshot.h"
#include "runtime/state_board.h"
#include "runtime/control_plane.h"

namespace pard {
namespace {

struct Pair {
  std::uint64_t a = 0;
  std::uint64_t b = 1;  // Invariant: b == 2 * a + 1 in every published version.
};

std::unique_ptr<const Pair> MakePair(std::uint64_t a) {
  auto p = std::make_unique<Pair>();
  p->a = a;
  p->b = 2 * a + 1;
  return p;
}

TEST(SnapshotCell, EpochStartsAtOneAndIncrementsPerPublish) {
  SnapshotCell<Pair> cell(MakePair(0));
  EXPECT_EQ(cell.Epoch(), 1u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    cell.Publish(MakePair(i));
    EXPECT_EQ(cell.Epoch(), 1u + i);
  }
}

TEST(SnapshotCell, ReadSeesLatestPublish) {
  SnapshotCell<Pair> cell(MakePair(7));
  EXPECT_EQ(cell.Read()->a, 7u);
  cell.Publish(MakePair(8));
  auto ref = cell.Read();
  EXPECT_EQ(ref->a, 8u);
  EXPECT_EQ((*ref).b, 17u);
  EXPECT_EQ(ref.epoch(), cell.Epoch());
}

TEST(SnapshotCell, ChurnWithoutReadersReclaimsEverything) {
  SnapshotCell<Pair> cell(MakePair(0));
  for (std::uint64_t i = 1; i <= 100; ++i) {
    cell.Publish(MakePair(i));
  }
  // With no claimed slot, every replaced version's grace period is already
  // over at the next Reclaim() — nothing may accumulate.
  EXPECT_EQ(cell.RetiredCount(), 0u);
  EXPECT_EQ(cell.ReclaimedCount(), 100u);
}

TEST(SnapshotCell, ReaderPinsVersionAcrossPublishes) {
  SnapshotCell<Pair> cell(MakePair(1));
  std::optional<SnapshotCell<Pair>::ReadRef> pinned(cell.Read());
  for (std::uint64_t i = 2; i <= 10; ++i) {
    cell.Publish(MakePair(i));
  }
  // The pinned version (epoch 1) blocks reclamation of every replacement
  // retired at or after its claim epoch — i.e. all of them.
  EXPECT_EQ((*pinned)->a, 1u);
  EXPECT_EQ((*pinned)->b, 3u);
  EXPECT_EQ(cell.RetiredCount(), 9u);
  EXPECT_EQ(cell.ReclaimedCount(), 0u);
  // A fresh read still sees the newest version while the old one is pinned.
  EXPECT_EQ(cell.Read()->a, 10u);
  pinned.reset();  // Release the slot...
  cell.Publish(MakePair(11));  // ...and the next publish sweeps the backlog.
  EXPECT_EQ(cell.ReclaimedCount(), 10u);
  EXPECT_EQ(cell.RetiredCount(), 0u);
}

TEST(SnapshotCell, ManySimultaneousRefsOnOneThread) {
  SnapshotCell<Pair> cell(MakePair(5));
  std::vector<SnapshotCell<Pair>::ReadRef> refs;
  for (int i = 0; i < 16; ++i) {
    refs.push_back(cell.Read());  // Each claims its own slot.
  }
  for (const auto& ref : refs) {
    EXPECT_EQ(ref->a, 5u);
  }
}

// The use-after-free hunt: readers spin dereferencing while the writer
// churns versions. Any premature reclaim is a torn invariant here and a
// hard error under the asan/tsan presets.
TEST(SnapshotCell, ConcurrentReadersUnderWriterChurn) {
  SnapshotCell<Pair> cell(MakePair(0));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&cell, &stop, &reads] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto ref = cell.Read();
        // Version consistency: both fields come from the same publish.
        ASSERT_EQ(ref->b, 2 * ref->a + 1);
        // Epoch monotonicity per reader.
        ASSERT_GE(ref.epoch(), last_epoch);
        last_epoch = ref.epoch();
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    cell.Publish(MakePair(i));
    if (i % 64 == 0) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(cell.Epoch(), 1001u);
  // All readers released: one more publish must drain the retired backlog.
  cell.Publish(MakePair(1001));
  EXPECT_EQ(cell.RetiredCount(), 0u);
  EXPECT_EQ(cell.ReclaimedCount(), 1001u);
}

#ifndef NDEBUG

TEST(LockOrder, InOrderAcquisitionPasses) {
  LockOrderGuard module(LockRank::kModule);
  LockOrderGuard shard(LockRank::kAdmissionShard);
  LockOrderGuard fate(LockRank::kFate);
}

TEST(LockOrder, OutOfOrderAcquisitionThrows) {
  LockOrderGuard shard(LockRank::kAdmissionShard);
  EXPECT_THROW(LockOrderGuard module(LockRank::kModule), CheckError);
  // The failed guard must not corrupt the stack: in-order still works.
  LockOrderGuard fate(LockRank::kFate);
}

TEST(LockOrder, EqualRankAcquisitionThrows) {
  // Two module locks at once would deadlock against a sibling doing the same
  // in the opposite order; the hierarchy forbids holding two equal ranks.
  LockOrderGuard module(LockRank::kModule);
  EXPECT_THROW(LockOrderGuard sibling(LockRank::kModule), CheckError);
}

TEST(LockOrder, ReleaseUnwindsTheStack) {
  {
    LockOrderGuard fate(LockRank::kFate);
  }
  LockOrderGuard module(LockRank::kModule);  // Fine: the stack is empty again.
}

#endif  // NDEBUG

// --- ControlPlane snapshot path --------------------------------------------

std::vector<ModuleState> WarmStates(int n, Rng* rng) {
  std::vector<ModuleState> states;
  for (int i = 0; i < n; ++i) {
    ModuleState s;
    s.module_id = i;
    s.batch_size = 8;
    s.batch_duration = 10 * kUsPerMs;
    s.avg_queue_delay = 2000.0;
    s.load_factor = 0.8;
    s.burstiness = 0.2;
    for (int j = 0; j < 512; ++j) {
      s.wait_samples.push_back(rng->Uniform(0.0, 10000.0));
    }
    std::sort(s.wait_samples.begin(), s.wait_samples.end());
    states.push_back(std::move(s));
  }
  return states;
}

TEST(ControlPlaneSnapshot, EpochAdvancesPerSync) {
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board(lv.NumModules());
  PardPolicy policy;
  ControlPlane control(&lv, &policy, &board);
  const std::uint64_t e0 = control.SnapshotEpoch();
  Rng rng(21);
  std::vector<ModuleState> states = WarmStates(lv.NumModules(), &rng);
  control.Sync(states, kUsPerSec);
  EXPECT_EQ(control.SnapshotEpoch(), e0 + 1);
  // Sync hands back the states the board replaced: the initial empty ones.
  ASSERT_EQ(states.size(), static_cast<std::size_t>(lv.NumModules()));
  EXPECT_TRUE(states[0].wait_samples.empty());
  states = WarmStates(lv.NumModules(), &rng);
  control.Sync(states, 2 * kUsPerSec);
  EXPECT_EQ(control.SnapshotEpoch(), e0 + 2);
  EXPECT_EQ(states[0].wait_samples.size(), 512u);  // The first sync's state.
}

// A policy that cannot snapshot its decisions cannot decide: the control
// plane refuses it up front, naming it, instead of serializing every
// decision.
TEST(ControlPlaneSnapshot, RejectsAPolicyWithoutAView) {
  class ViewlessPolicy : public DropPolicy {
   public:
    std::shared_ptr<const PolicyView> MakeView() override { return nullptr; }
    std::string Name() const override { return "viewless"; }
  };
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board(lv.NumModules());
  ViewlessPolicy policy;
  try {
    ControlPlane control(&lv, &policy, &board);
    FAIL() << "a viewless policy was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("viewless"), std::string::npos) << e.what();
  }
}

// The snapshot read path must make the same decisions as the policy's own
// view against the same published state — publishing a view may not change
// semantics, only contention. The reference is a second PardPolicy bound to
// its own board, published and synced identically, whose view is asked
// directly. Pinned on the deterministic upper-bound wait mode, so the parity
// is about the publish path and not about which Monte-Carlo stream each
// estimator's refresh history has consumed.
TEST(ControlPlaneSnapshot, SnapshotDecisionsMatchThePolicyOnAnIdenticalBoard) {
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board_plane(lv.NumModules());
  StateBoard board_direct(lv.NumModules());
  PardOptions upper;
  upper.estimator.wait_mode = EstimatorOptions::WaitMode::kUpper;
  PardPolicy policy_plane(upper);
  PardPolicy policy_direct(upper);
  ControlPlane plane(&lv, &policy_plane, &board_plane);
  policy_direct.Bind(&lv, &board_direct);

  Rng rng_a(33);
  Rng rng_b(33);  // Identical streams -> identical published states.
  std::vector<ModuleState> states = WarmStates(lv.NumModules(), &rng_a);
  plane.Sync(states, kUsPerSec);
  for (ModuleState& state : WarmStates(lv.NumModules(), &rng_b)) {
    board_direct.Publish(std::move(state));
  }
  policy_direct.OnSync(kUsPerSec);
  const std::shared_ptr<const PolicyView> direct_view = policy_direct.MakeView();

  std::vector<HopRecord> hops(static_cast<std::size_t>(lv.NumModules()));
  Request req;
  req.id = 1;
  req.slo = lv.slo();
  req.hops = HopSlots(hops.data(), hops.size());
  int drops = 0;
  for (int m = 0; m < lv.NumModules(); ++m) {
    for (Duration age = 0; age <= req.slo + 20 * kUsPerMs; age += 5 * kUsPerMs) {
      req.sent = kUsPerSec;
      req.deadline = req.sent + req.slo;
      const SimTime now = req.sent + age;
      AdmissionContext ctx;
      ctx.request = &req;
      ctx.module_id = m;
      ctx.now = now;
      ctx.batch_start = now;
      ctx.batch_duration = 10 * kUsPerMs;
      ctx.batch_size = 8;
      const bool snap = plane.ShouldDrop(ctx);
      const bool direct = direct_view->ShouldDrop(ctx);
      EXPECT_EQ(snap, direct) << "module " << m << " age " << age;
      drops += snap ? 1 : 0;
      EXPECT_EQ(plane.ChoosePopSide(m, now), direct_view->ChoosePopSide(m, now));
      EXPECT_EQ(plane.AdmitAtModule(req, m, now),
                direct_view->AdmitAtModule(req, m, now, nullptr));
    }
  }
  // The grid must exercise both outcomes, or the parity check is vacuous.
  EXPECT_GT(drops, 0);
}

}  // namespace
}  // namespace pard
