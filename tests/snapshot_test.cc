// ModuleLockGuard, and the ControlPlane's snapshots: their epochs, and
// decisions against the snapshot a module holds.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/lock_order.h"
#include "common/rng.h"
#include "core/pard_policy.h"
#include "pipeline/apps.h"
#include "runtime/control_plane.h"
#include "runtime/request_arena.h"
#include "runtime/state_board.h"

namespace pard {
namespace {

#ifndef NDEBUG

TEST(LockOrder, SecondModuleLockThrows) {
  // Two module locks at once would deadlock against a sibling doing the same
  // in the opposite order.
  ModuleLockGuard module;
  EXPECT_THROW(ModuleLockGuard sibling, CheckError);
}

TEST(LockOrder, ReleasedModuleLockAllowsTheNext) {
  {
    ModuleLockGuard module;
  }
  ModuleLockGuard next;  // Fine: the first was released.
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
  EXPECT_EQ(e0, 2u);  // The numbering control.snapshot_epoch exports.
  EXPECT_EQ(control.snapshot().published_at, 0);
  Rng rng(21);
  std::vector<ModuleState> states = WarmStates(lv.NumModules(), &rng);
  control.Sync(states, kUsPerSec);
  EXPECT_EQ(control.SnapshotEpoch(), e0 + 1);
  EXPECT_EQ(control.snapshot().published_at, kUsPerSec);
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

// Deciding against the plane's snapshot must make the same decisions as the
// policy's own view against the same published state — handing a view to
// the modules may not change semantics. The reference is a second
// PardPolicy bound to its own board, published and synced identically,
// whose view is asked directly. Pinned on the deterministic upper-bound wait mode, so the parity
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
  const ControlSnapshot held = plane.snapshot();  // What each module takes.

  const RequestPtr owned = NewRequest(std::make_shared<RequestArena>(), lv.NumModules());
  Request& req = *owned;
  req.id = 1;
  req.slo = lv.slo();
  int drops = 0;
  for (int m = 0; m < lv.NumModules(); ++m) {
    for (Duration age = 0; age <= req.slo + 20 * kUsPerMs; age += 5 * kUsPerMs) {
      req.sent = kUsPerSec;
      const SimTime now = req.sent + age;
      AdmissionContext ctx;
      ctx.request = &req;
      ctx.module_id = m;
      ctx.now = now;
      ctx.batch_start = now;
      ctx.batch_duration = 10 * kUsPerMs;
      ctx.batch_size = 8;
      const bool snap = plane.ShouldDrop(held, ctx);
      const bool direct = direct_view->ShouldDrop(ctx);
      EXPECT_EQ(snap, direct) << "module " << m << " age " << age;
      drops += snap ? 1 : 0;
      EXPECT_EQ(plane.ChoosePopSide(held, m, now), direct_view->ChoosePopSide(m, now));
      EXPECT_EQ(plane.AdmitAtModule(held, req, m, now, nullptr),
                direct_view->AdmitAtModule(req, m, now, nullptr));
    }
  }
  // The grid must exercise both outcomes, or the parity check is vacuous.
  EXPECT_GT(drops, 0);
}

}  // namespace
}  // namespace pard
