#include "runtime/control_plane.h"

#include <string>
#include <utility>

#include "common/check.h"
#include "common/lock_order.h"
#include "exec/thread_pool.h"

namespace pard {

ControlPlane::Options ControlPlane::RunOptions(const RuntimeOptions& runtime) {
  Options options;
  options.seed = runtime.seed;
  options.staleness_budget = runtime.resilience.staleness_budget;
  options.parallel_refresh = false;
  return options;
}

ControlPlane::ControlPlane(const PipelineSpec* spec, DropPolicy* policy, StateBoard* board,
                           Options options)
    : policy_(policy),
      board_(board),
      staleness_budget_(options.staleness_budget),
      snapshot_(std::make_unique<const ControlSnapshot>()) {
  PARD_CHECK(spec != nullptr && policy_ != nullptr && board_ != nullptr);
  PARD_CHECK(options.staleness_budget >= 0);
  PARD_CHECK(options.refresh_threads >= 0);
  policy_->Bind(spec, board_);
  purge_expired_ = policy_->PurgeExpired();
  Rng seeder(options.seed);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].rng = seeder.Fork("admission-shard:" + std::to_string(i));
  }
  if (options.parallel_refresh) {
    refresh_pool_ =
        std::make_unique<ThreadPool>(ThreadPool::ResolveJobs(options.refresh_threads));
  }
  // Replace the placeholder published at member construction with a real
  // snapshot (the policy is bound now, so it can build a view). Stamped at
  // t=0: with a staleness budget the first sync must land within it or the
  // readers degrade, exactly as they would under a stalled sync.
  auto initial = BuildSnapshot(0);
  PARD_CHECK_MSG(initial->view != nullptr,
                 "policy '" << policy_->Name()
                            << "' returns no PolicyView; deciding needs one (DropPolicy::MakeView)");
  snapshot_.Publish(std::move(initial));
}

ControlPlane::ControlPlane(const PipelineSpec* spec, DropPolicy* policy, StateBoard* board)
    : ControlPlane(spec, policy, board, Options()) {}

ControlPlane::~ControlPlane() = default;

std::unique_ptr<const ControlSnapshot> ControlPlane::BuildSnapshot(SimTime now) {
  auto snap = std::make_unique<ControlSnapshot>();
  snap->published_at = now;
  snap->view = policy_->MakeView();
  return snap;
}

// Graceful degradation: the estimator's decisions are only as good as the
// snapshot they read. When the sync stalls (stall-sync chaos, or a genuinely
// wedged control plane) the snapshot's view describes a fleet that no longer
// exists, so past the staleness budget the readers stop trusting it and fall
// back to a conservative static rule keyed only to request-local facts
// (deadline arithmetic). The rules are deliberately minimal:
//   ShouldDrop     — drop only requests that provably cannot finish this
//                    stage by their deadline (batch_start + batch_duration
//                    past the deadline); never shed speculatively.
//   AdmitAtModule  — admit anything with remaining deadline budget.
//   ChoosePopSide  — FIFO (oldest first), the no-information default.
// Each fallback decision is counted.
bool ControlPlane::Stale(const ControlSnapshot& snap, SimTime now) {
  if (staleness_budget_ <= 0 || now - snap.published_at <= staleness_budget_) {
    return false;
  }
  stale_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ControlPlane::ShouldDrop(const AdmissionContext& ctx) {
  auto snap = snapshot_.Read();
  if (Stale(*snap, ctx.now)) {
    return ctx.batch_start + ctx.batch_duration > ctx.request->deadline;
  }
  return snap->view->ShouldDrop(ctx);
}

PopSide ControlPlane::ChoosePopSide(int module_id, SimTime now) {
  auto snap = snapshot_.Read();
  if (Stale(*snap, now)) {
    return PopSide::kOldest;
  }
  return snap->view->ChoosePopSide(module_id, now);
}

bool ControlPlane::AdmitAtModule(const Request& request, int module_id, SimTime now) {
  auto snap = snapshot_.Read();
  if (Stale(*snap, now)) {
    return request.RemainingBudget(now) > 0;
  }
  if (!snap->view->NeedsAdmissionRng()) {
    return snap->view->AdmitAtModule(request, module_id, now, nullptr);
  }
  AdmissionShard& shard = ShardFor(request);
  LockOrderGuard order(LockRank::kAdmissionShard);
  std::lock_guard<std::mutex> lock(shard.mu);
  return snap->view->AdmitAtModule(request, module_id, now, &shard.rng);
}

PolicyRefreshStats ControlPlane::Sync(std::vector<ModuleState>& states, SimTime now) {
  // Every broker decision reads published snapshots, so the board and policy
  // have exactly one mutating thread — this one — and the whole publish →
  // OnSync → refresh → rebuild sequence needs no mutex. Readers keep
  // deciding against the previous snapshot until the single Publish() below
  // swaps in the new one.
  for (ModuleState& state : states) {
    state = board_->Publish(std::move(state));
  }
  policy_->OnSync(now);
  const PolicyRefreshStats stats = policy_->RefreshEstimates(refresh_pool_.get());
  auto snap = BuildSnapshot(now);
  // Readers dereference the view unconditionally.
  PARD_CHECK_MSG(snap->view != nullptr,
                 "policy '" << policy_->Name() << "' stopped returning a PolicyView");
  snapshot_.Publish(std::move(snap));
  return stats;
}

}  // namespace pard
