#include "runtime/control_plane.h"

#include <utility>

#include "common/check.h"
#include "exec/thread_pool.h"

namespace pard {

ControlPlane::Options ControlPlane::RunOptions(const RuntimeOptions& runtime) {
  Options options;
  options.staleness_budget = runtime.resilience.staleness_budget;
  return options;
}

ControlPlane::ControlPlane(const PipelineSpec* spec, DropPolicy* policy, StateBoard* board,
                           Options options)
    : policy_(policy), board_(board), staleness_budget_(options.staleness_budget) {
  PARD_CHECK(spec != nullptr && policy_ != nullptr && board_ != nullptr);
  PARD_CHECK(options.staleness_budget >= 0);
  PARD_CHECK(options.refresh_threads >= 0);
  policy_->Bind(spec, board_);
  purge_expired_ = policy_->PurgeExpired();
  if (options.parallel_refresh) {
    refresh_pool_ =
        std::make_unique<ThreadPool>(ThreadPool::ResolveJobs(options.refresh_threads));
  }
  // Stamped at t=0: with a staleness budget the first sync must land within
  // it or the decisions degrade, exactly as they would under a stalled sync.
  BuildSnapshot(0);
}

ControlPlane::ControlPlane(const PipelineSpec* spec, DropPolicy* policy, StateBoard* board)
    : ControlPlane(spec, policy, board, Options()) {}

ControlPlane::~ControlPlane() = default;

void ControlPlane::BuildSnapshot(SimTime now) {
  std::shared_ptr<const PolicyView> view = policy_->MakeView();
  // Decisions dereference the view unconditionally.
  PARD_CHECK_MSG(view != nullptr,
                 "policy '" << policy_->Name()
                            << "' returns no PolicyView; deciding needs one (DropPolicy::MakeView)");
  snapshot_ = ControlSnapshot{now, std::move(view)};
  ++epoch_;
}

// Graceful degradation: the estimator's decisions are only as good as the
// snapshot they read. When the sync stalls (stall-sync chaos, or a genuinely
// wedged control plane) the snapshot's view describes a fleet that no longer
// exists, so past the staleness budget the decisions stop trusting it and fall
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

bool ControlPlane::ShouldDrop(const ControlSnapshot& snap, const AdmissionContext& ctx) {
  if (Stale(snap, ctx.now)) {
    return ctx.batch_start + ctx.batch_duration > ctx.request->Deadline();
  }
  return snap.view->ShouldDrop(ctx);
}

PopSide ControlPlane::ChoosePopSide(const ControlSnapshot& snap, int module_id, SimTime now) {
  if (Stale(snap, now)) {
    return PopSide::kOldest;
  }
  return snap.view->ChoosePopSide(module_id, now);
}

bool ControlPlane::AdmitAtModule(const ControlSnapshot& snap, const Request& request,
                                 int module_id, SimTime now, Rng* rng) {
  if (Stale(snap, now)) {
    return request.RemainingBudget(now) > 0;
  }
  if (!snap.view->NeedsAdmissionRng()) {
    return snap.view->AdmitAtModule(request, module_id, now, nullptr);
  }
  PARD_CHECK(rng != nullptr);
  return snap.view->AdmitAtModule(request, module_id, now, rng);
}

PolicyRefreshStats ControlPlane::Sync(std::vector<ModuleState>& states, SimTime now) {
  // Every broker decision reads a snapshot its module holds, so the board
  // and policy have exactly one mutating thread — this one — and the whole
  // publish → OnSync → refresh → rebuild sequence needs no mutex. Modules
  // keep deciding against the previous snapshot until the control loop
  // hands them this one.
  for (ModuleState& state : states) {
    state = board_->Publish(std::move(state));
  }
  policy_->OnSync(now);
  const PolicyRefreshStats stats = policy_->RefreshEstimates(refresh_pool_.get());
  BuildSnapshot(now);
  return stats;
}

}  // namespace pard
