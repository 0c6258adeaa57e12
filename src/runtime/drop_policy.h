// Drop-policy interface.
//
// A policy decides at three points, all answered by the immutable
// PolicyView it publishes once per sync (MakeView):
//   1. ShouldDrop()    — the Request Broker decision at batch-entry time t_b
//                        (Fig. 5), when t_e and d_k are known exactly.
//   2. ChoosePopSide() — which end of the per-worker DEPQ the broker
//                        consumes next (arrival order vs LBF vs HBF).
//   3. AdmitAtModule() — enqueue-time admission (used by the DAGOR-style
//                        overload-control baseline to shed at ingress).
// Both substrates read those views through one ControlPlane
// (runtime/control_plane.h), whose sync calls OnSync(), RefreshEstimates()
// and MakeView() in that order, so policies update derived state (adaptive
// priority mode, dynamic budget splits) in OnSync() and copy it out in
// MakeView().
#ifndef PARD_RUNTIME_DROP_POLICY_H_
#define PARD_RUNTIME_DROP_POLICY_H_

#include <memory>
#include <string>

#include "common/time_types.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/request.h"
#include "runtime/request_queue.h"
#include "runtime/state_board.h"

namespace pard {

class Rng;
class ThreadPool;

// What a policy's estimator refresh actually did (see
// DropPolicy::RefreshEstimates); surfaced as control.refresh_* metrics.
struct PolicyRefreshStats {
  int refreshed = 0;  // estimator cache entries recomputed
  int skipped = 0;    // estimator cache entries reused unchanged
};

// Everything the Request Broker knows when deciding on one request.
struct AdmissionContext {
  const Request* request = nullptr;
  int module_id = -1;
  SimTime now = 0;            // == t_b, the moment of the decision.
  SimTime batch_start = 0;    // Expected t_e of the batch being formed.
  Duration batch_duration = 0;  // d_k at the module's planned batch size.
  int batch_size = 1;
};

// Immutable decision snapshot of a policy, valid for one sync interval.
//
// The control plane asks the policy for a fresh view after every sync, and
// the control loop hands that one view to every module; between syncs each
// module calls the view's const methods under its own serialization only,
// so in serve several module threads call one view at once. A view must
// therefore be self-contained: every decision input (estimates, budgets,
// priority sides, overload flags) is copied out of the policy at build
// time, and the const methods may not touch mutable policy or board state.
//
// Randomized admission (the DAGOR-style baseline's Bernoulli shed) needs an
// RNG the const view cannot own, so a view declares NeedsAdmissionRng() and
// the control plane hands AdmitAtModule() the admitting module's own RNG,
// which only that module's serialization draws from — no lock is shared.
class PolicyView {
 public:
  virtual ~PolicyView() = default;

  // Request Broker decision: true = drop the request now (it never enters
  // the forming batch and consumes no GPU time at this module).
  virtual bool ShouldDrop(const AdmissionContext& ctx) const = 0;

  // Queue-order decision; fixed per module until the next sync.
  virtual PopSide ChoosePopSide(int module_id, SimTime now) const {
    (void)module_id;
    (void)now;
    return PopSide::kOldest;
  }

  // Enqueue-time admission; false = shed before queueing. `rng` is non-null
  // iff NeedsAdmissionRng(): the admitting module's RNG, exclusively held
  // for this call.
  virtual bool AdmitAtModule(const Request& request, int module_id, SimTime now,
                             Rng* rng) const {
    (void)request;
    (void)module_id;
    (void)now;
    (void)rng;
    return true;
  }

  virtual bool NeedsAdmissionRng() const { return false; }
};

class DropPolicy {
 public:
  virtual ~DropPolicy() = default;

  // Called once by the control plane before any traffic; gives the policy
  // read access to the pipeline structure and the shared state board.
  virtual void Bind(const PipelineSpec* spec, const StateBoard* board) {
    spec_ = spec;
    board_ = board;
  }

  // Inert defaults, called by nothing in the program: every decision is read
  // from the PolicyView (see above). They exist only so that
  // perfbench/src/timed_policy.h, which still overrides them, compiles
  // until a benchmark change drops its overrides.
  virtual bool ShouldDrop(const AdmissionContext& ctx) {
    (void)ctx;
    return false;
  }
  virtual PopSide ChoosePopSide(int module_id, SimTime now) {
    (void)module_id;
    (void)now;
    return PopSide::kOldest;
  }
  virtual bool AdmitAtModule(const Request& request, int module_id, SimTime now) {
    (void)request;
    (void)module_id;
    (void)now;
    return true;
  }

  // Whether the broker may evict queued requests whose deadline has already
  // passed (they are unservable under any decision). Every dropping policy
  // wants this; the naive baseline — which never drops — returns false.
  virtual bool PurgeExpired() const { return true; }

  // Invoked right after every state-board sync.
  virtual void OnSync(SimTime now) { (void)now; }

  // Estimator refresh, invoked by the control plane between OnSync() and
  // MakeView() at every sync. Policies with an epoch-cached estimator
  // refresh it incrementally here (PARD fans dirty-module work across
  // `pool`; nullptr = run inline) so the following MakeView() is pure cache
  // reads.
  virtual PolicyRefreshStats RefreshEstimates(ThreadPool* pool) {
    (void)pool;
    return {};
  }

  // Builds an immutable decision snapshot of this policy's current state
  // (see PolicyView). The control plane calls this at construction and
  // after every RefreshEstimates(); every module then decides against the
  // returned view until the next sync hands it a new one. The default
  // returns nullptr, which the control plane rejects at construction: a
  // policy needs a view to decide.
  virtual std::shared_ptr<const PolicyView> MakeView() { return nullptr; }

  virtual std::string Name() const = 0;

 protected:
  const PipelineSpec* spec_ = nullptr;
  const StateBoard* board_ = nullptr;
};

}  // namespace pard

#endif  // PARD_RUNTIME_DROP_POLICY_H_
