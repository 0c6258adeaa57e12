// The control plane: the State Planner's sync and the Request Broker's
// decisions, one implementation for both substrates.
//
// PARD's broker evaluates Eq. 3 at t_b against an L_sub the State Planner
// refreshes once per sync (§4.2, §5.4). Each run's ControlLoop
// (runtime/control_loop.h) owns one ControlPlane in both substrates: its
// sync job calls Sync(), and every ModuleRuntime/Worker asks it for
// purge-expired, pop side, the drop decision at batch entry and
// enqueue-time admission. A policy therefore decides in one place only, its
// immutable PolicyView. The work splits by write frequency:
//
//   READ PATH (hot, every request): ShouldDrop / ChoosePopSide /
//   AdmitAtModule decide against the ControlSnapshot the deciding module
//   holds (ModuleRuntime::control_snapshot()), through the policy's
//   PolicyView. Every decision already runs under its module's
//   serialization (the simulator's event loop, or serve's module mutex), so
//   the read takes no lock and pins nothing; the only shared write is the
//   stale-fallback count, taken only when the snapshot is stale.
//
//   WRITE PATH (cold, once per sync period): Sync() publishes the module
//   states to the StateBoard, runs the policy's OnSync(), refreshes the
//   policy's estimator incrementally (RefreshEstimates — only modules whose
//   inputs moved are re-drawn, optionally fanned across the refresh pool)
//   and builds the next ControlSnapshot. The control loop then enters each
//   module, under that module's serialization, and stores the snapshot in
//   it: the module's side of the paper's state exchange. No decision ever
//   touches the board or the policy and Sync has exactly one caller (the
//   simulator's event loop, or serve's control thread), so all of that runs
//   without a lock and a slow refresh never stalls a broker decision.
//
//   ADMISSION RANDOMNESS: a view that draws (the DAGOR baseline's Bernoulli
//   shed) draws from the RNG its one caller, ModuleRuntime::Receive, passes:
//   the module's own, used only under the module's serialization.
//
// Every policy must provide a view: construction rejects a policy whose
// MakeView() returns null, naming it. All in-tree policies do.
//
// Locking: the control plane takes no lock. The sync path copies module
// state first and hands the snapshot over last, one module lock at a time
// (common/lock_order.h), and runs Sync() between them holding nothing.
// TSan-cleanliness of the serve suite pins the whole contract.
#ifndef PARD_RUNTIME_CONTROL_PLANE_H_
#define PARD_RUNTIME_CONTROL_PLANE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/drop_policy.h"
#include "runtime/runtime_options.h"
#include "runtime/state_board.h"

namespace pard {

class Rng;
class ThreadPool;

// One sync interval's frozen control state: the policy's immutable decision
// view and when it was published. Each module holds a copy; every module
// holding one sync's snapshot shares its one view.
struct ControlSnapshot {
  // Virtual time at which Sync() built this snapshot (0 for the initial
  // snapshot). Decisions compare it against the staleness budget to detect
  // a dead or stalled sync.
  SimTime published_at = 0;
  std::shared_ptr<const PolicyView> view;
};

class ControlPlane {
 public:
  struct Options {
    // Graceful degradation: when > 0 and the module's snapshot's published_at
    // is older than this, broker decisions fall back to a conservative
    // static rule instead of trusting a stale estimator (see the reader
    // implementations for the exact rules). 0 disables the check.
    Duration staleness_budget = 0;
    // Fan the policy's incremental estimator refresh across a thread pool
    // during Sync() (per-module forked RNG streams keep the result
    // identical at any thread count). false (the default) runs the refresh
    // inline on the syncing thread; it stays incremental either way.
    bool parallel_refresh = false;
    // Refresh-pool threads; 0 = one per hardware thread
    // (ThreadPool::ResolveJobs). Ignored unless parallel_refresh.
    int refresh_threads = 0;
  };
  // A run's options: the staleness budget from `runtime`, and the refresh
  // inline, so no pool thread starts unless the caller asks.
  static Options RunOptions(const RuntimeOptions& runtime);

  // `policy` and `board` must outlive the control plane. Binds the policy to
  // the spec and board, and builds the initial snapshot, which each module
  // takes when it is constructed. Throws CheckError when the policy provides
  // no PolicyView.
  ControlPlane(const PipelineSpec* spec, DropPolicy* policy, StateBoard* board,
               Options options);
  // Default options (no default argument: Options' member initializers are
  // not usable until the enclosing class is complete).
  ControlPlane(const PipelineSpec* spec, DropPolicy* policy, StateBoard* board);
  ~ControlPlane();

  // --- Request Broker decisions ---------------------------------------------
  // Each decides against `snap`, the snapshot the deciding module holds,
  // under that module's serialization.
  bool ShouldDrop(const ControlSnapshot& snap, const AdmissionContext& ctx);
  PopSide ChoosePopSide(const ControlSnapshot& snap, int module_id, SimTime now);
  // `rng`: the caller's own, for a view that NeedsAdmissionRng().
  bool AdmitAtModule(const ControlSnapshot& snap, const Request& request, int module_id,
                     SimTime now, Rng* rng);
  // A fixed per-policy property, cached at construction so every batch
  // formation does not ask the view just to re-read it.
  bool PurgeExpired() const { return purge_expired_; }

  // State sync: publishes every module state, lets the policy react,
  // refreshes its estimator incrementally, then builds the next snapshot
  // (snapshot()), and returns what the refresh did. Each states[i] comes
  // back holding the state the board replaced, so the caller can refill its
  // buffers at the next sync instead of allocating. Single caller only —
  // the syncing thread owns the board, the policy and snapshot().
  PolicyRefreshStats Sync(std::vector<ModuleState>& states, SimTime now);

  // The last sync's snapshot, or the initial one (published_at 0) before
  // the first. Read it on the syncing thread, or before that thread starts.
  const ControlSnapshot& snapshot() const { return snapshot_; }
  // Snapshot epochs are monotone: 2 for the initial snapshot, +1 per Sync
  // (the numbering control.snapshot_epoch and the sync_epoch trace instant
  // export). Syncing thread only, like snapshot().
  std::uint64_t SnapshotEpoch() const { return epoch_; }
  // Broker decisions answered by the conservative static fallback because
  // the module's snapshot exceeded the staleness budget.
  std::uint64_t StaleFallbacks() const {
    return stale_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  // Builds the snapshot of the current policy state, stamped `now`, as the
  // next epoch. Caller is the syncing thread (or the constructor): the
  // policy has no other readers or writers.
  void BuildSnapshot(SimTime now);
  // True when the staleness budget is enabled and `snap` is too old at
  // `now`; counts the fallback.
  bool Stale(const ControlSnapshot& snap, SimTime now);

  DropPolicy* policy_;
  StateBoard* board_;
  bool purge_expired_ = false;
  Duration staleness_budget_ = 0;
  std::atomic<std::uint64_t> stale_fallbacks_{0};
  // Workers for the policy's incremental estimator refresh; null when
  // Options::parallel_refresh is off (refresh runs inline on the syncing
  // thread). Owned here so the pool outlives every Sync.
  std::unique_ptr<ThreadPool> refresh_pool_;
  ControlSnapshot snapshot_;
  std::uint64_t epoch_ = 1;  // BuildSnapshot bumps it; the initial one makes it 2.
};

}  // namespace pard

#endif  // PARD_RUNTIME_CONTROL_PLANE_H_
