// The control plane: the State Planner's sync and the Request Broker's
// decisions, one implementation for both substrates.
//
// PARD's broker evaluates Eq. 3 at t_b against an L_sub the State Planner
// refreshes once per sync (§4.2, §5.4). Both runtimes own one ControlPlane:
// their sync tick calls Sync(), and every ModuleRuntime/Worker asks it for
// purge-expired, pop side, the drop decision at batch entry and
// enqueue-time admission. A policy therefore decides in one place only, its
// immutable PolicyView. The work splits by write frequency:
//
//   READ PATH (hot, every request): ShouldDrop / ChoosePopSide /
//   AdmitAtModule pin the current ControlSnapshot through an epoch-based
//   SnapshotCell (runtime/snapshot.h) — one CAS, no mutex — and decide
//   against the policy's PolicyView. Decisions within one pin are mutually
//   consistent: they all see the same sync's state.
//
//   WRITE PATH (cold, once per sync period): Sync() publishes the module
//   states to the StateBoard, runs the policy's OnSync(), refreshes the
//   policy's estimator incrementally (RefreshEstimates — only modules whose
//   inputs moved are re-drawn, optionally fanned across the refresh pool),
//   builds the next ControlSnapshot and publishes it with one SnapshotCell
//   store. No reader ever touches the board or the policy and Sync has
//   exactly one caller (the simulator's event loop, or serve's control
//   thread), so all of that runs without a lock and a slow refresh never
//   stalls a broker decision. Retired snapshots are reclaimed once no reader
//   pins them.
//
//   SHARDED RESIDUE: policies whose admission needs randomness (the DAGOR
//   baseline's Bernoulli shed) draw from per-shard RNGs behind striped
//   mutexes picked by request id, so admission entropy scales with shards
//   instead of serializing globally. The simulator draws from the same
//   shards, in event order.
//
// Every policy must provide a view: construction rejects a policy whose
// MakeView() returns null, naming it. All in-tree policies do.
//
// Lock ordering (enforced in debug builds by common/lock_order.h): a serve
// module thread may take an admission-shard mutex while holding its module
// lock, never the reverse. The sync path snapshots module state first (one
// module lock at a time) and publishes second, holding nothing. TSan-
// cleanliness of the serve suite pins the whole contract.
#ifndef PARD_RUNTIME_CONTROL_PLANE_H_
#define PARD_RUNTIME_CONTROL_PLANE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "runtime/drop_policy.h"
#include "runtime/runtime_options.h"
#include "runtime/snapshot.h"
#include "runtime/state_board.h"

namespace pard {

class ThreadPool;

// One sync interval's frozen control state: the policy's immutable decision
// view and when it was published.
struct ControlSnapshot {
  // Virtual time at which Sync() published this snapshot (0 for the initial
  // snapshot). Readers compare it against the staleness budget to detect a
  // dead or stalled sync.
  SimTime published_at = 0;
  std::shared_ptr<const PolicyView> view;
};

class ControlPlane {
 public:
  struct Options {
    // Seeds the per-shard admission RNG forks.
    std::uint64_t seed = 1234;
    // Graceful degradation: when > 0 and the pinned snapshot's published_at
    // is older than this, broker decisions fall back to a conservative
    // static rule instead of trusting a stale estimator (see the reader
    // implementations for the exact rules). 0 disables the check.
    Duration staleness_budget = 0;
    // Fan the policy's incremental estimator refresh across a thread pool
    // during Sync() (per-module forked RNG streams keep the result
    // identical at any thread count). false = run the refresh inline on the
    // syncing thread; the refresh itself stays incremental either way.
    bool parallel_refresh = true;
    // Refresh-pool threads; 0 = one per hardware thread
    // (ThreadPool::ResolveJobs). Ignored unless parallel_refresh.
    int refresh_threads = 0;
  };
  // A run's options: the seed and staleness budget from `runtime`, and the
  // refresh inline, so no pool thread starts unless the caller asks.
  static Options RunOptions(const RuntimeOptions& runtime);

  // Striped admission-RNG shards for randomized admission policies.
  static constexpr int kAdmissionShards = 8;

  // `policy` and `board` must outlive the control plane. Binds the policy to
  // the spec and board, and publishes the initial snapshot so readers never
  // see an empty cell. Throws CheckError when the policy provides no
  // PolicyView.
  ControlPlane(const PipelineSpec* spec, DropPolicy* policy, StateBoard* board,
               Options options);
  // Default options (no default argument: Options' member initializers are
  // not usable until the enclosing class is complete).
  ControlPlane(const PipelineSpec* spec, DropPolicy* policy, StateBoard* board);
  ~ControlPlane();

  // --- Request Broker decisions (lock-free snapshot reads) ----------------
  bool ShouldDrop(const AdmissionContext& ctx);
  PopSide ChoosePopSide(int module_id, SimTime now);
  bool AdmitAtModule(const Request& request, int module_id, SimTime now);
  // A fixed per-policy property, cached at construction so every batch
  // formation does not pin a snapshot just to re-read it.
  bool PurgeExpired() const { return purge_expired_; }

  // State sync: publishes every module state, lets the policy react,
  // refreshes its estimator incrementally, then swaps in the next snapshot,
  // and returns what the refresh did. Each states[i] comes back holding the
  // state the board replaced, so the caller can refill its buffers at the
  // next sync instead of allocating. Single caller only — the syncing
  // thread owns both the board and the snapshot cell's writer side.
  PolicyRefreshStats Sync(std::vector<ModuleState>& states, SimTime now);

  // Snapshot epochs are monotone: 2 once constructed (the cell's placeholder,
  // then the initial snapshot), +1 per Sync.
  std::uint64_t SnapshotEpoch() const { return snapshot_.Epoch(); }
  // Broker decisions answered by the conservative static fallback because
  // the pinned snapshot exceeded the staleness budget.
  std::uint64_t StaleFallbacks() const {
    return stale_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) AdmissionShard {
    std::mutex mu;
    Rng rng{1};
  };

  // Builds the snapshot for the current policy state, stamped with the
  // publish time. Caller is the syncing thread (or the constructor): the
  // policy has no other readers or writers.
  std::unique_ptr<const ControlSnapshot> BuildSnapshot(SimTime now);
  // True when the staleness budget is enabled and `snap` is too old at
  // `now`; counts the fallback.
  bool Stale(const ControlSnapshot& snap, SimTime now);
  AdmissionShard& ShardFor(const Request& request) {
    return shards_[static_cast<std::size_t>(request.id) % shards_.size()];
  }

  DropPolicy* policy_;
  StateBoard* board_;
  bool purge_expired_ = false;
  Duration staleness_budget_ = 0;
  std::atomic<std::uint64_t> stale_fallbacks_{0};
  std::array<AdmissionShard, kAdmissionShards> shards_;
  // Workers for the policy's incremental estimator refresh; null when
  // Options::parallel_refresh is off (refresh runs inline on the syncing
  // thread). Owned here so the pool outlives every Sync.
  std::unique_ptr<ThreadPool> refresh_pool_;
  SnapshotCell<ControlSnapshot> snapshot_;
};

}  // namespace pard

#endif  // PARD_RUNTIME_CONTROL_PLANE_H_
