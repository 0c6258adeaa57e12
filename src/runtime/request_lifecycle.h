// Request lifecycle: the rules a request follows from injection to its one
// terminal fate — completed, late, or dropped for a named DropReason (a late
// completion counts as a drop, §5.1). PipelineRuntime (the simulator) and
// ServeRuntime (real threads) each build one from (spec, options) and call
// it instead of restating the rules, so stamping, DAG merge and routing,
// fates and their accounting (fate.*, tenant.<name>.*, resilience.retries
// and the trace fate/retry instants, named alike in both) and the retry
// verdict are written once. The runtimes keep what really differs: how time
// passes, the simulator's network-delay hop and serve's broker pool. Queues
// and batching are shared too, in ModuleRuntime and Worker, and the periodic
// control jobs in ControlLoop.
//
// Both runtimes allocate their requests here too: each request and its hop
// slots are one record in the run's RequestArena (runtime/request_arena.h).
// And both end a run here: EndRun resolves what is still in flight, then
// checks the log (CheckRunInvariants below), so a run that breaks a rule
// throws instead of skewing its metrics.
//
// Concurrency. The lifecycle takes no lock; its methods fall in three groups.
//   - Injection (NewRequest, Inject, requests()) belongs to one thread: the
//     simulator, or the thread running serve's RunTrace. Other threads read
//     the log only after the run.
//   - MergeReady writes hops[k].merge_arrivals, under module k's
//     serialization: ModuleRuntime::Receive calls it first.
//   - Fates (Drop, Complete) may come from any thread at any time. Each
//     claims the fate (Request::ClaimFate); the one winner writes the
//     terminal fields, bumps the lock-free counters, emits to its per-thread
//     trace ring and takes the request off InFlight(). NoteRetry bumps the
//     same counters and req.retry_count, written only by the thread that
//     owns the stranded batch. EndRun runs after every thread has joined.
#ifndef PARD_RUNTIME_REQUEST_LIFECYCLE_H_
#define PARD_RUNTIME_REQUEST_LIFECYCLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/tenant_governor.h"
#include "obs/drop_reason.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/request.h"
#include "runtime/request_arena.h"
#include "runtime/runtime_options.h"
#include "runtime/state_board.h"

namespace pard {

class Counter;  // obs/metrics.h

class RequestLifecycle {
 public:
  // Resolves the metric instruments.
  RequestLifecycle(const PipelineSpec& spec, const RuntimeOptions& options);

  // --- Injection (one thread) ---------------------------------------------
  // A fresh request with one hop slot per module, from the run's arena.
  RequestPtr NewRequest() { return pard::NewRequest(arena_, spec_.NumModules()); }
  // Stamps a request fresh from NewRequest as sent at `now`, draws its
  // dynamic path, and appends it to the request log. Returns false when the
  // tenant governor sheds it at ingress; the caller then drops it
  // (kTenantShed) at the source instead of delivering it.
  bool Inject(const RequestPtr& req, SimTime now);
  // Every injected request, in injection order.
  const std::vector<RequestPtr>& requests() const { return requests_; }
  // Injected requests that have no fate yet (any thread).
  std::size_t InFlight() const { return in_flight_.load(std::memory_order_acquire); }

  // --- Routing --------------------------------------------------------------
  // Counts one delivery of `req` to `module_id` and says whether it may
  // enter the module now, under that module's serialization. Always true for
  // a module with one predecessor. At a DAG merge, true only once every
  // expected branch has arrived — all predecessors under static routing,
  // the drawn ones under dynamic paths — and no sibling branch has already
  // resolved the request.
  bool MergeReady(Request& req, int module_id) const;
  // Routes a request that finished `module_id`: calls deliver(sub) for each
  // successor it takes (only the drawn branch at a dynamic-path fork) and
  // returns true, or returns false at a sink, where the request completes.
  template <typename Deliver>
  bool Forward(const Request& req, int module_id, Deliver&& deliver) const {
    const ModuleSpec& m = spec_.Module(module_id);
    if (req.dynamic_path && m.subs.size() > 1) {
      const int choice = req.hops[static_cast<std::size_t>(module_id)].branch_choice;
      deliver(m.subs[static_cast<std::size_t>(choice)]);
      return true;
    }
    for (int sub : m.subs) {
      deliver(sub);
    }
    return !m.subs.empty();
  }

  // --- Fates (any thread) ---------------------------------------------------
  // Each claims the request's fate and, when it wins, records it: the
  // terminal fields, the fate counters, the sampled trace instant and
  // InFlight(). Returns false, changing nothing, when the request already
  // has a fate.
  // Dropped at `module_id` for `reason`.
  bool Drop(Request& req, int module_id, SimTime now, DropReason reason);
  // Leaving a sink: kCompleted within the deadline, else kLate (kSloLate).
  bool Complete(Request& req, SimTime now);
  // End of run, with every thread joined: resolves each request still in
  // flight as kLate / kDrainAbandoned so conservation holds, and counts it;
  // then checks the log (CheckRunInvariants), throwing CheckError on a
  // broken rule.
  void EndRun(SimTime now);

  // --- Resilience -----------------------------------------------------------
  // Verdict for a request stranded at `module_id` by a failed or hung
  // worker: DropReason::kNone when it may be re-enqueued there (retries are
  // enabled, it has attempts left, and its remaining budget still covers the
  // stage's planned batch), else the reason to drop it.
  DropReason RetryVerdict(const Request& req, int module_id, SimTime now) const;
  // Accounts one re-enqueue of `req` at `module_id` (bumps req.retry_count).
  void NoteRetry(Request& req, int module_id, SimTime now);
  // Total re-enqueues so far.
  std::uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }

  // --- Tenant governor ------------------------------------------------------
  // Recomputes the tenant shed plan from the module states about to be
  // published (no-op when untenanted). Once per sync tick.
  void ResyncGovernor(const std::vector<ModuleState>& states);

  // --- Batch plan -----------------------------------------------------------
  const std::vector<int>& batch_sizes() const { return batch_sizes_; }
  // d(batch) of `module_id` at its planned batch size.
  Duration PlannedBatchDuration(int module_id) const {
    return planned_batch_duration_[static_cast<std::size_t>(module_id)];
  }

 private:
  void AssignDynamicPath(Request& req);
  // Counts the fate `req` just took and takes it off InFlight().
  void Count(const Request& req);
  // Count, then emit the fate's sampled trace instant.
  void RecordFate(const Request& req);

  PipelineSpec spec_;
  RuntimeOptions options_;
  std::vector<int> batch_sizes_;
  std::vector<Duration> planned_batch_duration_;
  // spec_.TopoOrder(), computed once: dynamic paths are drawn along it.
  std::vector<int> topo_order_;
  // Weighted ingress governor; null when options.tenants is empty, which
  // keeps untenanted runs bit-identical to the historical path.
  std::unique_ptr<TenantGovernor> governor_;

  // Injection state: the injecting thread's alone. Every RequestPtr shares
  // the arena's control block, so the arena outlives the lifecycle while
  // any request does.
  std::shared_ptr<RequestArena> arena_ = std::make_shared<RequestArena>();
  Rng rng_;
  std::uint64_t next_request_id_ = 1;
  std::vector<RequestPtr> requests_;

  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> retries_{0};
  // Pre-resolved instruments (null / empty when options.metrics is null).
  // Tenant tallies are indexed by tenant.
  Counter* completed_counter_ = nullptr;
  Counter* drop_reason_counters_[kNumDropReasons] = {};
  Counter* retry_counter_ = nullptr;
  std::vector<Counter*> tenant_completed_;
  std::vector<Counter*> tenant_dropped_;
};

// The rules a finished run's request log obeys, checked by both runtimes in
// EndRun, in every build:
//   1. Every request is terminal; drop_reason is kNone exactly when it does
//      not count as dropped; drop_module is a module id exactly when the fate
//      is kDropped, else -1.
//   2. Hop stamps are monotone, -1 meaning unset: sent <= arrive <=
//      batch_entry <= exec_start <= exec_end, no set stamp after an unset
//      one, and `executed` exactly when exec_end is set.
//   3. finish >= sent. A completion (kCompleted, or kLate for kSloLate) met
//      its deadline exactly when kCompleted, and executed every module on its
//      path: all of them, or under dynamic paths the source and each module
//      that expects an arrival.
//   4. In log order ids strictly increase and sent never decreases.
//   5. The tenant tag is -1 without a catalog (num_tenants 0), else in
//      [0, num_tenants).
// Throws CheckError naming each broken rule with its count and the first
// offending request id and module. One pass; allocates nothing when every
// rule holds.
void CheckRunInvariants(const std::vector<RequestPtr>& requests, const PipelineSpec& spec,
                        std::size_t num_tenants);

}  // namespace pard

#endif  // PARD_RUNTIME_REQUEST_LIFECYCLE_H_
