// Tenant governor: weighted cross-tenant admission at ingress.
//
// PARD's broker predicate maximizes goodput for one SLO class. With a
// tenant catalog (pipeline/tenant_spec.h) the objective becomes *weighted
// global* goodput: under overload, capacity freed by shedding a low-weight
// tenant's request completes higher-weight ones instead. The governor is
// the ingress half of that decision; the per-request half rides on the
// existing broker path for free, because each request's SLO is stamped
// per-tenant at injection (slo_scale × pipeline SLO) and PardPolicy's
// predicate reads `req.slo`.
//
// Mechanism. Each sync tick the governor reads the ModuleStates about to be
// published and computes the fleet's worst load factor mu. When mu > 1
// the fleet cannot serve everything, so a fraction f = 1 - 1/mu of the
// offered stream must go; the governor assigns that shed budget greedily to
// the LOWEST-weight tenants first, never pushing a tenant's admit
// probability below its admit_floor (the fairness bound pinned by
// tests/tenant_test.cc). The per-tenant admit probabilities are published
// as atomic thresholds.
//
// Determinism + bit-identity. Tenant assignment and the admit draw are pure
// splitmix64 hashes of (request id, seed) — no RNG stream is consumed, so
// arrivals, routing and every downstream random draw are identical to an
// untenanted run. A runtime with an empty catalog constructs no governor at
// all, which is what keeps no-tenant runs bit-identical to the PR 8
// goldens.
//
// Concurrency (serving runtime): TenantOf/AdmitAtIngress are lock-free —
// they read one atomic threshold and bump two relaxed counters, safe from
// the load-generator and broker threads. Resync is called only by the
// control thread (or the simulator's sync tick). The governor takes no
// locks and is deliberately outside the lock-rank hierarchy.
#ifndef PARD_CORE_TENANT_GOVERNOR_H_
#define PARD_CORE_TENANT_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "pipeline/tenant_spec.h"
#include "runtime/state_board.h"

namespace pard {

class TenantGovernor {
 public:
  // Validates the catalog. `seed` decorrelates the assignment/admission
  // hashes across runs while keeping them deterministic per run.
  TenantGovernor(std::vector<TenantSpec> catalog, std::uint64_t seed);

  const TenantSpec& Tenant(int t) const { return catalog_[static_cast<std::size_t>(t)]; }
  const std::vector<TenantSpec>& catalog() const { return catalog_; }

  // Deterministic tenant assignment: a splitmix64 hash of the request id
  // mapped through the cumulative share distribution. Pure function of
  // (id, seed, catalog) — stable across substrates and replays.
  int TenantOf(std::uint64_t request_id) const;

  // Lock-free ingress decision. False = shed (DropReason::kTenantShed).
  // Uses an independent hash of the request id against the tenant's
  // published admit threshold, so the shed set is deterministic too.
  bool AdmitAtIngress(std::uint64_t request_id, int tenant);

  // Recomputes the shed plan from the worst module load factor. Call once
  // per sync tick with the states about to be published to the
  // board/snapshot.
  void Resync(const std::vector<ModuleState>& states);

  // Introspection (relaxed reads; exact once the run has quiesced).
  double AdmitProbability(int tenant) const;
  std::uint64_t ShedCount(int tenant) const;

 private:
  struct alignas(64) TenantState {
    // Admit iff hash <= threshold; UINT64_MAX = admit everything.
    std::atomic<std::uint64_t> threshold{~std::uint64_t{0}};
    std::atomic<std::uint64_t> shed{0};
  };

  std::vector<TenantSpec> catalog_;
  std::vector<double> cumulative_share_;  // cumulative_share_[t] = Σ share[0..t].
  std::vector<int> by_weight_;            // Tenant indices, ascending weight.
  std::uint64_t seed_;
  std::unique_ptr<TenantState[]> state_;
};

}  // namespace pard

#endif  // PARD_CORE_TENANT_GOVERNOR_H_
