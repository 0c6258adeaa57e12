// Drop-reason attribution.
//
// Every request that ends in RequestFate::kDropped or kLate carries exactly
// one DropReason naming the mechanism that killed it — without this the
// metrics can say *that* goodput was lost but never *why*. Reasons are
// assigned at the drop site (ModuleRuntime/Worker in both substrates, plus
// the runtimes' ingress and end-of-run sweep) and are conserved: every run's
// record check (CheckRunInvariants) requires a reason exactly when a request
// counts as dropped, so the per-reason counts sum to the run's drop count.
//
// Glossary (see README "Observability" for the operator-facing version):
//   kProactiveAdmission — the enqueue-time admission check (the paper's
//       proactive drop) rejected the request before it entered any queue.
//   kBrokerCandidate    — the Request Broker predicate rejected the request
//       as a candidate for the forming batch.
//   kPurgeExpired       — the deadline passed while the request sat in a
//       queue; it was evicted by the purge-expired sweep.
//   kDrainAbandoned     — the run's drain deadline hit with the request
//       still in flight (backlog abandoned at shutdown).
//   kFaultKilled        — no dispatchable worker existed at delivery time
//       (all cold / draining / failed), so the request had nowhere to go.
//   kSloLate            — the request finished execution but after its
//       deadline (completed-but-late counts as dropped, §5.1).
//   kWorkerFailure      — in-flight loss: the worker executing (or queueing)
//       the request was killed or hung, and the request could not be retried
//       (retries disabled, no surviving worker, or insufficient remaining
//       deadline budget).
//   kRetryExhausted     — the request was re-enqueued after worker failures
//       until it ran out of retry attempts (ResilienceOptions::max_retries).
//   kTenantShed         — the tenant governor shed the request at ingress to
//       protect weighted global goodput: the fleet is overloaded and this
//       tenant's weight puts it below the shed line (never below its
//       admit_floor — see core/tenant_governor.h). Only occurs in
//       multi-tenant runs.
#ifndef PARD_OBS_DROP_REASON_H_
#define PARD_OBS_DROP_REASON_H_

#include <cstdint>

namespace pard {

enum class DropReason : std::uint8_t {
  kNone = 0,  // Not dropped; a dropped request at kNone fails the run.
  kProactiveAdmission = 1,
  kBrokerCandidate = 2,
  kPurgeExpired = 3,
  kDrainAbandoned = 4,
  kFaultKilled = 5,
  kSloLate = 6,
  kWorkerFailure = 7,
  kRetryExhausted = 8,
  kTenantShed = 9,
};

inline constexpr int kNumDropReasons = 10;  // Including kNone.

// Stable snake_case identifier, used as the metrics/report JSON key and the
// trace-event argument.
inline const char* DropReasonName(DropReason reason) {
  switch (reason) {
    case DropReason::kNone:
      return "none";
    case DropReason::kProactiveAdmission:
      return "proactive_admission";
    case DropReason::kBrokerCandidate:
      return "broker_candidate";
    case DropReason::kPurgeExpired:
      return "purge_expired";
    case DropReason::kDrainAbandoned:
      return "drain_abandoned";
    case DropReason::kFaultKilled:
      return "fault_killed";
    case DropReason::kSloLate:
      return "slo_late";
    case DropReason::kWorkerFailure:
      return "worker_failure";
    case DropReason::kRetryExhausted:
      return "retry_exhausted";
    case DropReason::kTenantShed:
      return "tenant_shed";
  }
  return "unknown";
}

}  // namespace pard

#endif  // PARD_OBS_DROP_REASON_H_
