// Nexus baseline (paper §5.1).
//
// Nexus scans the FIFO queue in arrival order with a sliding window equal to
// the batch size, dropping every request before the first window position
// where all requests can meet the current module's latency budget. Within a
// single batch-formation round all candidates share the same expected batch
// start t_e and duration d_k, so the window condition reduces to the
// per-request reactive predicate
//
//   keep  iff  (t_e - t_s) + d_k <= SLO
//
// evaluated in arrival order — which is how it is implemented here (see
// DESIGN.md §4.5). The key property the paper analyzes is preserved: only
// latency through the *current* module is considered, never the budget
// needs of downstream modules.
#ifndef PARD_BASELINES_NEXUS_POLICY_H_
#define PARD_BASELINES_NEXUS_POLICY_H_

#include <memory>
#include <string>

#include "runtime/drop_policy.h"

namespace pard {

class NexusPolicy : public DropPolicy {
 public:
  // Pure context arithmetic: snapshot-safe as-is, in FIFO order (the view's
  // default pop side).
  std::shared_ptr<const PolicyView> MakeView() override {
    struct View final : PolicyView {
      bool ShouldDrop(const AdmissionContext& ctx) const override {
        return (ctx.batch_start - ctx.request->sent) + ctx.batch_duration >
               ctx.request->slo;
      }
    };
    return std::make_shared<View>();
  }

  std::string Name() const override { return "nexus"; }
};

}  // namespace pard

#endif  // PARD_BASELINES_NEXUS_POLICY_H_
