// Naive baseline: no dropping at all. Under overload requests accumulate and
// most complete past the SLO (counted as dropped per §5.1), giving the worst
// goodput in the paper's Fig. 8/10.
#ifndef PARD_BASELINES_NAIVE_POLICY_H_
#define PARD_BASELINES_NAIVE_POLICY_H_

#include <memory>
#include <string>

#include "runtime/drop_policy.h"

namespace pard {

class NaivePolicy : public DropPolicy {
 public:
  bool PurgeExpired() const override { return false; }
  // Stateless: the view is the policy.
  std::shared_ptr<const PolicyView> MakeView() override {
    struct View final : PolicyView {
      bool ShouldDrop(const AdmissionContext&) const override { return false; }
    };
    return std::make_shared<View>();
  }
  std::string Name() const override { return "naive"; }
};

}  // namespace pard

#endif  // PARD_BASELINES_NAIVE_POLICY_H_
