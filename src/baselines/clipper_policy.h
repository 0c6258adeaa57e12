// Clipper++ baseline (paper §5.1).
//
// Clipper serves single-model applications and drops a request only when it
// has *already* exceeded the latency objective before inference. The paper
// extends it to pipelines by splitting the end-to-end SLO proportionally to
// module cost: SLO_k = SLO * d_k / sum d_i. At module k the request is
// dropped iff its elapsed time at decision already exceeds the cumulative
// split budget through module k — a purely reactive, arrival-order design.
#ifndef PARD_BASELINES_CLIPPER_POLICY_H_
#define PARD_BASELINES_CLIPPER_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "runtime/drop_policy.h"

namespace pard {

class ClipperPlusPolicy : public DropPolicy {
 public:
  void Bind(const PipelineSpec* spec, const StateBoard* board) override;

  // Budgets are fixed at Bind(); the view copies them once. Queue order is
  // the view's FIFO default, like Clipper.
  std::shared_ptr<const PolicyView> MakeView() override;

  std::string Name() const override { return "clipper++"; }

 private:
  std::vector<Duration> cumulative_budgets_;
};

}  // namespace pard

#endif  // PARD_BASELINES_CLIPPER_POLICY_H_
