#include "baselines/clipper_policy.h"

#include "runtime/batch_planner.h"

namespace pard {

void ClipperPlusPolicy::Bind(const PipelineSpec* spec, const StateBoard* board) {
  DropPolicy::Bind(spec, board);
  cumulative_budgets_ = CumulativeSplitBudgets(*spec, PlanBatchSizes(*spec));
}

std::shared_ptr<const PolicyView> ClipperPlusPolicy::MakeView() {
  struct View final : PolicyView {
    // Reactive: only the latency already accumulated counts. The request is
    // dropped when it has burned past the cumulative budget through this
    // module before inference even starts.
    bool ShouldDrop(const AdmissionContext& ctx) const override {
      return ctx.now - ctx.request->sent >
             budgets[static_cast<std::size_t>(ctx.module_id)];
    }
    std::vector<Duration> budgets;
  };
  auto view = std::make_shared<View>();
  view->budgets = cumulative_budgets_;
  return view;
}

}  // namespace pard
