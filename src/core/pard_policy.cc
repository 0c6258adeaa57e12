#include "core/pard_policy.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "runtime/batch_planner.h"

namespace pard {

namespace {

// The frozen decision inputs of one sync interval (see PardPolicy::MakeView).
class PardView final : public PolicyView {
 public:
  bool ShouldDrop(const AdmissionContext& ctx) const override {
    const Request& req = *ctx.request;
    // Backward + current components are exact at t_b (Fig. 5).
    const Duration through_current = (ctx.batch_start - req.sent) + ctx.batch_duration;
    if (split_scope) {
      // Split scopes: the request must clear module k within the cumulative
      // budget of the source..k prefix.
      return through_current > cumulative_budgets[static_cast<std::size_t>(ctx.module_id)];
    }
    Duration sub = 0;
    if (!backward_only) {
      sub = path_prediction && req.dynamic_path
                ? PathConsistentEstimate(ctx.module_id, req)
                : sub_max[static_cast<std::size_t>(ctx.module_id)];
    }
    return through_current + sub > req.slo;
  }

  PopSide ChoosePopSide(int module_id, SimTime now) const override {
    (void)now;
    return sides[static_cast<std::size_t>(module_id)];
  }

  // Request-path prediction for dynamic-path DAGs (§5.2 future work): the
  // max over only the downstream paths consistent with the request's branch
  // choices (a path is consistent when every fork along it forwards to the
  // path's next hop), from the per-path estimates frozen at sync time.
  Duration PathConsistentEstimate(int module_id, const Request& request) const {
    const auto& paths = spec->DownstreamPaths(module_id);
    const auto& estimates = per_path[static_cast<std::size_t>(module_id)];
    Duration best = 0;
    bool any = false;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      int prev = module_id;
      bool consistent = true;
      for (int id : paths[i]) {
        const std::vector<int>& subs = spec->Module(prev).subs;
        const int choice = request.hops[static_cast<std::size_t>(prev)].branch_choice;
        if (subs.size() > 1 && (choice < 0 || subs[static_cast<std::size_t>(choice)] != id)) {
          consistent = false;
          break;
        }
        prev = id;
      }
      if (consistent) {
        best = std::max(best, estimates[i]);
        any = true;
      }
    }
    // A request can only be at modules on its active path, so a consistent
    // path always exists; keep the conservative maximum as a safety net.
    return any ? best : sub_max[static_cast<std::size_t>(module_id)];
  }

  const PipelineSpec* spec = nullptr;
  bool split_scope = false;
  bool backward_only = false;
  bool path_prediction = false;
  std::vector<Duration> cumulative_budgets;        // Split scopes only.
  std::vector<Duration> sub_max;                   // Max L_sub per module.
  std::vector<std::vector<Duration>> per_path;     // Path prediction only.
  std::vector<PopSide> sides;                      // Frozen priority sides.
};

}  // namespace

PardPolicy::PardPolicy(PardOptions options) : options_(options) {}

void PardPolicy::Bind(const PipelineSpec* spec, const StateBoard* board) {
  DropPolicy::Bind(spec, board);
  estimator_ = std::make_unique<LatencyEstimator>(spec, board, options_.estimator,
                                                  Rng(options_.seed).Fork("estimator"));
  AdaptivePriorityOptions prio;
  prio.delayed_transition = options_.order != PardOptions::Order::kInstant;
  priorities_.assign(static_cast<std::size_t>(spec->NumModules()), AdaptivePriority(prio));
  if (options_.budget_scope != PardOptions::BudgetScope::kEndToEnd) {
    cumulative_budgets_ = CumulativeSplitBudgets(*spec, PlanBatchSizes(*spec));
  }
}

PopSide PardPolicy::Side(int module_id) const {
  switch (options_.order) {
    case PardOptions::Order::kFcfs:
      return PopSide::kOldest;
    case PardOptions::Order::kHbf:
      return PopSide::kMaxBudget;
    case PardOptions::Order::kLbf:
      return PopSide::kMinBudget;
    case PardOptions::Order::kAdaptive:
    case PardOptions::Order::kInstant:
      return priorities_[static_cast<std::size_t>(module_id)].side();
  }
  return PopSide::kOldest;
}

void PardPolicy::OnSync(SimTime now) {
  if (options_.order == PardOptions::Order::kAdaptive ||
      options_.order == PardOptions::Order::kInstant) {
    for (int id = 0; id < board_->NumModules(); ++id) {
      const ModuleState& state = board_->Get(id);
      AdaptivePriority& prio = priorities_[static_cast<std::size_t>(id)];
      const PriorityMode before = prio.mode();
      prio.Update(state.load_factor, state.burstiness);
      if (prio.mode() != before || transition_log_.empty()) {
        transition_log_.push_back(TransitionSample{now, id, prio.mode(), state.load_factor});
      }
    }
  }
  if (options_.budget_scope == PardOptions::BudgetScope::kWclSplit) {
    // Re-split the SLO by each module's runtime worst-case stage latency.
    std::vector<double> weights;
    weights.reserve(static_cast<std::size_t>(board_->NumModules()));
    for (int id = 0; id < board_->NumModules(); ++id) {
      weights.push_back(std::max(1.0, board_->Get(id).worst_stage_latency));
    }
    cumulative_budgets_ = CumulativeBudgetsFromWeights(*spec_, weights, spec_->slo());
  }
}

PolicyRefreshStats PardPolicy::RefreshEstimates(ThreadPool* pool) {
  if (options_.budget_scope != PardOptions::BudgetScope::kEndToEnd || options_.backward_only) {
    return {};
  }
  const LatencyEstimator::RefreshStats stats = estimator_->RefreshAll(pool);
  return {stats.refreshed, stats.skipped};
}

std::shared_ptr<const PolicyView> PardPolicy::MakeView() {
  PARD_CHECK(spec_ != nullptr);
  auto view = std::make_shared<PardView>();
  view->spec = spec_;
  view->split_scope = options_.budget_scope != PardOptions::BudgetScope::kEndToEnd;
  view->backward_only = options_.backward_only;
  view->path_prediction = options_.path_prediction;
  if (view->split_scope) {
    view->cumulative_budgets = cumulative_budgets_;
  }
  const std::size_t n = static_cast<std::size_t>(spec_->NumModules());
  view->sub_max.resize(n, 0);
  view->sides.resize(n, PopSide::kOldest);
  if (view->path_prediction) {
    view->per_path.resize(n);
  }
  for (int id = 0; id < spec_->NumModules(); ++id) {
    view->sides[static_cast<std::size_t>(id)] = Side(id);
    // Split scopes and PARD-back never consult the estimator; skipping the
    // refresh keeps their views as cheap as their decisions.
    if (!view->split_scope && !view->backward_only) {
      view->sub_max[static_cast<std::size_t>(id)] = estimator_->EstimateSubsequent(id);
      if (view->path_prediction) {
        view->per_path[static_cast<std::size_t>(id)] = estimator_->PathEstimates(id);
      }
    }
  }
  return view;
}

const AdaptivePriority& PardPolicy::priority(int module_id) const {
  return priorities_[static_cast<std::size_t>(module_id)];
}

std::string PardPolicy::Name() const {
  if (options_.backward_only) {
    return "pard-back";
  }
  if (options_.path_prediction) {
    return "pard-path";
  }
  if (!options_.estimator.include_queue && !options_.estimator.include_wait) {
    return "pard-sf";
  }
  switch (options_.budget_scope) {
    case PardOptions::BudgetScope::kStaticSplit:
      return "pard-split";
    case PardOptions::BudgetScope::kWclSplit:
      return "pard-wcl";
    case PardOptions::BudgetScope::kEndToEnd:
      break;
  }
  switch (options_.estimator.wait_mode) {
    case EstimatorOptions::WaitMode::kLower:
      return "pard-lower";
    case EstimatorOptions::WaitMode::kUpper:
      return "pard-upper";
    case EstimatorOptions::WaitMode::kSweetSpot:
      break;
  }
  switch (options_.order) {
    case PardOptions::Order::kFcfs:
      return "pard-fcfs";
    case PardOptions::Order::kHbf:
      return "pard-hbf";
    case PardOptions::Order::kLbf:
      return "pard-lbf";
    case PardOptions::Order::kInstant:
      return "pard-instant";
    case PardOptions::Order::kAdaptive:
      break;
  }
  return "pard";
}

}  // namespace pard
