// The PARD drop policy: proactive request dropping + adaptive priority.
//
// Request Broker predicate (Eq. 3): at batch-entry time t_b with known batch
// start t_e, drop iff
//
//   L = (t_e - t_s) + d_k + L_sub(k)  >  SLO
//
// where L_sub comes from the bi-directional LatencyEstimator. Queue order is
// chosen per module by the AdaptivePriority controller fed with (mu, eps)
// from the State Planner sync. Configuration knobs expose every ablation in
// the paper's Table 1 that shares PARD's machinery (back/sf, lower/upper,
// split/WCL, FCFS/HBF/LBF/instant); the remaining baselines live in
// src/baselines.
#ifndef PARD_CORE_PARD_POLICY_H_
#define PARD_CORE_PARD_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_priority.h"
#include "core/latency_estimator.h"
#include "runtime/drop_policy.h"

namespace pard {

struct PardOptions {
  EstimatorOptions estimator;

  enum class Order {
    kAdaptive,  // PARD: HBF/LBF with delayed transition.
    kInstant,   // PARD-instant: adaptive without hysteresis.
    kHbf,       // PARD-HBF: always high budget first.
    kLbf,       // PARD-LBF: always low budget first (SHEPHERD-style).
    kFcfs,      // PARD-FCFS: arrival order.
  };
  Order order = Order::kAdaptive;

  enum class BudgetScope {
    kEndToEnd,     // PARD: compare L against the full SLO.
    kStaticSplit,  // PARD-split: fixed per-module cumulative budgets.
    kWclSplit,     // PARD-WCL: budgets re-derived from runtime worst-case
                   // stage latencies at every sync.
  };
  BudgetScope budget_scope = BudgetScope::kEndToEnd;

  // Disable the forward component entirely (PARD-back): L_sub = 0.
  bool backward_only = false;

  // Request-path prediction for dynamic-path DAGs (§5.2 future work): when
  // the request carries branch choices, estimate L_sub along its actual
  // path instead of the conservative max over all branches.
  bool path_prediction = false;

  std::uint64_t seed = 1234;
};

class PardPolicy : public DropPolicy {
 public:
  explicit PardPolicy(PardOptions options = {});

  void Bind(const PipelineSpec* spec, const StateBoard* board) override;
  void OnSync(SimTime now) override;
  // Incremental refresh (LatencyEstimator::RefreshAll): only modules whose
  // published inputs moved are re-drawn, from per-module forked streams,
  // optionally fanned across `pool`. Split scopes and PARD-back never
  // consult the estimator, so they report all-skipped.
  PolicyRefreshStats RefreshEstimates(ThreadPool* pool) override;
  // Immutable decision snapshot (the Request Broker of both substrates):
  // per-module L_sub (max and per-path) read from the estimator's epoch
  // cache, the current priority sides and split budgets. Decisions against
  // the view are pure arithmetic — no estimator, RNG or board access — so
  // they run lock-free between syncs.
  std::shared_ptr<const PolicyView> MakeView() override;
  std::string Name() const override;

  // Introspection for tests and the Fig. 13 bench.
  const AdaptivePriority& priority(int module_id) const;
  LatencyEstimator* estimator() { return estimator_.get(); }

  // Mode-transition log: (time, module, mode). Fig. 13 plots module 0.
  struct TransitionSample {
    SimTime t;
    int module_id;
    PriorityMode mode;
    double load_factor;
  };
  const std::vector<TransitionSample>& transition_log() const { return transition_log_; }

 private:
  // Queue order for module_id under the configured Order.
  PopSide Side(int module_id) const;

  PardOptions options_;
  std::unique_ptr<LatencyEstimator> estimator_;
  std::vector<AdaptivePriority> priorities_;
  std::vector<Duration> cumulative_budgets_;  // For split scopes.
  std::vector<TransitionSample> transition_log_;
};

}  // namespace pard

#endif  // PARD_CORE_PARD_POLICY_H_
