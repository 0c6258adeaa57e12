#include "baselines/policy_factory.h"

#include <functional>

#include "baselines/clipper_policy.h"
#include "baselines/naive_policy.h"
#include "baselines/nexus_policy.h"
#include "baselines/overload_control_policy.h"
#include "common/check.h"
#include "core/pard_policy.h"

namespace pard {
namespace {

std::unique_ptr<PardPolicy> MakePard(const PolicyParams& params,
                                     const std::function<void(PardOptions&)>& tweak) {
  PardOptions options;
  options.estimator.lambda = params.lambda;
  options.estimator.mc_samples = params.mc_samples;
  options.seed = params.seed;
  tweak(options);
  return std::make_unique<PardPolicy>(options);
}

}  // namespace

std::unique_ptr<DropPolicy> MakePolicy(const std::string& name, const PolicyParams& params) {
  if (name == "naive") {
    return std::make_unique<NaivePolicy>();
  }
  if (name == "nexus") {
    return std::make_unique<NexusPolicy>();
  }
  if (name == "clipper++") {
    return std::make_unique<ClipperPlusPolicy>();
  }
  if (name == "pard-oc") {
    OverloadControlOptions oc;
    oc.queue_threshold = params.oc_threshold;
    oc.alpha = params.oc_alpha;
    return std::make_unique<OverloadControlPolicy>(oc);
  }
  if (name == "pard") {
    return MakePard(params, [](PardOptions&) {});
  }
  if (name == "pard-path") {
    return MakePard(params, [](PardOptions& o) { o.path_prediction = true; });
  }
  if (name == "pard-back") {
    return MakePard(params, [](PardOptions& o) { o.backward_only = true; });
  }
  if (name == "pard-sf") {
    return MakePard(params, [](PardOptions& o) {
      o.estimator.include_queue = false;
      o.estimator.include_wait = false;
    });
  }
  if (name == "pard-split") {
    return MakePard(params,
                    [](PardOptions& o) { o.budget_scope = PardOptions::BudgetScope::kStaticSplit; });
  }
  if (name == "pard-wcl") {
    return MakePard(params,
                    [](PardOptions& o) { o.budget_scope = PardOptions::BudgetScope::kWclSplit; });
  }
  if (name == "pard-lower") {
    return MakePard(params,
                    [](PardOptions& o) { o.estimator.wait_mode = EstimatorOptions::WaitMode::kLower; });
  }
  if (name == "pard-upper") {
    return MakePard(params,
                    [](PardOptions& o) { o.estimator.wait_mode = EstimatorOptions::WaitMode::kUpper; });
  }
  if (name == "pard-fcfs") {
    return MakePard(params, [](PardOptions& o) { o.order = PardOptions::Order::kFcfs; });
  }
  if (name == "pard-hbf") {
    return MakePard(params, [](PardOptions& o) { o.order = PardOptions::Order::kHbf; });
  }
  if (name == "pard-lbf") {
    return MakePard(params, [](PardOptions& o) { o.order = PardOptions::Order::kLbf; });
  }
  if (name == "pard-instant") {
    return MakePard(params, [](PardOptions& o) { o.order = PardOptions::Order::kInstant; });
  }
  PARD_CHECK_MSG(false, "unknown policy: " << name);
}

std::vector<std::string> AllPolicyNames() {
  return {"pard",       "nexus",      "clipper++",  "naive",      "pard-back",
          "pard-sf",    "pard-oc",    "pard-split", "pard-wcl",   "pard-lower",
          "pard-upper", "pard-fcfs",  "pard-hbf",   "pard-lbf",   "pard-instant",
          "pard-path"};
}

std::vector<std::string> AblationPolicyNames() {
  return {"pard",       "pard-back",  "pard-sf",   "pard-oc",   "pard-split",
          "pard-wcl",   "pard-upper", "pard-lower", "pard-instant", "pard-hbf",
          "pard-lbf",   "pard-fcfs"};
}

}  // namespace pard
