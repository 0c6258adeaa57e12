// PARD-oc: DAGOR-style overload control (Table 1, from WeChat's microservice
// overload controller).
//
// A module is overloaded when its recent average queueing delay exceeds a
// threshold T. While any module is overloaded, the system sheds load: the
// overloaded module itself (and the pipeline ingress, which it "notifies")
// admits only (1 - alpha) of incoming requests, dropped probabilistically at
// enqueue time. No per-request latency estimation is performed — the
// coarse-grained design the paper contrasts with PARD in §5.3.
#ifndef PARD_BASELINES_OVERLOAD_CONTROL_POLICY_H_
#define PARD_BASELINES_OVERLOAD_CONTROL_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/drop_policy.h"

namespace pard {

struct OverloadControlOptions {
  // Queueing-delay threshold T (paper tunes 20-25 ms per trace).
  Duration queue_threshold = 20 * kUsPerMs;
  // Shed fraction alpha (paper: 0.4).
  double alpha = 0.4;
};

class OverloadControlPolicy : public DropPolicy {
 public:
  explicit OverloadControlPolicy(OverloadControlOptions options = {}) : options_(options) {}

  // Overload is a per-sync property (avg_queue_delay changes only when the
  // board publishes), so the view precomputes the per-module flags; only the
  // Bernoulli draw needs entropy, supplied by the control plane's striped
  // admission RNGs. All shedding happens at admission: the view never drops
  // at batch entry.
  std::shared_ptr<const PolicyView> MakeView() override {
    struct View final : PolicyView {
      bool ShouldDrop(const AdmissionContext&) const override { return false; }
      bool NeedsAdmissionRng() const override { return true; }
      bool AdmitAtModule(const Request& request, int module_id, SimTime now,
                         Rng* rng) const override {
        (void)request;
        (void)now;
        const bool here = overloaded[static_cast<std::size_t>(module_id)];
        // Ingress sheds on behalf of any overloaded downstream module
        // ("notifies preceding modules").
        const bool ingress_shedding = module_id == source && any_overloaded;
        if (here || ingress_shedding) {
          return !rng->Bernoulli(alpha);
        }
        return true;
      }
      std::vector<bool> overloaded;
      bool any_overloaded = false;
      int source = 0;
      double alpha = 0.0;
    };
    auto view = std::make_shared<View>();
    view->source = spec_->SourceModule();
    view->alpha = options_.alpha;
    view->overloaded.resize(static_cast<std::size_t>(board_->NumModules()), false);
    for (int id = 0; id < board_->NumModules(); ++id) {
      const bool over = board_->Get(id).avg_queue_delay >
                        static_cast<double>(options_.queue_threshold);
      view->overloaded[static_cast<std::size_t>(id)] = over;
      view->any_overloaded = view->any_overloaded || over;
    }
    return view;
  }

  std::string Name() const override { return "pard-oc"; }

 private:
  OverloadControlOptions options_;
};

}  // namespace pard

#endif  // PARD_BASELINES_OVERLOAD_CONTROL_POLICY_H_
