// Plugging a user-defined drop policy into the serving runtime.
//
// A policy decides at three points, all answered by the immutable PolicyView
// it builds once per state sync (DropPolicy::MakeView): ShouldDrop (Request
// Broker, at batch-entry time), ChoosePopSide (queue order), and
// AdmitAtModule (enqueue-time shedding). Both the simulator and the serving
// runtime read that view, lock-free, until the next sync replaces it. This
// example implements a simple "slack margin" rule — drop when the remaining
// budget falls below a fixed multiple of the current module's batch
// duration per remaining module — and races it against PARD and Nexus.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "metrics/analysis.h"
#include "pipeline/apps.h"
#include "runtime/drop_policy.h"
#include "runtime/pipeline_runtime.h"
#include "baselines/policy_factory.h"
#include "trace/arrival_generator.h"
#include "trace/traces.h"

namespace {

class SlackMarginPolicy : public pard::DropPolicy {
 public:
  explicit SlackMarginPolicy(double margin) : margin_(margin) {}

  // Everything a decision reads is copied into the view when it is built:
  // here the margin and, per module, the hop count of its longest
  // downstream path (a crude forward-looking rule — no runtime state
  // needed).
  std::shared_ptr<const pard::PolicyView> MakeView() override {
    struct View final : pard::PolicyView {
      bool ShouldDrop(const pard::AdmissionContext& ctx) const override {
        // Keep only if the remaining budget after this module covers
        // margin x the batch duration of every remaining module.
        const pard::Duration after_current =
            ctx.request->deadline - (ctx.batch_start + ctx.batch_duration);
        const pard::Duration per_hop = static_cast<pard::Duration>(margin * ctx.batch_duration);
        return after_current < downstream_hops[static_cast<std::size_t>(ctx.module_id)] * per_hop;
      }
      double margin = 0.0;
      std::vector<pard::Duration> downstream_hops;
    };
    auto view = std::make_shared<View>();
    view->margin = margin_;
    for (int k = 0; k < spec_->NumModules(); ++k) {
      std::size_t longest = 0;
      for (const auto& path : spec_->DownstreamPaths(k)) {
        longest = std::max(longest, path.size());
      }
      view->downstream_hops.push_back(static_cast<pard::Duration>(longest));
    }
    return view;
  }

  std::string Name() const override { return "slack-margin"; }

 private:
  double margin_;
};

double RunWith(pard::DropPolicy* policy, const std::vector<pard::SimTime>& arrivals,
               const pard::PipelineSpec& spec, double rate) {
  pard::RuntimeOptions options;
  pard::PipelineRuntime runtime(spec, options, policy, rate);
  runtime.RunTrace(arrivals);
  pard::RunAnalysis analysis(runtime.requests(), spec);
  std::printf("%-14s goodput/s %8.1f  drop %6.2f%%  invalid %6.2f%%\n", policy->Name().c_str(),
              analysis.MeanGoodput(), 100.0 * analysis.DropRate(),
              100.0 * analysis.InvalidRate());
  return analysis.MeanGoodput();
}

}  // namespace

int main() {
  const pard::PipelineSpec spec = pard::MakeLiveVideo();
  pard::TraceOptions trace_options;
  trace_options.duration_s = 120.0;
  trace_options.base_rate = 260.0;  // Bursts exceed the provisioned capacity.
  const pard::RateFunction trace = pard::MakeTweetTrace(trace_options);
  pard::Rng rng(7);
  const std::vector<pard::SimTime> arrivals =
      pard::GenerateArrivals(trace, 0, pard::SecToUs(trace_options.duration_s), rng);
  const double mean_rate = trace.MeanRate(0, pard::SecToUs(trace_options.duration_s));

  std::printf("lv pipeline, %zu requests, same arrival stream for every policy.\n\n",
              arrivals.size());

  SlackMarginPolicy custom(1.5);
  RunWith(&custom, arrivals, spec, mean_rate);

  const auto pard_policy = pard::MakePolicy("pard");
  RunWith(pard_policy.get(), arrivals, spec, mean_rate);

  const auto nexus = pard::MakePolicy("nexus");
  RunWith(nexus.get(), arrivals, spec, mean_rate);

  std::printf("\nImplement pard::DropPolicy::MakeView to experiment with your own rules.\n");
  return 0;
}
