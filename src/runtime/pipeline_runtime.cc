#include "runtime/pipeline_runtime.h"

#include <utility>

#include "common/check.h"
#include "models/registry.h"
#include "runtime/batch_planner.h"

namespace pard {

PipelineRuntime::PipelineRuntime(const PipelineSpec& spec, const RuntimeOptions& options,
                                 DropPolicy* policy, double expected_rate)
    : spec_(spec),
      options_(options),
      lifecycle_(spec_, options_),
      fleet_(spec_, options_.cold_start, options_.cost_aware_provisioning),
      loop_(spec_, options_, policy, &lifecycle_, &fleet_, ControlSubstrate()) {
  const std::vector<int>& batch_sizes = lifecycle_.batch_sizes();
  const std::vector<int> workers = PlanInitialWorkers(spec_, batch_sizes, options_, expected_rate);
  for (const ModuleSpec& m : spec_.modules()) {
    modules_.push_back(std::make_unique<ModuleRuntime>(
        &sim_, this, &loop_.control(), &fleet_, m, ProfileRegistry::Get(m.model),
        batch_sizes[static_cast<std::size_t>(m.id)], workers[static_cast<std::size_t>(m.id)],
        options_));
  }
}

ControlLoop::Substrate PipelineRuntime::ControlSubstrate() {
  ControlLoop::Substrate substrate;
  substrate.timer = &sim_;
  substrate.with_module = [this](int id, const ControlLoop::ModuleFn& fn) { fn(module(id)); };
  substrate.control = ControlPlane::RunOptions(options_);
  return substrate;
}

ModuleRuntime& PipelineRuntime::module(int id) {
  PARD_CHECK(id >= 0 && id < static_cast<int>(modules_.size()));
  return *modules_[static_cast<std::size_t>(id)];
}

void PipelineRuntime::Inject() {
  RequestPtr req = lifecycle_.NewRequest();
  if (!lifecycle_.Inject(req, sim_.Now())) {
    // Weighted ingress shed: recorded (conservation) but never delivered.
    lifecycle_.Drop(*req, spec_.SourceModule(), sim_.Now(), DropReason::kTenantShed);
    return;
  }
  Deliver(std::move(req), spec_.SourceModule());
}

void PipelineRuntime::Deliver(RequestPtr req, int module_id) {
  // Network hop between client/module and module.
  sim_.ScheduleAfter(options_.network_delay, [this, req = std::move(req), module_id]() mutable {
    modules_[static_cast<std::size_t>(module_id)]->Receive(std::move(req));
  });
}

void PipelineRuntime::OnModuleDone(RequestPtr req, int module_id) {
  if (req->Terminal()) {
    return;  // Dropped on a parallel branch while this one executed.
  }
  if (!lifecycle_.Forward(*req, module_id, [&](int sub) { Deliver(req, sub); })) {
    lifecycle_.Complete(*req, sim_.Now());
  }
}

void PipelineRuntime::RunTrace(const std::vector<SimTime>& arrivals) {
  sim_.ScheduleStream(arrivals, [this] { Inject(); });
  loop_.StopAfter((arrivals.empty() ? 0 : arrivals.back()) + options_.drain);
  try {
    sim_.Run();
  } catch (...) {
    sim_.CancelStream();  // The kernel must not keep a pointer into `arrivals`.
    throw;
  }
  // Any request still in flight after the queues fully drain is abandoned
  // (can only happen via infrastructure corner cases) and accounted as late
  // so conservation holds; then the log is checked (CheckRunInvariants).
  lifecycle_.EndRun(sim_.Now());
}

}  // namespace pard
