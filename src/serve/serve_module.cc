#include "serve/serve_module.h"

#include <utility>

#include "common/check.h"
#include "common/lock_order.h"
#include "serve/serve_runtime.h"

namespace pard {

ServeModule::ServeModule(ServeRuntime* runtime, BackendFleet* fleet, const ModuleSpec& spec,
                         const ModelProfile& profile, int batch_size, int workers,
                         const RuntimeOptions& options)
    : runtime_(runtime),
      clock_(runtime->clock()),
      module_id_(spec.id),
      timer_(&runtime->clock()) {
  // The constructor's callbacks into this host need runtime_ only.
  ModuleHost* host = this;
  module_ = std::make_unique<ModuleRuntime>(&timer_, host, &runtime->control(), fleet, spec,
                                            profile, batch_size, workers, options);
}

ServeModule::~ServeModule() {
  // ServeRuntime::Shutdown has normally stopped the thread and re-thrown its
  // error already; a destructor must not throw a second time.
  try {
    Stop();
  } catch (...) {
  }
}

void ServeModule::Start() {
  // Events scheduled while the runtime was built armed the alarm to fire at
  // once, so the thread's first wake re-arms it against the started clock.
  thread_.Spawn([this] { TimerLoop(); });
}

void ServeModule::Stop() {
  {
    ModuleLockGuard guard;
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    timer_.Interrupt();
  }
  thread_.Join();
}

void ServeModule::TimerLoop() {
  for (;;) {
    timer_.Wait();
    if (!Enter([] {}, /*expired=*/true)) {
      return;
    }
  }
}

template <typename Fn>
bool ServeModule::Enter(Fn&& fn, bool expired) {
  std::vector<Handoff> sending;
  {
    ModuleLockGuard guard;
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return false;
    }
    if (expired) {
      timer_.Expired();
    }
    timer_.FireDue(clock_.Now());
    fn();
    sending.swap(outbox_);
  }
  // Hand-offs leave with no lock held: forwarding takes the successors'
  // module mutexes.
  for (Handoff& handoff : sending) {
    runtime_->OnModuleDone(handoff.req, module_id_, handoff.at);
  }
  return true;
}

void ServeModule::Receive(RequestPtr req) {
  Enter([&] { module_->Receive(std::move(req)); });
}

void ServeModule::With(const std::function<void(ModuleRuntime&)>& fn) {
  Enter([&] { fn(*module_); });
}

// --- ModuleHost: called by module_ with mu_ held -------------------------------

void ServeModule::OnModuleDone(RequestPtr req, int module_id) {
  PARD_CHECK(module_id == module_id_);
  outbox_.push_back(Handoff{std::move(req), clock_.Now()});
}

RequestLifecycle& ServeModule::lifecycle() { return runtime_->lifecycle(); }

}  // namespace pard
