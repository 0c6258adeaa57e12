#include "serve/serve_module.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/lock_order.h"
#include "serve/serve_runtime.h"

namespace pard {

EventId ServeModule::Timer::ScheduleAt(SimTime t, Callback cb) {
  const EventId id = next_id_++;
  events_.push_back(Event{t, id, std::move(cb)});
  if (t < armed_) {
    Arm(t);
  }
  return id;
}

bool ServeModule::Timer::Cancel(EventId id) {
  // The alarm may still fire for a cancelled event; FireDue then finds
  // nothing due and re-arms.
  for (auto it = events_.begin(); it != events_.end(); ++it) {
    if (it->id == id) {
      events_.erase(it);
      return true;
    }
  }
  return false;
}

void ServeModule::Timer::FireDue(SimTime now) {
  for (;;) {
    auto next = events_.end();
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->t <= now &&
          (next == events_.end() || it->t < next->t || (it->t == next->t && it->id < next->id))) {
        next = it;
      }
    }
    if (next == events_.end()) {
      break;
    }
    // Out of the vector before it runs: the callback may schedule or cancel.
    Callback cb = std::move(next->cb);
    events_.erase(next);
    cb();
  }
  SimTime due = kSimTimeMax;
  for (const Event& ev : events_) {
    due = std::min(due, ev.t);
  }
  // Every event left is later than `now`, so an alarm armed for `due` has
  // not fired yet (the timer thread marks the expiries it consumes): only a
  // new deadline costs the system call.
  if (due != armed_) {
    Arm(due);
  }
}

void ServeModule::Timer::Interrupt() { Arm(0); }

void ServeModule::Timer::Arm(SimTime t) {
  armed_ = t;
  alarm_.Arm(t);
}

ServeModule::ServeModule(ServeRuntime* runtime, BackendFleet* fleet, const ModuleSpec& spec,
                         const ModelProfile& profile, int batch_size, int workers,
                         const RuntimeOptions& options)
    : runtime_(runtime),
      clock_(runtime->clock()),
      profile_(profile),
      batch_size_(batch_size),
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
    LockOrderGuard order(LockRank::kModule);
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
    LockOrderGuard order(LockRank::kModule);
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
  // module mutexes (and, at a merge, a fate stripe).
  for (Handoff& handoff : sending) {
    runtime_->OnModuleDone(handoff.req, module_id_, handoff.at);
  }
  return true;
}

void ServeModule::Receive(RequestPtr req) {
  Enter([&] { module_->Receive(std::move(req)); });
}

int ServeModule::AddWorkers(int count) {
  int added = 0;
  Enter([&] { added = module_->AddWorkers(count); });
  return added;
}

void ServeModule::FailWorkers(int count) {
  Enter([&] { module_->FailWorkers(count); });
}

void ServeModule::HangWorkers(int count, Duration duration) {
  Enter([&] { module_->HangWorkers(count, duration); });
}

void ServeModule::SetSlowdown(double factor, SimTime until) {
  Enter([&] { module_->SetSlowdown(factor, until); });
}

int ServeModule::FailHungWorkers(Duration budget) {
  int failed = 0;
  Enter([&] { failed = module_->FailHungWorkers(budget); });
  return failed;
}

void ServeModule::SetTargetUnits(double target_units, int max_new_workers) {
  Enter([&] { module_->SetTargetUnits(target_units, max_new_workers); });
}

void ServeModule::Sync(ModuleState& state) {
  Enter([&] { state = module_->Sync(clock_.Now(), std::move(state.wait_samples)); });
}

double ServeModule::SmoothedInputRate() {
  double rate = 0.0;
  Enter([&] { rate = module_->SmoothedInputRate(clock_.Now()); });
  return rate;
}

// --- ModuleHost: called by module_ with mu_ held -------------------------------

void ServeModule::OnModuleDone(RequestPtr req, int module_id) {
  PARD_CHECK(module_id == module_id_);
  outbox_.push_back(Handoff{std::move(req), clock_.Now()});
}

void ServeModule::Drop(RequestPtr req, int module_id, DropReason reason) {
  runtime_->Drop(req, module_id, clock_.Now(), reason);
}

bool ServeModule::IsTerminal(const Request& req) const { return runtime_->IsTerminal(req); }

RequestLifecycle& ServeModule::lifecycle() { return runtime_->lifecycle(); }

TraceRecorder* ServeModule::trace() { return runtime_->trace(); }

}  // namespace pard
