#include "serve/serve_runtime.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/check.h"
#include "common/lock_order.h"
#include "models/registry.h"
#include "runtime/batch_planner.h"
#include "serve/load_generator.h"

namespace pard {

namespace {

// Proportional scale-down of a worker plan to a total-thread cap. The
// max(1, ...) floor can leave the scaled sum above the cap (many light
// modules plus one heavy one), so trim the largest entries until the cap
// truly holds — the caller guarantees cap >= module count, so one worker
// per module always fits.
std::vector<int> CapTotalWorkers(std::vector<int> plan, int cap) {
  int total = 0;
  for (int w : plan) {
    total += w;
  }
  if (total <= cap) {
    return plan;
  }
  const double scale = static_cast<double>(cap) / static_cast<double>(total);
  total = 0;
  for (int& w : plan) {
    w = std::max(1, static_cast<int>(static_cast<double>(w) * scale));
    total += w;
  }
  while (total > cap) {
    auto largest = std::max_element(plan.begin(), plan.end());
    if (*largest <= 1) {
      break;  // Cannot trim below one worker per module.
    }
    --*largest;
    --total;
  }
  return plan;
}

}  // namespace

ServeRuntime::ServeRuntime(const PipelineSpec& spec, const RuntimeOptions& options,
                           DropPolicy* policy, double expected_rate, const ServeOptions& serve)
    : spec_(spec),
      options_(options),
      serve_(serve),
      lifecycle_(spec_, options_),
      clock_(serve.speedup),
      control_timer_(&clock_),
      fleet_(spec_, options.cold_start, options.cost_aware_provisioning),
      loop_(spec_, options_, policy, &lifecycle_, &fleet_, ControlSubstrate()) {
  PARD_CHECK(serve_.max_total_threads >= spec_.NumModules());
  PARD_CHECK_MSG(serve_.broker_threads >= 1, "broker_threads must be >= 1");
  const std::vector<int>& batch_sizes = lifecycle_.batch_sizes();
  worker_plan_ =
      CapTotalWorkers(PlanInitialWorkers(spec_, batch_sizes, options_, expected_rate),
                      serve_.max_total_threads);
  for (const ModuleSpec& m : spec_.modules()) {
    modules_.push_back(std::make_unique<ServeModule>(
        this, &fleet_, m, ProfileRegistry::Get(m.model),
        batch_sizes[static_cast<std::size_t>(m.id)],
        worker_plan_[static_cast<std::size_t>(m.id)], options_));
  }
}

ControlLoop::Substrate ServeRuntime::ControlSubstrate() {
  ControlLoop::Substrate substrate;
  substrate.timer = &control_timer_;
  substrate.with_module = [this](int id, const ControlLoop::ModuleFn& fn) {
    modules_[static_cast<std::size_t>(id)]->With(fn);
  };
  substrate.control = ControlPlane::RunOptions(options_);
  substrate.control.parallel_refresh = serve_.parallel_refresh;
  substrate.control.refresh_threads = serve_.refresh_threads;
  substrate.max_total_workers = serve_.max_total_threads;
  substrate.wall_clock = true;
  return substrate;
}

bool ServeRuntime::IsTerminal(const Request& req) const {
  LockOrderGuard order(LockRank::kFate);
  std::lock_guard<std::mutex> lock(FateMutex(req));
  return req.Terminal();
}

template <typename Transition>
void ServeRuntime::ResolveFate(Request& req, Transition transition) {
  {
    LockOrderGuard order(LockRank::kFate);
    std::lock_guard<std::mutex> lock(FateMutex(req));
    if (!transition(req)) {
      return;  // Already resolved on another branch or thread.
    }
    in_flight_.fetch_sub(1, std::memory_order_release);
  }
  // Instrumentation outside the fate stripe: counters and trace shards are
  // lock-free, but keeping the stripe's critical section minimal keeps the
  // traced and untraced paths contention-identical.
  lifecycle_.RecordFate(req);
}

void ServeRuntime::Inject(SimTime scheduled) {
  (void)scheduled;  // Open loop: the *actual* instant is the send time.
  const SimTime now = clock_.Now();
  // No lock: the lifecycle's injection state (arena, id counter, RNG,
  // request log) belongs to this (RunTrace's) thread; identity
  // fields and the drawn route are immutable once the request is visible to
  // any other thread (runtime/request.h).
  RequestPtr req = lifecycle_.NewRequest();
  const bool admitted = lifecycle_.Inject(req, now);
  in_flight_.fetch_add(1, std::memory_order_release);
  if (!admitted) {
    // Weighted ingress shed: lock-free threshold read on RunTrace's thread;
    // the request is recorded for conservation but never reaches the broker
    // backlog or any module queue.
    Drop(req, spec_.SourceModule(), now, DropReason::kTenantShed);
    return;
  }
  if (serve_.broker_threads > 1) {
    {
      std::lock_guard<std::mutex> lock(broker_mu_);
      broker_backlog_.push_back(std::move(req));
    }
    broker_ready_.notify_one();
  } else {
    Deliver(req, spec_.SourceModule());
  }
}

void ServeRuntime::BrokerLoop() {
  for (;;) {
    RequestPtr req;
    {
      std::unique_lock<std::mutex> lock(broker_mu_);
      broker_ready_.wait(lock,
                         [this] { return broker_stop_ || !broker_backlog_.empty(); });
      if (broker_backlog_.empty()) {
        return;  // Stop requested and the backlog is drained (or discarded).
      }
      req = std::move(broker_backlog_.front());
      broker_backlog_.pop_front();
    }
    Deliver(req, spec_.SourceModule());
  }
}

void ServeRuntime::Deliver(const RequestPtr& req, int module_id) {
  if (lifecycle_.IsMerge(module_id)) {
    // DAG merge: the merge counter shares the request's fate stripe, so a
    // sibling branch's drop and this arrival serialize.
    LockOrderGuard order(LockRank::kFate);
    std::lock_guard<std::mutex> lock(FateMutex(*req));
    if (!lifecycle_.MergeReady(*req, module_id)) {
      return;
    }
  }
  modules_[static_cast<std::size_t>(module_id)]->Receive(req);
}

void ServeRuntime::OnModuleDone(const RequestPtr& req, int module_id, SimTime now) {
  if (IsTerminal(*req)) {
    return;  // Dropped on a parallel branch while this one executed.
  }
  if (!lifecycle_.Forward(*req, module_id, [&](int sub) { Deliver(req, sub); })) {
    ResolveFate(*req, [&](Request& r) { return lifecycle_.Complete(r, now); });
  }
}

void ServeRuntime::Drop(const RequestPtr& req, int module_id, SimTime now,
                        DropReason reason) {
  ResolveFate(*req, [&](Request& r) { return lifecycle_.Drop(r, module_id, now, reason); });
}

void ServeRuntime::ControlThread() {
  for (;;) {
    control_timer_.Wait();
    if (stop_control_.load(std::memory_order_relaxed)) {
      return;
    }
    control_timer_.Expired();
    control_timer_.FireDue(clock_.Now());
  }
}

void ServeRuntime::Shutdown() {
  // Brokers go first: on a drained run their backlog is empty (a backlogged
  // request is non-terminal, so the drain loop would still be waiting);
  // otherwise it is discarded and the conservation sweep accounts those
  // requests.
  {
    std::lock_guard<std::mutex> lock(broker_mu_);
    broker_stop_ = true;
    broker_backlog_.clear();
  }
  broker_ready_.notify_all();
  broker_pool_.Join();
  stop_control_.store(true, std::memory_order_relaxed);
  control_thread_.Join();
  // A timer thread forwards into other modules, which keep accepting work
  // after their own timer stops; nothing moves once every timer is joined.
  // Stop every module before re-throwing the first timer thread's error.
  std::exception_ptr first_error;
  for (auto& module : modules_) {
    try {
      module->Stop();
    } catch (...) {
      if (first_error == nullptr) {
        first_error = std::current_exception();
      }
    }
  }
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }
}

void ServeRuntime::RunTrace(const std::vector<SimTime>& arrivals) {
  PARD_CHECK_MSG(!ran_, "ServeRuntime::RunTrace may run only once");
  ran_ = true;
  PARD_CHECK_MSG(std::is_sorted(arrivals.begin(), arrivals.end()),
                 "arrival timestamps must be sorted");

  clock_.Start();
  for (auto& module : modules_) {
    module->Start();
  }
  if (serve_.broker_threads > 1) {
    for (int i = 0; i < serve_.broker_threads; ++i) {
      broker_pool_.Spawn([this] { BrokerLoop(); });
    }
  }
  control_thread_.Spawn([this] { ControlThread(); });

  try {
    ReplayArrivals(clock_, arrivals, [this](SimTime t) { Inject(t); });

    // Drain: wait for in-flight requests to resolve, bounded by SLO + drain.
    const SimTime last_arrival = arrivals.empty() ? 0 : arrivals.back();
    const SimTime deadline = last_arrival + spec_.slo() + options_.drain;
    const auto poll = static_cast<Duration>(2.0 * kUsPerMs * clock_.speedup());  // 2 wall ms.
    bool drained = AllTerminal();
    while (!drained && clock_.Now() < deadline) {
      clock_.SleepUntil(clock_.Now() + poll);
      drained = AllTerminal();
    }
    // On a deadline hit with work still queued (e.g. a drop-free policy
    // under overload) the backlog is abandoned here rather than served out.
    Shutdown();
  } catch (...) {
    // An injection or module-thread exception must not leave sibling threads
    // running into a destroyed runtime. Shutdown re-throws the first timer
    // thread error, which would mask the in-flight one — so swallow
    // secondary errors here and rethrow the original.
    try {
      Shutdown();
    } catch (...) {
    }
    throw;
  }

  // Conservation: anything still in flight (wedged queue, drain timeout,
  // discarded broker backlog) is accounted as late rather than silently
  // vanishing. Every thread has joined; no lock needed.
  in_flight_.fetch_sub(lifecycle_.AbandonInFlight(clock_.Now()), std::memory_order_release);
}

}  // namespace pard
