#include "serve/serve_runtime.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "common/check.h"
#include "common/lock_order.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "runtime/batch_planner.h"
#include "stats/empirical_distribution.h"

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

ControlPlane::Options MakeControlOptions(const RuntimeOptions& options,
                                         const ServeOptions& serve) {
  ControlPlane::Options control;
  control.seed = options.seed;
  control.staleness_budget = options.resilience.staleness_budget;
  control.parallel_refresh = serve.parallel_refresh;
  control.refresh_threads = serve.refresh_threads;
  return control;
}

}  // namespace

ServeRuntime::ServeRuntime(const PipelineSpec& spec, const RuntimeOptions& options,
                           DropPolicy* policy, double expected_rate, const ServeOptions& serve)
    : spec_(spec),
      options_(options),
      serve_(serve),
      lifecycle_(spec_, options_),
      clock_(serve.speedup),
      board_(spec.NumModules()),
      control_(&spec_, policy, &board_, MakeControlOptions(options, serve)),
      fleet_(spec_, options.cold_start, options.cost_aware_provisioning),
      sync_states_(static_cast<std::size_t>(spec.NumModules())) {
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
  if (options_.metrics != nullptr) {
    watchdog_counter_ = options_.metrics->GetCounter("resilience.watchdog_kills");
    // Control-sync tail: wall-clock Sync() cost per epoch. 0..20 ms in
    // 0.5 ms buckets comfortably brackets both the incremental fast path
    // (tens of us) and a pathological full recompute.
    sync_duration_hist_ =
        options_.metrics->GetHistogram("control.sync_duration_us", 0.0, 20000.0, 40);
    refresh_refreshed_counter_ =
        options_.metrics->GetCounter("control.refresh_modules_refreshed");
    refresh_skipped_counter_ =
        options_.metrics->GetCounter("control.refresh_modules_skipped");
  }
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
  // request log) belongs to this (the load generator's) thread; identity
  // fields and the drawn route are immutable once the request is visible to
  // any other thread (runtime/request.h).
  RequestPtr req = lifecycle_.NewRequest();
  const bool admitted = lifecycle_.Inject(req, now);
  in_flight_.fetch_add(1, std::memory_order_release);
  if (!admitted) {
    // Weighted ingress shed: lock-free threshold read on this (the load
    // generator's) thread; the request is recorded for conservation but
    // never reaches the broker backlog or any module queue.
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

void ServeRuntime::ScalingTick(SimTime now) {
  FleetSample sample;
  sample.t = now;
  for (auto& module : modules_) {
    const double target_units =
        lifecycle_.ScalingTarget(module->SmoothedInputRate(), module->PerWorkerThroughput(),
                                 fleet_.ProvisionedUnits(module->module_id()));
    // Workers are capped fleet-wide; scale-ups spend the remaining budget,
    // scale-downs always apply.
    const int budget = serve_.max_total_threads - fleet_.TotalProvisioned();
    module->SetTargetUnits(target_units, std::max(0, budget));
    sample.workers.push_back(fleet_.ActiveCount(module->module_id()));
  }
  worker_history_.push_back(std::move(sample));
}

void ServeRuntime::ControlLoop() {
  const std::vector<FleetEvent>& faults = lifecycle_.fault_schedule();
  const std::vector<ChaosEvent>& chaos = lifecycle_.chaos_schedule();
  SimTime next_sync = options_.sync_period;
  SimTime next_scale = options_.enable_scaling ? options_.scaling_epoch : -1;
  std::size_t next_fault = 0;
  std::size_t next_chaos = 0;
  // Watchdog cadence: a fraction of the hang budget, so a hang is detected
  // within budget + one sweep period (floored to keep the control thread
  // from spinning under a tiny budget).
  const Duration hang_budget = options_.resilience.hang_budget;
  const Duration watchdog_period =
      hang_budget > 0 ? std::max<Duration>(hang_budget / 4, 10 * kUsPerMs) : 0;
  SimTime next_watchdog = hang_budget > 0 ? watchdog_period : -1;
  // stall-sync chaos: sync epochs falling inside the stall window are
  // skipped, so the published snapshot ages exactly as a wedged sync thread
  // would leave it.
  SimTime sync_stalled_until = 0;
  while (!stop_control_.load(std::memory_order_relaxed)) {
    SimTime wake = next_sync;
    if (next_scale >= 0) {
      wake = std::min(wake, next_scale);
    }
    if (next_fault < faults.size()) {
      wake = std::min(wake, faults[next_fault].at);
    }
    if (next_chaos < chaos.size()) {
      wake = std::min(wake, chaos[next_chaos].at);
    }
    if (next_watchdog >= 0) {
      wake = std::min(wake, next_watchdog);
    }
    clock_.SleepUntil(wake);
    if (stop_control_.load(std::memory_order_relaxed)) {
      return;
    }
    const SimTime now = clock_.Now();
    // Deterministic fault schedule first: kill/recover as scheduled, applied
    // (and logged in the fleet) when this thread wakes for it.
    while (next_fault < faults.size() && faults[next_fault].at <= now) {
      const FleetEvent& event = faults[next_fault++];
      ServeModule& module = *modules_[static_cast<std::size_t>(event.module_id)];
      if (event.kind == FleetEvent::Kind::kKill) {
        module.FailWorkers(event.count);
      } else {
        // Recovery spends the remaining worker budget like any scale-up — a
        // fault schedule cannot push past the fleet-wide cap.
        const int budget =
            std::max(0, serve_.max_total_threads - fleet_.TotalProvisioned());
        module.AddWorkers(std::min(event.count, budget));
      }
      lifecycle_.TraceFleetEvent(event);
    }
    // Chaos schedule: hang/slow land on the target module; stall-sync arms
    // the sync-skip window below.
    while (next_chaos < chaos.size() && chaos[next_chaos].at <= now) {
      const ChaosEvent& event = chaos[next_chaos++];
      switch (event.kind) {
        case ChaosKind::kHang:
          modules_[static_cast<std::size_t>(event.module_id)]->HangWorkers(event.count,
                                                                           event.duration);
          break;
        case ChaosKind::kSlow:
          modules_[static_cast<std::size_t>(event.module_id)]->SetSlowdown(
              event.factor, event.at + event.duration);
          break;
        case ChaosKind::kStallSync:
          sync_stalled_until = std::max(sync_stalled_until, event.at + event.duration);
          break;
      }
      lifecycle_.TraceChaosEvent(event);
    }
    // Watchdog: fail workers hung past the budget and provision
    // replacements from the remaining worker budget.
    if (next_watchdog >= 0 && now >= next_watchdog) {
      for (auto& module : modules_) {
        const int killed = module->FailHungWorkers(hang_budget);
        if (killed == 0) {
          continue;
        }
        watchdog_kills_.fetch_add(static_cast<std::uint64_t>(killed),
                                  std::memory_order_relaxed);
        if (watchdog_counter_ != nullptr) {
          watchdog_counter_->Add(killed);
        }
        const int budget =
            std::max(0, serve_.max_total_threads - fleet_.TotalProvisioned());
        module->AddWorkers(std::min(killed, budget));
        if (options_.trace != nullptr) {
          TraceEvent ev;
          ev.kind = TraceEventKind::kWatchdog;
          ev.module = module->module_id();
          ev.ts = now;
          ev.arg0 = killed;
          options_.trace->Emit(ev);
        }
      }
      next_watchdog = now + watchdog_period;
    }
    if (next_scale >= 0 && now >= next_scale) {
      ScalingTick(now);
      next_scale += options_.scaling_epoch;
    }
    if (now >= next_sync && now < sync_stalled_until) {
      // stall-sync chaos: skip this epoch; the snapshot published before the
      // stall keeps serving readers (and aging toward the staleness budget).
      next_sync += options_.sync_period;
    } else if (now >= next_sync) {
      // One module lock at a time; each state refills the buffers the board
      // handed back at the previous sync. Only the copy holds the module's
      // lock; the samples sort after it is released.
      for (std::size_t i = 0; i < modules_.size(); ++i) {
        modules_[i]->Sync(sync_states_[i]);
        SortSamples(sync_states_[i].wait_samples, sort_scratch_);
      }
      // Weighted shed plan from the same states the brokers are about to
      // read — the governor is never fresher than the snapshot.
      lifecycle_.ResyncGovernor(sync_states_);
      // Publishes a fresh immutable snapshot for the brokers, holding no
      // lock. Timed in wall-clock terms: sync cost is real CPU work, not
      // virtual time.
      const auto sync_begin = std::chrono::steady_clock::now();
      const ControlPlane::SyncStats sync_stats = control_.Sync(sync_states_, now);
      const auto sync_wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                    std::chrono::steady_clock::now() - sync_begin)
                                    .count();
      if (options_.trace != nullptr) {
        TraceEvent ev;
        ev.kind = TraceEventKind::kEpochSync;
        ev.module = -1;
        ev.ts = now;
        ev.arg0 = static_cast<std::int64_t>(control_.SnapshotEpoch());
        options_.trace->Emit(ev);
        TraceEvent refresh_ev;
        refresh_ev.kind = TraceEventKind::kControlRefresh;
        refresh_ev.module = -1;
        refresh_ev.ts = now;
        refresh_ev.dur = sync_wall_us;
        refresh_ev.arg0 = sync_stats.refreshed;
        refresh_ev.arg1 = sync_stats.skipped;
        options_.trace->Emit(refresh_ev);
      }
      if (sync_duration_hist_ != nullptr) {
        sync_duration_hist_->Observe(static_cast<double>(sync_wall_us));
        refresh_refreshed_counter_->Add(sync_stats.refreshed);
        refresh_skipped_counter_->Add(sync_stats.skipped);
      }
      if (options_.metrics != nullptr) {
        options_.metrics->GetGauge("control.snapshot_epoch")
            ->Set(static_cast<std::int64_t>(control_.SnapshotEpoch()));
        // How far behind schedule this sync ran (virtual us): the sampler's
        // view of control-plane health under load.
        options_.metrics->GetGauge("control.sync_lag_us")->Set(now - next_sync);
        options_.metrics->GetGauge("resilience.stale_fallbacks")
            ->Set(static_cast<std::int64_t>(control_.StaleFallbacks()));
      }
      next_sync += options_.sync_period;
    }
  }
}

void ServeRuntime::SamplerLoop() {
  SimTime next = options_.metrics_interval;
  while (!stop_sampler_.load(std::memory_order_relaxed)) {
    clock_.SleepUntil(next);
    if (stop_sampler_.load(std::memory_order_relaxed)) {
      return;
    }
    options_.metrics->Sample(clock_.Now());
    next += options_.metrics_interval;
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
  // The sampler only reads the registry; stop it before the control thread
  // so its final sample still sees live gauges (bounded by one clock sleep).
  stop_sampler_.store(true, std::memory_order_relaxed);
  sampler_thread_.Join();
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
  control_thread_.Spawn([this] { ControlLoop(); });
  if (options_.metrics != nullptr && options_.metrics_interval > 0) {
    sampler_thread_.Spawn([this] { SamplerLoop(); });
  }

  try {
    LoadGenerator generator(&clock_, arrivals, [this](SimTime t) { Inject(t); });
    generator.Start();
    generator.Join();

    // Drain: wait for in-flight requests to resolve, bounded by SLO + drain.
    const SimTime deadline = generator.LastArrival() + spec_.slo() + serve_.drain;
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
    // An injector or module-thread exception must not leave sibling threads
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
