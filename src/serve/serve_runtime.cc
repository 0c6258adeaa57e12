#include "serve/serve_runtime.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/lock_order.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "runtime/batch_planner.h"

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
      clock_(serve.speedup),
      board_(spec.NumModules()),
      control_(&spec_, policy, &board_, MakeControlOptions(options, serve)),
      batch_sizes_(PlanBatchSizes(spec_)),
      fleet_(spec_, options.cold_start, options.cost_aware_provisioning),
      rng_(options.seed) {
  PARD_CHECK(serve_.max_total_threads >= spec_.NumModules());
  if (!options_.tenants.empty()) {
    governor_ = std::make_unique<TenantGovernor>(options_.tenants, options_.seed);
  }
  PARD_CHECK_MSG(serve_.broker_threads >= 1, "broker_threads must be >= 1");
  if (!options_.fixed_workers.empty()) {
    PARD_CHECK_MSG(static_cast<int>(options_.fixed_workers.size()) == spec_.NumModules(),
                   "fixed_workers size must match module count");
    worker_plan_ = options_.fixed_workers;
  } else {
    worker_plan_ = PlanWorkers(spec_, batch_sizes_, expected_rate, options_.provision_headroom,
                               options_.max_workers_per_module, options_.total_gpus);
  }
  worker_plan_ = CapTotalWorkers(worker_plan_, serve_.max_total_threads);
  // The deterministic fault schedule, merged and time-sorted. Validated
  // loudly here: a typo'd module id must fail the run, not silently no-op.
  for (const RuntimeOptions::FailureEvent& failure : options_.failures) {
    PARD_CHECK_MSG(failure.module_id >= 0 && failure.module_id < spec_.NumModules(),
                   "failure event targets unknown module " << failure.module_id);
    fault_schedule_.push_back(
        FleetEvent{failure.at, failure.module_id, FleetEvent::Kind::kKill, failure.workers});
  }
  for (const FleetEvent& event : options_.fleet_events) {
    PARD_CHECK_MSG(event.module_id >= 0 && event.module_id < spec_.NumModules(),
                   "fleet event targets unknown module " << event.module_id);
    PARD_CHECK(event.count >= 1);
    fault_schedule_.push_back(event);
  }
  std::stable_sort(fault_schedule_.begin(), fault_schedule_.end(),
                   [](const FleetEvent& a, const FleetEvent& b) { return a.at < b.at; });
  // The chaos schedule, expanded deterministically from the run seed (so a
  // probabilistic schedule injects the same concrete events the simulator
  // would) and validated like the fault schedule.
  PARD_CHECK(options_.resilience.max_retries >= 0);
  PARD_CHECK(options_.resilience.hang_budget >= 0);
  chaos_schedule_ = ExpandChaosSchedule(options_.resilience.chaos, options_.seed);
  for (const ChaosEvent& event : chaos_schedule_) {
    PARD_CHECK_MSG(event.kind == ChaosKind::kStallSync ||
                       (event.module_id >= 0 && event.module_id < spec_.NumModules()),
                   "chaos event targets unknown module " << event.module_id);
  }
  for (const ModuleSpec& m : spec_.modules()) {
    const ModelProfile& profile = ProfileRegistry::Get(m.model);
    planned_batch_duration_.push_back(
        profile.BatchDuration(batch_sizes_[static_cast<std::size_t>(m.id)]));
    modules_.push_back(std::make_unique<ServeModule>(
        this, &fleet_, m, profile, batch_sizes_[static_cast<std::size_t>(m.id)],
        worker_plan_[static_cast<std::size_t>(m.id)], options_));
  }
  if (options_.metrics != nullptr) {
    // Same metric names as the simulator (pipeline_runtime.cc), so the two
    // substrates export comparable series.
    completed_counter_ = options_.metrics->GetCounter("fate.completed");
    for (int r = 1; r < kNumDropReasons; ++r) {
      drop_reason_counters_[r] = options_.metrics->GetCounter(
          std::string("fate.dropped.") + DropReasonName(static_cast<DropReason>(r)));
    }
    retry_counter_ = options_.metrics->GetCounter("resilience.retries");
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
    for (const ModuleSpec& m : spec_.modules()) {
      admitted_counters_.push_back(options_.metrics->GetCounter(
          "module.m" + std::to_string(m.id) + ".admitted"));
    }
    if (governor_ != nullptr) {
      for (const TenantSpec& tenant : options_.tenants) {
        tenant_completed_.push_back(
            options_.metrics->GetCounter("tenant." + tenant.name + ".completed"));
        tenant_dropped_.push_back(
            options_.metrics->GetCounter("tenant." + tenant.name + ".dropped"));
      }
    }
  }
}

bool ServeRuntime::IsTerminal(const Request& req) const {
  LockOrderGuard order(LockRank::kFate);
  std::lock_guard<std::mutex> lock(FateMutex(req));
  return req.Terminal();
}

void ServeRuntime::AssignDynamicPath(Request& req) {
  const int n = spec_.NumModules();
  req.branch_choice.assign(static_cast<std::size_t>(n), -1);
  req.expected_arrivals.assign(static_cast<std::size_t>(n), 0);
  std::vector<bool> active(static_cast<std::size_t>(n), false);
  active[static_cast<std::size_t>(spec_.SourceModule())] = true;
  for (int id : spec_.TopoOrder()) {
    if (!active[static_cast<std::size_t>(id)]) {
      continue;
    }
    const ModuleSpec& m = spec_.Module(id);
    if (m.subs.size() > 1) {
      const int pick = static_cast<int>(
          rng_.UniformInt(0, static_cast<std::int64_t>(m.subs.size()) - 1));
      const int chosen = m.subs[static_cast<std::size_t>(pick)];
      req.branch_choice[static_cast<std::size_t>(id)] = chosen;
      active[static_cast<std::size_t>(chosen)] = true;
      ++req.expected_arrivals[static_cast<std::size_t>(chosen)];
    } else {
      for (int s : m.subs) {
        active[static_cast<std::size_t>(s)] = true;
        ++req.expected_arrivals[static_cast<std::size_t>(s)];
      }
    }
  }
}

void ServeRuntime::Inject(SimTime scheduled) {
  (void)scheduled;  // Open loop: the *actual* instant is the send time.
  const SimTime now = clock_.Now();
  RequestPtr req = std::make_shared<Request>();
  // No lock: the id counter, RNG and request log belong to this (the load
  // generator's) thread; identity fields are immutable once the request is
  // visible to any other thread (runtime/request.h).
  req->id = next_request_id_++;
  req->sent = now;
  req->slo = spec_.slo();
  if (governor_ != nullptr) {
    // Tenant identity is a pure hash of the request id (no RNG draw) and is
    // stamped before the request becomes visible to any other thread.
    req->tenant = governor_->TenantOf(req->id);
    const TenantSpec& tenant = governor_->Tenant(req->tenant);
    req->weight = tenant.weight;
    req->slo = static_cast<Duration>(
        std::llround(static_cast<double>(req->slo) * tenant.slo_scale));
  }
  req->deadline = req->sent + req->slo;
  req->hops.resize(static_cast<std::size_t>(spec_.NumModules()));
  req->merge_arrivals.assign(static_cast<std::size_t>(spec_.NumModules()), 0);
  if (options_.dynamic_paths) {
    AssignDynamicPath(*req);
  }
  requests_.push_back(req);
  in_flight_.fetch_add(1, std::memory_order_release);
  if (governor_ != nullptr && !governor_->AdmitAtIngress(req->id, req->tenant)) {
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
    Deliver(req, spec_.SourceModule(), now);
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
    Deliver(req, spec_.SourceModule(), clock_.Now());
  }
}

void ServeRuntime::Deliver(const RequestPtr& req, int module_id, SimTime now) {
  const ModuleSpec& m = spec_.Module(module_id);
  if (m.pres.size() > 1) {
    // DAG merge: enqueue only once all expected branches delivered. The
    // merge counter shares the request's fate stripe, so a sibling branch's
    // drop and this arrival serialize.
    LockOrderGuard order(LockRank::kFate);
    std::lock_guard<std::mutex> lock(FateMutex(*req));
    int& arrived = req->merge_arrivals[static_cast<std::size_t>(module_id)];
    ++arrived;
    if (req->Terminal()) {
      return;  // A sibling branch was dropped; nothing to merge.
    }
    const int expected = req->HasDynamicPath()
                             ? req->expected_arrivals[static_cast<std::size_t>(module_id)]
                             : static_cast<int>(m.pres.size());
    if (arrived < expected) {
      return;
    }
  }
  // Offered load is counted before admission (like the simulator's
  // bump-then-admit Receive), so shed traffic still drives load_factor.
  modules_[static_cast<std::size_t>(module_id)]->NoteOffered(now);
  // Admission front-end: the paper's proactive drop runs BEFORE the request
  // enters the module queue — enqueue-time admission plus the Request Broker
  // predicate with the delivery instant as the hypothetical batch start. A
  // request that cannot meet its SLO even if a worker picked it up right now
  // never consumes queue space or a broker slot later. Both predicates read
  // the control plane's published snapshot — no control lock on this path.
  if (!control_.AdmitAtModule(*req, module_id, now)) {
    req->hops[static_cast<std::size_t>(module_id)].arrive = now;
    Drop(req, module_id, now, DropReason::kProactiveAdmission);
    return;
  }
  AdmissionContext ctx;
  ctx.request = req.get();
  ctx.module_id = module_id;
  ctx.now = now;
  ctx.batch_start = now;
  ctx.batch_duration = planned_batch_duration_[static_cast<std::size_t>(module_id)];
  ctx.batch_size = batch_sizes_[static_cast<std::size_t>(module_id)];
  if (control_.ShouldDrop(ctx)) {
    req->hops[static_cast<std::size_t>(module_id)].arrive = now;
    req->hops[static_cast<std::size_t>(module_id)].batch_entry = now;
    Drop(req, module_id, now, DropReason::kBrokerCandidate);
    return;
  }
  if (!admitted_counters_.empty()) {
    admitted_counters_[static_cast<std::size_t>(module_id)]->Add();
  }
  if (options_.trace != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kAdmit;
    ev.module = module_id;
    ev.request_id = req->id;
    ev.ts = now;
    options_.trace->EmitSampled(ev);
  }
  modules_[static_cast<std::size_t>(module_id)]->Receive(req);
}

void ServeRuntime::OnModuleDone(const RequestPtr& req, int module_id, SimTime now) {
  if (IsTerminal(*req)) {
    return;  // Dropped on a parallel branch while this one executed.
  }
  const ModuleSpec& m = spec_.Module(module_id);
  if (m.subs.empty()) {
    Complete(req, now);
    return;
  }
  if (req->HasDynamicPath() && m.subs.size() > 1) {
    Deliver(req, req->branch_choice[static_cast<std::size_t>(module_id)], now);
    return;
  }
  for (int sub : m.subs) {
    Deliver(req, sub, now);
  }
}

void ServeRuntime::Drop(const RequestPtr& req, int module_id, SimTime now,
                        DropReason reason) {
  {
    LockOrderGuard order(LockRank::kFate);
    std::lock_guard<std::mutex> lock(FateMutex(*req));
    if (req->Terminal()) {
      return;
    }
    req->fate = RequestFate::kDropped;
    req->drop_module = module_id;
    req->finish = now;
    req->drop_reason = reason;
    in_flight_.fetch_sub(1, std::memory_order_release);
  }
  // Instrumentation outside the fate stripe: counters and trace shards are
  // lock-free, but keeping the stripe's critical section minimal keeps the
  // traced and untraced paths contention-identical.
  if (drop_reason_counters_[static_cast<int>(reason)] != nullptr) {
    drop_reason_counters_[static_cast<int>(reason)]->Add();
  }
  if (req->tenant >= 0 && !tenant_dropped_.empty()) {
    tenant_dropped_[static_cast<std::size_t>(req->tenant)]->Add();
  }
  if (options_.trace != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kFate;
    ev.module = module_id;
    ev.request_id = req->id;
    ev.ts = now;
    ev.arg0 = static_cast<std::int64_t>(RequestFate::kDropped);
    ev.arg1 = static_cast<std::int64_t>(reason);
    options_.trace->EmitSampled(ev);
  }
}

void ServeRuntime::RetryOrDrop(const RequestPtr& req, int module_id, SimTime now) {
  if (IsTerminal(*req)) {
    return;  // Resolved on another branch; nothing left to rescue.
  }
  const ResilienceOptions& res = options_.resilience;
  if (res.max_retries > 0) {
    if (req->retry_count >= res.max_retries) {
      Drop(req, module_id, now, DropReason::kRetryExhausted);
      return;
    }
    // Deadline-aware: re-enqueue only when the remaining budget could still
    // cover this stage's planned batch duration — a request that cannot
    // finish even if picked up immediately is dead capacity.
    if (req->RemainingBudget(now) >
        planned_batch_duration_[static_cast<std::size_t>(module_id)]) {
      ++req->retry_count;  // Single writer: the thread that owned the batch.
      retries_.fetch_add(1, std::memory_order_relaxed);
      if (retry_counter_ != nullptr) {
        retry_counter_->Add();
      }
      if (options_.trace != nullptr) {
        TraceEvent ev;
        ev.kind = TraceEventKind::kRetry;
        ev.module = module_id;
        ev.request_id = req->id;
        ev.ts = now;
        ev.arg0 = req->retry_count;
        options_.trace->EmitSampled(ev);
      }
      // Straight back into the module's queue shards: admission already
      // passed at delivery, and re-running NoteOffered/merge bookkeeping
      // would double-count this request.
      modules_[static_cast<std::size_t>(module_id)]->Receive(req);
      return;
    }
  }
  Drop(req, module_id, now, DropReason::kWorkerFailure);
}

void ServeRuntime::Complete(const RequestPtr& req, SimTime now) {
  RequestFate fate;
  {
    LockOrderGuard order(LockRank::kFate);
    std::lock_guard<std::mutex> lock(FateMutex(*req));
    if (req->Terminal()) {
      return;
    }
    req->finish = now;
    fate = now <= req->deadline ? RequestFate::kCompleted : RequestFate::kLate;
    req->fate = fate;
    if (fate == RequestFate::kLate) {
      req->drop_reason = DropReason::kSloLate;
    }
    in_flight_.fetch_sub(1, std::memory_order_release);
  }
  if (options_.metrics != nullptr) {
    if (fate == RequestFate::kCompleted) {
      completed_counter_->Add();
    } else {
      drop_reason_counters_[static_cast<int>(DropReason::kSloLate)]->Add();
    }
    if (req->tenant >= 0 && !tenant_completed_.empty()) {
      (fate == RequestFate::kCompleted
           ? tenant_completed_[static_cast<std::size_t>(req->tenant)]
           : tenant_dropped_[static_cast<std::size_t>(req->tenant)])
          ->Add();
    }
  }
  if (options_.trace != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kFate;
    ev.module = -1;
    ev.request_id = req->id;
    ev.ts = now;
    ev.arg0 = static_cast<std::int64_t>(fate);
    ev.arg1 = static_cast<std::int64_t>(
        fate == RequestFate::kLate ? DropReason::kSloLate : DropReason::kNone);
    options_.trace->EmitSampled(ev);
  }
}

void ServeRuntime::ScalingTick(SimTime now) {
  FleetSample sample;
  sample.t = now;
  for (auto& module : modules_) {
    const double rate = module->SmoothedInputRate(now);
    const double per_worker = module->PerWorkerThroughput();
    // Same engine as PipelineRuntime::ScalingTick: target capacity in
    // baseline-worker units from the smoothed offered rate.
    double target_units = fleet_.ProvisionedUnits(module->module_id());
    if (rate > 0.0 && per_worker > 0.0) {
      target_units = rate * options_.provision_headroom / per_worker;
    }
    // Real threads are capped fleet-wide; scale-ups spend the remaining
    // thread budget, scale-downs always apply.
    const int budget = serve_.max_total_threads - fleet_.TotalProvisioned();
    module->SetTargetUnits(target_units, now, std::max(0, budget));
    sample.workers.push_back(fleet_.ActiveCount(module->module_id()));
  }
  worker_history_.push_back(std::move(sample));
}

void ServeRuntime::ControlLoop() {
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
    if (next_fault < fault_schedule_.size()) {
      wake = std::min(wake, fault_schedule_[next_fault].at);
    }
    if (next_chaos < chaos_schedule_.size()) {
      wake = std::min(wake, chaos_schedule_[next_chaos].at);
    }
    if (next_watchdog >= 0) {
      wake = std::min(wake, next_watchdog);
    }
    clock_.SleepUntil(wake);
    if (stop_control_.load(std::memory_order_relaxed)) {
      return;
    }
    const SimTime now = clock_.Now();
    // Deterministic fault schedule first: kill/recover exactly as scheduled
    // (transitions are logged at the scheduled instant).
    while (next_fault < fault_schedule_.size() && fault_schedule_[next_fault].at <= now) {
      const FleetEvent& event = fault_schedule_[next_fault++];
      ServeModule& module = *modules_[static_cast<std::size_t>(event.module_id)];
      if (event.kind == FleetEvent::Kind::kKill) {
        module.FailWorkers(event.count, event.at);
      } else {
        // Recovery spends the remaining thread budget like any scale-up —
        // a fault schedule cannot push past the fleet-wide thread cap.
        const int budget =
            std::max(0, serve_.max_total_threads - fleet_.TotalProvisioned());
        module.AddWorkers(std::min(event.count, budget), event.at);
      }
      if (options_.trace != nullptr) {
        TraceEvent ev;
        ev.kind = TraceEventKind::kFleet;
        ev.module = event.module_id;
        ev.ts = event.at;
        ev.arg0 = event.kind == FleetEvent::Kind::kKill ? 0 : 1;
        ev.arg1 = event.count;
        options_.trace->Emit(ev);
      }
    }
    // Chaos schedule: hang/slow land on the target module; stall-sync arms
    // the sync-skip window below.
    while (next_chaos < chaos_schedule_.size() && chaos_schedule_[next_chaos].at <= now) {
      const ChaosEvent& event = chaos_schedule_[next_chaos++];
      switch (event.kind) {
        case ChaosKind::kHang:
          modules_[static_cast<std::size_t>(event.module_id)]->HangWorkers(
              event.count, event.duration, now);
          break;
        case ChaosKind::kSlow:
          modules_[static_cast<std::size_t>(event.module_id)]->SetSlowdown(
              event.factor, event.at + event.duration);
          break;
        case ChaosKind::kStallSync:
          sync_stalled_until = std::max(sync_stalled_until, event.at + event.duration);
          break;
      }
      if (options_.trace != nullptr) {
        TraceEvent ev;
        ev.kind = TraceEventKind::kChaos;
        ev.module = event.module_id;
        ev.ts = event.at;
        ev.arg0 = static_cast<std::int64_t>(event.kind);
        ev.arg1 = event.kind == ChaosKind::kHang ? event.count
                                                 : static_cast<std::int64_t>(event.duration);
        options_.trace->Emit(ev);
      }
    }
    // Watchdog: force-fail busy workers with stale heartbeats and provision
    // replacements from the remaining thread budget.
    if (next_watchdog >= 0 && now >= next_watchdog) {
      for (auto& module : modules_) {
        const int killed = module->WatchdogSweep(now, hang_budget);
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
        module->AddWorkers(std::min(killed, budget), now);
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
      std::vector<ModuleState> states;
      states.reserve(modules_.size());
      for (auto& module : modules_) {
        states.push_back(module->Snapshot(now));  // Shard locks, one at a time.
      }
      if (governor_ != nullptr) {
        // Weighted shed plan from the same states the brokers are about to
        // read — the governor is never fresher than the snapshot.
        governor_->Resync(states);
      }
      // Publishes a fresh immutable snapshot for the brokers — entirely off
      // the control lock on the snapshot path. Timed in wall-clock terms:
      // sync cost is real CPU work, not virtual time.
      const auto sync_begin = std::chrono::steady_clock::now();
      const ControlPlane::SyncStats sync_stats = control_.Sync(std::move(states), now);
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

void ServeRuntime::Shutdown(bool abandon_backlog) {
  // Brokers go first: on a drained run their backlog is empty (a backlogged
  // request is non-terminal, so the drain loop would still be waiting); on
  // the abandon path the backlog is discarded — the conservation sweep
  // accounts those requests kLate.
  {
    std::lock_guard<std::mutex> lock(broker_mu_);
    broker_stop_ = true;
    if (abandon_backlog) {
      broker_backlog_.clear();
    }
  }
  broker_ready_.notify_all();
  broker_pool_.Join();
  // The sampler only reads the registry; stop it before the control thread
  // so its final sample still sees live gauges (bounded by one clock sleep).
  stop_sampler_.store(true, std::memory_order_relaxed);
  sampler_thread_.Join();
  // The control thread next: once it is joined, no scaling tick or fault
  // event can spawn a worker thread while the module groups join.
  stop_control_.store(true, std::memory_order_relaxed);
  control_thread_.Join();
  // Topo order: once module k's workers have joined, nothing can deliver to
  // k's successors, so each successor sees its final queue before its own
  // stop flag is observed with an empty queue. On the abandon path the
  // backlog is discarded instead of served; upstream joins first, so each
  // module re-discards at most the handful of batches its predecessors had
  // in flight.
  for (int id : spec_.TopoOrder()) {
    ServeModule& module = *modules_[static_cast<std::size_t>(id)];
    if (abandon_backlog) {
      module.Abort();
    } else {
      module.RequestStop();
    }
    module.Join();
    if (abandon_backlog) {
      module.Abort();  // Re-discard what upstream forwarded while joining.
    }
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
    // Deadline hit with work still queued (e.g. a drop-free policy under
    // overload): abandon the backlog so the run actually ends here instead
    // of serving it out.
    Shutdown(/*abandon_backlog=*/!drained);
  } catch (...) {
    // A worker/injector exception must not leave sibling threads parked on
    // their condition variables (member destructors would join forever).
    // Module joins rethrow the FIRST worker error, which would mask the
    // in-flight one — so swallow secondary errors here and rethrow the
    // original.
    try {
      Shutdown(/*abandon_backlog=*/true);
    } catch (...) {
    }
    throw;
  }

  // Conservation: anything still in flight (wedged queue, drain timeout,
  // discarded broker backlog) is accounted as late rather than silently
  // vanishing. Every thread has joined; no lock needed.
  const SimTime now = clock_.Now();
  for (const RequestPtr& req : requests_) {
    if (!req->Terminal()) {
      req->fate = RequestFate::kLate;
      req->finish = now;
      req->drop_reason = DropReason::kDrainAbandoned;
      in_flight_.fetch_sub(1, std::memory_order_release);
      if (drop_reason_counters_[static_cast<int>(DropReason::kDrainAbandoned)] !=
          nullptr) {
        drop_reason_counters_[static_cast<int>(DropReason::kDrainAbandoned)]
            ->Add();
      }
      if (req->tenant >= 0 && !tenant_dropped_.empty()) {
        tenant_dropped_[static_cast<std::size_t>(req->tenant)]->Add();
      }
    }
  }
}

}  // namespace pard
