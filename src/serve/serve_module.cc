#include "serve/serve_module.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/lock_order.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "serve/serve_runtime.h"

namespace pard {

ServeModule::ServeModule(ServeRuntime* runtime, BackendFleet* fleet, const ModuleSpec& spec,
                         const ModelProfile& profile, int batch_size, int workers,
                         const RuntimeOptions& options)
    : runtime_(runtime),
      fleet_(fleet),
      spec_(spec),
      profile_(profile),
      batch_size_(batch_size),
      initial_workers_(workers),
      options_(options) {
  PARD_CHECK(batch_size_ >= 1);
  PARD_CHECK(initial_workers_ >= 1);
  PARD_CHECK(fleet_ != nullptr);
  // One shard per initial worker (capped): enough to spread contention while
  // keeping the steal scan and the per-shard monitor slices cheap to merge.
  const int num_shards = std::min(std::max(initial_workers_, 1), 8);
  const std::size_t reservoir_per_shard = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.reservoir_capacity) /
             static_cast<std::size_t>(num_shards));
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<QueueShard>(options.stats_window, reservoir_per_shard));
  }
  if (options_.metrics != nullptr) {
    const std::string prefix = "module.m" + std::to_string(spec_.id) + ".";
    executed_counter_ = options_.metrics->GetCounter(prefix + "executed");
    steal_counter_ = options_.metrics->GetCounter(prefix + "steals");
    batch_size_hist_ = options_.metrics->GetHistogram(
        prefix + "batch_size", 0.0, static_cast<double>(batch_size_) + 1.0,
        static_cast<std::size_t>(batch_size_) + 1);
    for (int i = 0; i < num_shards; ++i) {
      depth_gauges_.push_back(options_.metrics->GetGauge(
          prefix + "shard" + std::to_string(i) + ".depth"));
    }
  }
}

void ServeModule::SpawnWorker(bool warm, SimTime now) {
  const BackendSlot slot = fleet_->Provision(spec_.id, now);
  if (warm) {
    fleet_->SetState(spec_.id, slot.worker_id, BackendState::kActive, now);
  }
  const int index = spawned_++;
  const int home = index % static_cast<int>(shards_.size());
  // Worker-private jitter stream: forked per slot so batch jitter needs no
  // shared RNG (and no lock) on the execution path.
  Rng jitter = Rng(options_.seed)
                   .Fork("serve-jitter:" + std::to_string(spec_.id) + ":" +
                         std::to_string(index));
  ServeWorker* worker = nullptr;
  {
    LockOrderGuard order(LockRank::kModule);
    std::lock_guard<std::mutex> lock(mu_);
    roster_.push_back(
        std::make_unique<ServeWorker>(slot, /*cold=*/!warm, now, home, jitter));
    worker = roster_.back().get();
  }
  workers_.Spawn([this, worker] { WorkerLoop(worker); });
}

void ServeModule::Start() {
  for (int i = 0; i < initial_workers_; ++i) {
    SpawnWorker(/*warm=*/true, 0);  // The initial fleet starts warm.
  }
}

int ServeModule::AddWorkers(int count, SimTime now) {
  // Per-module worker cap, exactly like the simulator's recovery path.
  count = std::min(count,
                   options_.max_workers_per_module - fleet_->ProvisionedCount(spec_.id));
  for (int i = 0; i < count; ++i) {
    SpawnWorker(/*warm=*/false, now);
  }
  return std::max(0, count);
}

int ServeModule::FailWorkers(int count, SimTime now) {
  int killed = 0;
  {
    LockOrderGuard order(LockRank::kModule);
    std::lock_guard<std::mutex> lock(mu_);
    // Oldest active workers first, mirroring ModuleRuntime::FailWorkers.
    for (auto& entry : roster_) {
      if (killed >= count) {
        break;
      }
      ServeWorker& w = *entry;
      if (w.kill.load(std::memory_order_relaxed)) {
        continue;
      }
      if (fleet_->State(spec_.id, w.slot.worker_id) != BackendState::kActive) {
        continue;
      }
      w.kill.store(true, std::memory_order_release);
      fleet_->SetState(spec_.id, w.slot.worker_id, BackendState::kFailed, now);
      ++killed;
    }
  }
  work_ready_.notify_all();
  return killed;
}

int ServeModule::HangWorkers(int count, Duration duration, SimTime now) {
  const SimTime until =
      duration > 0 ? now + duration : std::numeric_limits<SimTime>::max();
  int hung = 0;
  {
    LockOrderGuard order(LockRank::kModule);
    std::lock_guard<std::mutex> lock(mu_);
    // Oldest active workers first, like FailWorkers.
    for (auto& entry : roster_) {
      if (hung >= count) {
        break;
      }
      ServeWorker& w = *entry;
      if (w.kill.load(std::memory_order_relaxed) ||
          w.drain.load(std::memory_order_relaxed) ||
          w.hang_until.load(std::memory_order_relaxed) > now) {
        continue;
      }
      if (fleet_->State(spec_.id, w.slot.worker_id) != BackendState::kActive) {
        continue;
      }
      w.hang_until.store(until, std::memory_order_release);
      ++hung;
    }
  }
  return hung;
}

void ServeModule::SetSlowdown(double factor, SimTime until) {
  PARD_CHECK(factor > 0.0);
  slow_factor_.store(factor, std::memory_order_relaxed);
  slow_until_.store(until, std::memory_order_release);
}

int ServeModule::WatchdogSweep(SimTime now, Duration budget) {
  int killed = 0;
  {
    LockOrderGuard order(LockRank::kModule);
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& entry : roster_) {
      ServeWorker& w = *entry;
      if (w.kill.load(std::memory_order_relaxed) ||
          w.drain.load(std::memory_order_relaxed)) {
        continue;
      }
      // Only busy workers owe a heartbeat: an idle worker parked on the
      // condition variable has nothing in flight and nothing to recover.
      if (!w.busy.load(std::memory_order_acquire)) {
        continue;
      }
      if (now - w.heartbeat.load(std::memory_order_acquire) <= budget) {
        continue;
      }
      if (fleet_->State(spec_.id, w.slot.worker_id) != BackendState::kActive) {
        continue;
      }
      // Hung past the budget: force-fail through the same path as a fault-
      // schedule kill. The worker observes `kill` and routes its in-flight
      // batch through the runtime's retry path on its way out.
      w.kill.store(true, std::memory_order_release);
      fleet_->SetState(spec_.id, w.slot.worker_id, BackendState::kFailed, now);
      ++killed;
    }
  }
  if (killed > 0) {
    work_ready_.notify_all();
  }
  return killed;
}

int ServeModule::SetTargetUnits(double target_units, SimTime now, int max_new_threads) {
  target_units =
      std::clamp(target_units, 1.0, static_cast<double>(options_.max_workers_per_module));
  int added = 0;
  double provisioned = fleet_->ProvisionedUnits(spec_.id);
  while (provisioned < target_units && added < max_new_threads &&
         fleet_->ProvisionedCount(spec_.id) < options_.max_workers_per_module) {
    AddWorkers(1, now);
    ++added;
    provisioned = fleet_->ProvisionedUnits(spec_.id);
  }
  if (added == 0 && provisioned > target_units) {
    bool any = false;
    {
      LockOrderGuard order(LockRank::kModule);
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = roster_.rbegin(); it != roster_.rend(); ++it) {
        ServeWorker& w = **it;
        if (w.kill.load(std::memory_order_relaxed) ||
            w.drain.load(std::memory_order_relaxed)) {
          continue;
        }
        const BackendState state = fleet_->State(spec_.id, w.slot.worker_id);
        if (state != BackendState::kActive && state != BackendState::kColdStarting) {
          continue;
        }
        if (provisioned - w.slot.speed < target_units) {
          continue;  // Removing this worker would undershoot the target.
        }
        w.drain.store(true, std::memory_order_release);
        fleet_->SetState(spec_.id, w.slot.worker_id, BackendState::kDraining, now);
        provisioned -= w.slot.speed;
        any = true;
      }
    }
    if (any) {
      work_ready_.notify_all();
    }
  }
  return added;
}

void ServeModule::NoteOffered(SimTime now) {
  QueueShard& shard =
      *shards_[offered_cursor_.fetch_add(1, std::memory_order_relaxed) % shards_.size()];
  LockOrderGuard order(LockRank::kQueueShard);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.rate_monitor.Bump(shard.Monotonic(now));
}

void ServeModule::Receive(RequestPtr req) {
  const SimTime now = runtime_->clock().Now();
  const std::size_t shard_index =
      push_cursor_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  QueueShard& shard = *shards_[shard_index];
  if (!depth_gauges_.empty()) {
    depth_gauges_[shard_index]->Add(1);
  }
  {
    LockOrderGuard order(LockRank::kQueueShard);
    std::lock_guard<std::mutex> lock(shard.mu);
    req->hops[static_cast<std::size_t>(spec_.id)].arrive = now;
    shard.queue.Push(std::move(req));
  }
  queued_.fetch_add(1, std::memory_order_release);
  {
    // Empty critical section: a worker that observed queued_ == 0 is either
    // before its wait (will re-check the predicate) or inside it (this
    // lock/unlock orders our increment before the notify it will receive).
    LockOrderGuard order(LockRank::kModule);
    std::lock_guard<std::mutex> lock(mu_);
  }
  work_ready_.notify_one();
}

void ServeModule::RequestStop() {
  stopping_.store(true, std::memory_order_release);
  {
    LockOrderGuard order(LockRank::kModule);
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_ready_.notify_all();
}

void ServeModule::Abort() {
  stopping_.store(true, std::memory_order_release);
  {
    LockOrderGuard order(LockRank::kModule);
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    QueueShard& shard = *shards_[i];
    LockOrderGuard order(LockRank::kQueueShard);
    std::lock_guard<std::mutex> lock(shard.mu);
    while (!shard.queue.Empty()) {
      shard.queue.Pop(PopSide::kOldest);  // Discard; leftovers are swept kLate.
      queued_.fetch_sub(1, std::memory_order_relaxed);
      if (!depth_gauges_.empty()) {
        depth_gauges_[i]->Add(-1);
      }
    }
  }
  work_ready_.notify_all();
}

void ServeModule::Join() { workers_.Join(); }

void ServeModule::FormBatchFromShard(QueueShard& shard, int shard_index,
                                     bool stolen, SimTime now, Duration d_k,
                                     std::vector<RequestPtr>* batch) {
  ControlPlane& control = runtime_->control();
  TraceRecorder* trace = runtime_->trace();
  std::int64_t popped = 0;
  std::int64_t stolen_count = 0;
  {
    LockOrderGuard order(LockRank::kQueueShard);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (control.PurgeExpired()) {
      // Deadline already passed while queued: unservable under any policy.
      while (shard.queue.MinDeadline() < now) {
        RequestPtr expired = shard.queue.Pop(PopSide::kMinBudget);
        if (expired == nullptr) {
          break;
        }
        queued_.fetch_sub(1, std::memory_order_relaxed);
        ++popped;
        if (!runtime_->IsTerminal(*expired)) {
          HopRecord& hop = expired->hops[static_cast<std::size_t>(spec_.id)];
          // Same clamp as the dispatch path below: `now` predates the shard
          // lock, so it can trail a fresh push's arrive stamp.
          hop.batch_entry = std::max(now, hop.arrive);
          runtime_->Drop(expired, spec_.id, now, DropReason::kPurgeExpired);
        }
      }
    }
    while (static_cast<int>(batch->size()) < batch_size_ && !shard.queue.Empty()) {
      const PopSide side = control.ChoosePopSide(spec_.id, now);
      RequestPtr req = shard.queue.Pop(side);
      if (req == nullptr) {
        break;
      }
      queued_.fetch_sub(1, std::memory_order_relaxed);
      ++popped;
      if (runtime_->IsTerminal(*req)) {
        continue;  // Dropped on another DAG branch while queued here.
      }
      HopRecord& hop = req->hops[static_cast<std::size_t>(spec_.id)];
      // `now` was read before this shard's lock was taken, so a request
      // pushed (and arrive-stamped) in that window can carry an arrive a few
      // virtual microseconds ahead of it; clamp so hop records stay monotone.
      hop.batch_entry = std::max(now, hop.arrive);
      AdmissionContext ctx;
      ctx.request = req.get();
      ctx.module_id = spec_.id;
      ctx.now = now;
      // A pull-based worker is free when it forms: the batch starts now.
      ctx.batch_start = now;
      ctx.batch_duration = d_k;
      ctx.batch_size = batch_size_;
      if (control.ShouldDrop(ctx)) {
        runtime_->Drop(req, spec_.id, now, DropReason::kBrokerCandidate);
        continue;
      }
      shard.queue_delay_window.Add(shard.Monotonic(now),
                                   static_cast<double>(hop.QueueDelay()));
      if (stolen) {
        ++stolen_count;
        if (trace != nullptr && trace->Sampled(req->id)) {
          TraceEvent ev;
          ev.kind = TraceEventKind::kSteal;
          ev.module = spec_.id;
          ev.request_id = req->id;
          ev.ts = now;
          ev.arg0 = shard_index;
          trace->Emit(ev);
        }
      }
      batch->push_back(std::move(req));
    }
  }
  if (popped > 0 && !depth_gauges_.empty()) {
    depth_gauges_[static_cast<std::size_t>(shard_index)]->Add(-popped);
  }
  if (stolen_count > 0 && steal_counter_ != nullptr) {
    steal_counter_->Add(stolen_count);
  }
}

std::vector<RequestPtr> ServeModule::FormBatch(int home_shard, SimTime now) {
  std::vector<RequestPtr> batch;
  batch.reserve(static_cast<std::size_t>(batch_size_));
  const Duration d_k = profile_.BatchDuration(batch_size_);
  const int n = static_cast<int>(shards_.size());
  // Home shard first, then steal from siblings round-robin until the batch
  // fills. One shard lock at a time, never two.
  for (int i = 0; i < n && static_cast<int>(batch.size()) < batch_size_; ++i) {
    const int shard_index = (home_shard + i) % n;
    FormBatchFromShard(*shards_[static_cast<std::size_t>(shard_index)],
                       shard_index, /*stolen=*/i > 0, now, d_k, &batch);
  }
  return batch;
}

void ServeModule::WorkerLoop(ServeWorker* w) {
  const ServeClock& clock = runtime_->clock();
  if (w->cold) {
    // Model load: this slot serves only after its backend's cold start,
    // counted from provisioning (as the simulator counts it), not from
    // whenever this thread first ran.
    clock.SleepUntil(w->provisioned + w->slot.cold_start);
    if (w->kill.load(std::memory_order_acquire)) {
      return;  // Killed while warming; the fleet already logged kFailed.
    }
    if (w->drain.load(std::memory_order_acquire)) {
      fleet_->SetState(spec_.id, w->slot.worker_id, BackendState::kRetired, clock.Now());
      return;
    }
    fleet_->SetState(spec_.id, w->slot.worker_id, BackendState::kActive, clock.Now());
  }
  for (;;) {
    {
      LockOrderGuard order(LockRank::kModule);
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this, w] {
        return stop_ || w->kill.load(std::memory_order_relaxed) ||
               w->drain.load(std::memory_order_relaxed) ||
               queued_.load(std::memory_order_acquire) > 0;
      });
      if (w->kill.load(std::memory_order_relaxed)) {
        // Failed while idle: nothing in flight; the shared shards survive
        // for the remaining workers (unlike the simulator's private queues).
        return;
      }
      if (w->drain.load(std::memory_order_relaxed)) {
        fleet_->SetState(spec_.id, w->slot.worker_id, BackendState::kRetired, clock.Now());
        return;
      }
      if (queued_.load(std::memory_order_acquire) <= 0) {
        if (stop_) {
          return;
        }
        continue;  // Spurious wake or a sibling consumed the work.
      }
    }

    // Batch formation runs OUTSIDE mu_: it takes shard locks (and through
    // the broker's decisions, control-plane and fate locks) one at a time.
    std::vector<RequestPtr> batch = FormBatch(w->home, clock.Now());
    if (batch.empty()) {
      continue;  // Everything expired, was dropped, or a sibling stole it.
    }
    // Liveness stamp for the watchdog: heartbeat first, then busy (release),
    // so a watchdog that sees busy == true also sees this batch's heartbeat.
    w->heartbeat.store(clock.Now(), std::memory_order_relaxed);
    w->busy.store(true, std::memory_order_release);

    // Chaos hang: stall holding the formed batch, without heartbeating. Ends
    // when the window passes, the watchdog kills us, or the run stops (a
    // stopping hung worker executes its batch normally — each worker
    // finishes at most one in-flight batch at shutdown).
    if (w->hang_until.load(std::memory_order_acquire) > clock.Now()) {
      while (w->hang_until.load(std::memory_order_acquire) > clock.Now() &&
             !w->kill.load(std::memory_order_acquire) &&
             !stopping_.load(std::memory_order_acquire)) {
        clock.SleepUntil(clock.Now() + 10 * kUsPerMs);
      }
      if (w->kill.load(std::memory_order_acquire)) {
        // Watchdog (or fault schedule) rescued the batch from the hang.
        w->busy.store(false, std::memory_order_release);
        const SimTime now = clock.Now();
        for (const RequestPtr& req : batch) {
          runtime_->RetryOrDrop(req, spec_.id, now);
        }
        return;
      }
    }

    // Profiled duration on THIS slot's backend (exec_scale), with the
    // configured jitter from the worker-private stream — no lock needed.
    Duration planned = ScaleBatchDuration(
        profile_.BatchDuration(static_cast<int>(batch.size())), w->slot.exec_scale);
    if (options_.exec_jitter > 0.0) {
      const double factor = std::max(0.5, w->jitter.Normal(1.0, options_.exec_jitter));
      planned = static_cast<Duration>(static_cast<double>(planned) * factor);
    }
    // Chaos slowdown: transient interference scales this batch's execution.
    if (clock.Now() < slow_until_.load(std::memory_order_acquire)) {
      planned = static_cast<Duration>(static_cast<double>(planned) *
                                      slow_factor_.load(std::memory_order_relaxed));
    }

    // "Execute" on the GPU: occupy this worker until the absolute instant
    // exec_start + planned, in scaled wall time. Timestamps use the measured
    // window, so the wake-up latency that remains is charged to the batch
    // like real kernel-time variance.
    const SimTime exec_start = clock.Now();
    clock.SleepUntil(exec_start + planned);
    const SimTime exec_end = clock.Now();

    if (w->kill.load(std::memory_order_acquire)) {
      // The GPU died mid-batch: the executing batch is lost from this worker,
      // but each request gets a deadline-aware second chance (mirroring the
      // simulator's Worker::Fail accounting).
      w->busy.store(false, std::memory_order_release);
      for (const RequestPtr& req : batch) {
        runtime_->RetryOrDrop(req, spec_.id, exec_end);
      }
      return;
    }
    w->heartbeat.store(exec_end, std::memory_order_relaxed);
    w->busy.store(false, std::memory_order_release);

    if (executed_counter_ != nullptr) {
      executed_counter_->Add(static_cast<std::int64_t>(batch.size()));
      batch_size_hist_->Observe(static_cast<double>(batch.size()));
    }
    if (TraceRecorder* trace = runtime_->trace(); trace != nullptr) {
      TraceEvent batch_ev;
      batch_ev.kind = TraceEventKind::kBatchExec;
      batch_ev.module = spec_.id;
      batch_ev.ts = exec_start;
      batch_ev.dur = exec_end - exec_start;
      batch_ev.arg0 = static_cast<std::int64_t>(batch.size());
      trace->Emit(batch_ev);
      for (const RequestPtr& req : batch) {
        if (!trace->Sampled(req->id)) {
          continue;
        }
        const HopRecord& hop = req->hops[static_cast<std::size_t>(spec_.id)];
        TraceEvent queue_ev;
        queue_ev.kind = TraceEventKind::kQueueSpan;
        queue_ev.module = spec_.id;
        queue_ev.request_id = req->id;
        queue_ev.ts = hop.arrive;
        queue_ev.dur = hop.batch_entry - hop.arrive;
        trace->Emit(queue_ev);
        TraceEvent exec_ev;
        exec_ev.kind = TraceEventKind::kExecSpan;
        exec_ev.module = spec_.id;
        exec_ev.request_id = req->id;
        exec_ev.ts = exec_start;
        exec_ev.dur = exec_end - exec_start;
        trace->Emit(exec_ev);
      }
    }

    const Duration gpu_share = (exec_end - exec_start) / static_cast<Duration>(batch.size());
    {
      // Post-execution monitoring lands on the worker's home shard.
      QueueShard& shard = *shards_[static_cast<std::size_t>(w->home)];
      LockOrderGuard order(LockRank::kQueueShard);
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const RequestPtr& req : batch) {
        HopRecord& hop = req->hops[static_cast<std::size_t>(spec_.id)];
        hop.exec_start = exec_start;
        hop.exec_end = exec_end;
        hop.gpu_time = gpu_share;
        hop.executed = true;
        shard.wait_reservoir.Add(static_cast<double>(hop.BatchWait()));
        shard.stage_latency_window.Add(shard.Monotonic(exec_end),
                                       static_cast<double>(exec_end - hop.arrive));
      }
    }
    for (RequestPtr& req : batch) {
      runtime_->OnModuleDone(req, spec_.id, exec_end);
    }
    if (w->drain.load(std::memory_order_acquire)) {
      fleet_->SetState(spec_.id, w->slot.worker_id, BackendState::kRetired, clock.Now());
      return;
    }
  }
}

double ServeModule::SmoothedInputRate(SimTime now) {
  RateMonitor merged(options_.stats_window);
  for (auto& shard_ptr : shards_) {
    QueueShard& shard = *shard_ptr;
    LockOrderGuard order(LockRank::kQueueShard);
    std::lock_guard<std::mutex> lock(shard.mu);
    merged.Merge(shard.rate_monitor);
  }
  return merged.Smoothed(now);
}

ModuleState ServeModule::Snapshot(SimTime now) {
  // Merge the per-shard monitor slices, one shard lock at a time. The merges
  // are exact (see the class comment), so the published ModuleState matches
  // what the unsharded module would have computed over the same samples.
  double delay_weighted = 0.0;
  double delay_weight = 0.0;
  double worst_latency = 0.0;
  bool any_latency = false;
  RateMonitor merged_rate(options_.stats_window);
  std::vector<double> wait_samples;
  for (auto& shard_ptr : shards_) {
    QueueShard& shard = *shard_ptr;
    LockOrderGuard order(LockRank::kQueueShard);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.queue_delay_window.AccumulateLinearWeighted(now, &delay_weighted, &delay_weight);
    shard.stage_latency_window.Evict(now);
    if (shard.stage_latency_window.Size() > 0) {
      worst_latency = std::max(worst_latency, shard.stage_latency_window.Max(now));
      any_latency = true;
    }
    merged_rate.Merge(shard.rate_monitor);
    const std::vector<double>& samples = shard.wait_reservoir.values();
    wait_samples.insert(wait_samples.end(), samples.begin(), samples.end());
  }

  ModuleState state;
  state.module_id = spec_.id;
  state.updated_at = now;
  state.avg_queue_delay = delay_weight > 0.0 ? delay_weighted / delay_weight : 0.0;
  state.worst_stage_latency =
      any_latency ? worst_latency : static_cast<double>(profile_.BatchDuration(batch_size_));
  state.batch_size = batch_size_;
  state.batch_duration = profile_.BatchDuration(batch_size_);
  const double capacity = fleet_->PublishCapacity(spec_.id, PerWorkerThroughput(), state);
  state.input_rate = merged_rate.Raw(now);
  state.smoothed_rate = merged_rate.Smoothed(now);
  state.load_factor = capacity > 0.0 ? state.smoothed_rate / capacity : 0.0;
  state.burstiness = merged_rate.Burstiness(now);
  state.wait_samples = std::move(wait_samples);
  std::sort(state.wait_samples.begin(), state.wait_samples.end());
  return state;
}

}  // namespace pard
