#include "runtime/module_runtime.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "runtime/batch_planner.h"
#include "runtime/request_lifecycle.h"

namespace pard {
namespace {

// Capacity of each module's batch-wait reservoir (the paper's M = 10 000
// samples).
constexpr std::size_t kReservoirCapacity = 10000;

}  // namespace

ModuleRuntime::ModuleRuntime(ModuleTimer* timer, ModuleHost* host, ControlPlane* control,
                             BackendFleet* fleet, const ModuleSpec& spec,
                             const ModelProfile& profile, int batch_size, int initial_workers,
                             const RuntimeOptions& options)
    : timer_(timer),
      host_(host),
      control_(control),
      fleet_(fleet),
      spec_(spec),
      profile_(profile),
      batch_size_(batch_size),
      options_(options),
      jitter_rng_(Rng(options.seed).Fork("jitter:" + std::to_string(spec.id))),
      admission_rng_(Rng(options.seed).Fork("admission:" + std::to_string(spec.id))),
      queue_delay_window_(options.stats_window),
      stage_latency_window_(options.stats_window),
      wait_reservoir_(kReservoirCapacity),
      rate_monitor_(options.stats_window) {
  PARD_CHECK(batch_size_ >= 1);
  PARD_CHECK(initial_workers >= 1);
  PARD_CHECK(control_ != nullptr && fleet_ != nullptr);
  control_snapshot_ = control_->snapshot();
  for (int i = 0; i < initial_workers; ++i) {
    auto worker = std::make_shared<Worker>(timer_, this, fleet_,
                                           fleet_->Provision(spec_.id, timer_->Now()));
    worker->Activate();  // Initial fleet starts warm.
    workers_.push_back(std::move(worker));
  }
  if (options_.metrics != nullptr) {
    const std::string prefix = "module.m" + std::to_string(spec_.id) + ".";
    admitted_counter_ = options_.metrics->GetCounter(prefix + "admitted");
    executed_counter_ = options_.metrics->GetCounter(prefix + "executed");
    batch_size_hist_ = options_.metrics->GetHistogram(
        prefix + "batch_size", 0.0, static_cast<double>(batch_size_) + 1.0,
        static_cast<std::size_t>(batch_size_) + 1);
  }
}

int ModuleRuntime::ActiveWorkers() const { return fleet_->ActiveCount(spec_.id); }

int ModuleRuntime::ProvisionedWorkers() const { return fleet_->ProvisionedCount(spec_.id); }

double ModuleRuntime::ProvisionedUnits() const { return fleet_->ProvisionedUnits(spec_.id); }

Duration ModuleRuntime::SampleExecDuration(int batch, double exec_scale) {
  Duration d = ScaleBatchDuration(profile_.BatchDuration(batch), exec_scale);
  if (timer_->Now() < slow_until_) {
    // Chaos slowdown: transient interference scales this batch's execution.
    d = static_cast<Duration>(static_cast<double>(d) * slow_factor_);
  }
  if (options_.exec_jitter <= 0.0) {
    return d;
  }
  const double factor = std::max(0.5, jitter_rng_.Normal(1.0, options_.exec_jitter));
  return static_cast<Duration>(static_cast<double>(d) * factor);
}

Worker* ModuleRuntime::ChooseWorker() {
  // Least-loaded among dispatchable workers; round-robin tie-break so equal
  // loads spread deterministically.
  Worker* best = nullptr;
  std::size_t best_load = 0;
  const std::size_t n = workers_.size();
  for (std::size_t i = 0; i < n; ++i) {
    Worker* w = workers_[(rr_cursor_ + i) % n].get();
    if (!w->Dispatchable()) {
      continue;
    }
    const std::size_t load = w->Load();
    if (best == nullptr || load < best_load) {
      best = w;
      best_load = load;
    }
  }
  rr_cursor_ = (rr_cursor_ + 1) % std::max<std::size_t>(n, 1);
  return best;
}

void ModuleRuntime::Receive(RequestPtr req) {
  // A merge delivery that waits for its sibling branches is not offered
  // load: it never reached the module.
  if (!host_->lifecycle().MergeReady(*req, spec_.id)) {
    return;
  }
  const SimTime now = timer_->Now();
  // Offered load is counted before admission, so shed traffic still drives
  // load_factor and burstiness.
  rate_monitor_.Bump(now);
  if (req->Terminal()) {
    return;  // Dropped on another branch before delivery.
  }
  if (!control_->AdmitAtModule(control_snapshot_, *req, spec_.id, now, &admission_rng_)) {
    req->hops[static_cast<std::size_t>(spec_.id)].arrive = now;
    OnPolicyDrop(*req, DropReason::kProactiveAdmission);
    return;
  }
  Worker* worker = ChooseWorker();
  if (worker == nullptr) {
    // No dispatchable worker (all cold / draining): treat as a policy-
    // independent infrastructure drop so the request does not dangle.
    req->hops[static_cast<std::size_t>(spec_.id)].arrive = now;
    OnPolicyDrop(*req, DropReason::kFaultKilled);
    return;
  }
  if (admitted_counter_ != nullptr) {
    admitted_counter_->Add();
  }
  if (TraceRecorder* trace = options_.trace; trace != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kAdmit;
    ev.module = spec_.id;
    ev.request_id = req->id;
    ev.ts = now;
    trace->EmitSampled(ev);
  }
  worker->Enqueue(std::move(req));
}

void ModuleRuntime::OnExecuted(RequestPtr req) { host_->OnModuleDone(std::move(req), spec_.id); }

void ModuleRuntime::OnPolicyDrop(Request& req, DropReason reason) {
  host_->lifecycle().Drop(req, spec_.id, timer_->Now(), reason);
}

void ModuleRuntime::RecordQueueDelay(SimTime now, Duration q_delay) {
  queue_delay_window_.Add(now, static_cast<double>(q_delay));
}

void ModuleRuntime::RecordBatchWait(Duration wait) {
  wait_reservoir_.Add(static_cast<double>(wait));
}

void ModuleRuntime::RecordStageLatency(SimTime now, Duration stage_latency) {
  stage_latency_window_.Add(now, static_cast<double>(stage_latency));
}

double ModuleRuntime::SmoothedInputRate() { return rate_monitor_.Smoothed(timer_->Now()); }

ModuleState ModuleRuntime::Sync(std::vector<double> wait_buffer) {
  const SimTime now = timer_->Now();
  ReapRetired();
  ModuleState state;
  state.module_id = spec_.id;
  state.updated_at = now;
  state.avg_queue_delay = queue_delay_window_.LinearWeightedMean(now, 0.0);
  state.worst_stage_latency = stage_latency_window_.Max(
      now, static_cast<double>(profile_.BatchDuration(batch_size_)));
  state.batch_size = batch_size_;
  state.batch_duration = profile_.BatchDuration(batch_size_);
  const double capacity = fleet_->PublishCapacity(spec_.id, PerWorkerThroughput(), state);
  state.load_factor = capacity > 0.0 ? rate_monitor_.Smoothed(now) / capacity : 0.0;
  state.burstiness = rate_monitor_.Burstiness(now);
  state.wait_samples = std::move(wait_buffer);
  state.wait_samples.assign(wait_reservoir_.values().begin(), wait_reservoir_.values().end());
  return state;
}

double ModuleRuntime::ProvisionColdWorker() {
  const SimTime now = timer_->Now();
  const BackendSlot slot = fleet_->Provision(spec_.id, now);
  auto worker = std::make_shared<Worker>(timer_, this, fleet_, slot);
  std::weak_ptr<Worker> weak = worker;
  workers_.push_back(std::move(worker));
  // Model cold start: the worker accepts traffic only after the delay (the
  // slot's backend profile decides how long the model load takes).
  timer_->ScheduleAt(now + slot.cold_start, [weak] {
    if (auto w = weak.lock(); w != nullptr && w->state() == Worker::State::kColdStarting) {
      w->Activate();
    }
  });
  return slot.speed;
}

void ModuleRuntime::SetTargetWorkers(int target) {
  SetTargetUnits(static_cast<double>(target), std::numeric_limits<int>::max());
}

void ModuleRuntime::SetTargetUnits(double target_units, int max_new_workers) {
  target_units =
      std::clamp(target_units, 1.0, static_cast<double>(kMaxWorkersPerModule));
  ReapRetired();
  double provisioned = ProvisionedUnits();
  // The per-module worker cap bounds the roster even when slow backends
  // contribute less than one unit each.
  for (int added = 0; provisioned < target_units && added < max_new_workers &&
                      ProvisionedWorkers() < kMaxWorkersPerModule;
       ++added) {
    provisioned += ProvisionColdWorker();
  }
  // Drain the highest-id (most recently added) workers first, as long as
  // the remaining capacity still covers the target.
  for (auto it = workers_.rbegin(); it != workers_.rend(); ++it) {
    if ((*it)->state() == Worker::State::kActive ||
        (*it)->state() == Worker::State::kColdStarting) {
      const double speed = (*it)->slot().speed;
      if (provisioned - speed < target_units) {
        continue;
      }
      (*it)->BeginDraining();
      provisioned -= speed;
    }
  }
}

int ModuleRuntime::AddWorkers(int count) {
  ReapRetired();
  // The per-module cap binds recovery events exactly like scaling.
  count = std::min(count, kMaxWorkersPerModule - ProvisionedWorkers());
  for (int i = 0; i < count; ++i) {
    ProvisionColdWorker();
  }
  return std::max(0, count);
}

void ModuleRuntime::HangWorkers(int count, SimTime at, Duration duration) {
  for (auto& worker : workers_) {
    if (count <= 0) {
      break;
    }
    if (!worker->Dispatchable()) {
      continue;
    }
    worker->Hang(at, duration);
    if (duration > 0) {
      // Self-clearing hang; weak_ptr so a drained-and-reaped worker no-ops.
      std::weak_ptr<Worker> weak = worker;
      timer_->ScheduleAt(at + duration, [weak] {
        if (auto w = weak.lock()) {
          w->Unhang();
        }
      });
    }
    --count;
  }
}

void ModuleRuntime::SetSlowdown(double factor, SimTime until) {
  PARD_CHECK(factor > 0.0);
  slow_factor_ = factor;
  slow_until_ = until;
}

int ModuleRuntime::FailHungWorkers(Duration budget, SimTime now) {
  int failed = 0;
  for (auto& worker : workers_) {
    if (worker->hung() && worker->state() != Worker::State::kRetired &&
        now - worker->hung_at() > budget) {
      worker->Fail();
      ++failed;
    }
  }
  ReapRetired();
  return failed;
}

void ModuleRuntime::RetryOrDrop(RequestPtr req) {
  if (req->Terminal()) {
    return;  // Resolved on another branch; nothing left to rescue.
  }
  RequestLifecycle& lifecycle = host_->lifecycle();
  const SimTime now = timer_->Now();
  DropReason verdict = lifecycle.RetryVerdict(*req, spec_.id, now);
  if (verdict == DropReason::kNone) {
    if (Worker* worker = ChooseWorker(); worker != nullptr) {
      lifecycle.NoteRetry(*req, spec_.id, now);
      // The lost attempt's stamps go: Enqueue re-stamps arrive, and the
      // retry enters and runs a batch of its own.
      HopRecord& hop = req->hops[static_cast<std::size_t>(spec_.id)];
      hop.batch_entry = hop.exec_start = hop.exec_end = -1;
      worker->Enqueue(std::move(req));
      return;
    }
    verdict = DropReason::kWorkerFailure;  // No surviving dispatchable worker.
  }
  OnPolicyDrop(*req, verdict);
}

void ModuleRuntime::FailWorkers(int count) {
  for (auto& worker : workers_) {
    if (count <= 0) {
      break;
    }
    if (worker->state() == Worker::State::kActive) {
      worker->Fail();
      --count;
    }
  }
  ReapRetired();
}

void ModuleRuntime::ReapRetired() {
  workers_.erase(std::remove_if(workers_.begin(), workers_.end(),
                                [](const std::shared_ptr<Worker>& w) {
                                  return w->state() == Worker::State::kRetired;
                                }),
                 workers_.end());
}

}  // namespace pard
