#include "runtime/worker.h"

#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "runtime/module_runtime.h"

namespace pard {

Worker::Worker(ModuleTimer* timer, ModuleRuntime* module, BackendFleet* fleet,
               const BackendSlot& slot)
    : timer_(timer), module_(module), fleet_(fleet), slot_(slot) {}

std::size_t Worker::Load() const {
  return queue_.Size() + forming_.size() + executing_batch_.size();
}

void Worker::Activate() {
  PARD_CHECK(state_ == State::kColdStarting);
  state_ = State::kActive;
  fleet_->SetState(slot_.module_id, slot_.worker_id, BackendState::kActive, timer_->Now());
  // Work may have been queued while warming (dispatch avoids cold workers,
  // but keep the invariant that an active worker drains its queue).
  FillFormingBatch();
  MaybeLaunch();
}

void Worker::BeginDraining() {
  if (state_ == State::kActive || state_ == State::kColdStarting) {
    state_ = State::kDraining;
    fleet_->SetState(slot_.module_id, slot_.worker_id, BackendState::kDraining, timer_->Now());
    if (Idle()) {
      state_ = State::kRetired;
      fleet_->SetState(slot_.module_id, slot_.worker_id, BackendState::kRetired, timer_->Now());
    }
  }
}

void Worker::Enqueue(RequestPtr req) {
  PARD_CHECK(state_ == State::kActive);
  HopRecord& hop = req->hops[static_cast<std::size_t>(module_->module_id())];
  hop.arrive = timer_->Now();
  queue_.Push(std::move(req));
  FillFormingBatch();
  MaybeLaunch();
}

void Worker::FillFormingBatch() {
  ModuleHost* host = module_->host();
  ControlPlane* control = module_->control();
  const int batch_size = module_->batch_size();
  if (control->PurgeExpired()) {
    // Requests whose deadline passed while queued are unservable under any
    // policy; evict them from the min end of the DEPQ so backlogs stay
    // bounded by the deadline horizon.
    while (queue_.MinDeadline() < timer_->Now()) {
      RequestPtr expired = queue_.Pop(PopSide::kMinBudget);
      if (expired == nullptr) {
        break;
      }
      if (!host->IsTerminal(*expired)) {
        expired->hops[static_cast<std::size_t>(module_->module_id())].batch_entry = timer_->Now();
        module_->OnPolicyDrop(std::move(expired), DropReason::kPurgeExpired);
      }
    }
  }
  while (static_cast<int>(forming_.size()) < batch_size && !queue_.Empty()) {
    const PopSide side = control->ChoosePopSide(module_->module_id(), timer_->Now());
    RequestPtr req = queue_.Pop(side);
    if (req == nullptr) {
      break;
    }
    if (host->IsTerminal(*req)) {
      // Dropped on another DAG branch while queued here; discard silently —
      // no GPU time was spent at this module.
      continue;
    }
    const SimTime now = timer_->Now();
    AdmissionContext ctx;
    ctx.request = req.get();
    ctx.module_id = module_->module_id();
    ctx.now = now;
    ctx.batch_start = executing_ ? exec_end_ : now;
    ctx.batch_duration = module_->profile().BatchDuration(batch_size);
    ctx.batch_size = batch_size;
    HopRecord& hop = req->hops[static_cast<std::size_t>(module_->module_id())];
    if (control->ShouldDrop(ctx)) {
      hop.batch_entry = now;
      module_->OnPolicyDrop(std::move(req), DropReason::kBrokerCandidate);
      continue;
    }
    hop.batch_entry = now;
    module_->RecordQueueDelay(now, hop.QueueDelay());
    forming_.push_back(std::move(req));
  }
}

void Worker::MaybeLaunch() {
  if (executing_ || forming_.empty() || hung_) {
    return;
  }
  if (state_ != State::kActive && state_ != State::kDraining) {
    return;
  }
  const SimTime now = timer_->Now();
  executing_batch_ = std::move(forming_);
  forming_.clear();
  const int count = static_cast<int>(executing_batch_.size());
  const Duration d = module_->SampleExecDuration(count, slot_.exec_scale);
  executing_ = true;
  exec_start_ = now;
  exec_end_ = now + d;
  const int module_id = module_->module_id();
  for (const RequestPtr& req : executing_batch_) {
    HopRecord& hop = req->hops[static_cast<std::size_t>(module_id)];
    hop.exec_start = now;
    module_->RecordBatchWait(now, hop.BatchWait());
  }
  exec_event_ = timer_->ScheduleAt(exec_end_, [this] { OnBatchComplete(); });
}

void Worker::Fail() {
  if (state_ == State::kRetired) {
    return;
  }
  // Retire FIRST: the retry path below redistributes this worker's requests
  // through ChooseWorker, which must never re-select the dying worker.
  state_ = State::kRetired;
  fleet_->SetState(slot_.module_id, slot_.worker_id, BackendState::kFailed, timer_->Now());
  const int module_id = module_->module_id();
  // Executing batch is lost mid-flight; its GPU time so far is wasted but
  // unattributed (the batch never completed). Every request gets a
  // deadline-aware second chance on a surviving worker.
  if (executing_) {
    timer_->Cancel(exec_event_);
    executing_ = false;
    std::vector<RequestPtr> lost = std::move(executing_batch_);
    executing_batch_.clear();
    for (RequestPtr& req : lost) {
      module_->RetryOrDrop(std::move(req));
    }
  }
  std::vector<RequestPtr> forming = std::move(forming_);
  forming_.clear();
  for (RequestPtr& req : forming) {
    module_->RetryOrDrop(std::move(req));
  }
  while (!queue_.Empty()) {
    RequestPtr req = queue_.Pop(PopSide::kOldest);
    if (req != nullptr && !module_->host()->IsTerminal(*req)) {
      req->hops[static_cast<std::size_t>(module_id)].batch_entry = timer_->Now();
      module_->RetryOrDrop(std::move(req));
    }
  }
}

void Worker::Hang(SimTime at, Duration duration) {
  if (state_ != State::kActive || hung_) {
    return;
  }
  hung_ = true;
  hung_at_ = at;
  if (executing_) {
    timer_->Cancel(exec_event_);
    if (duration > 0) {
      // Finite hang: the in-flight batch completes late by the hang window.
      exec_end_ += duration;
      exec_event_ = timer_->ScheduleAt(exec_end_, [this] { OnBatchComplete(); });
    }
    // Indefinite hang: the batch freezes until Fail() rescues it (the
    // watchdog, when a hang budget is set) or the end-of-run sweep accounts
    // it.
  }
}

void Worker::Unhang() {
  if (!hung_) {
    return;
  }
  hung_ = false;
  if (state_ == State::kActive) {
    FillFormingBatch();
    MaybeLaunch();
  }
}

void Worker::OnBatchComplete() {
  const SimTime now = timer_->Now();
  PARD_CHECK(executing_);
  const int count = static_cast<int>(executing_batch_.size());
  const Duration d = now - exec_start_;
  const Duration gpu_share = d / count;
  const int module_id = module_->module_id();
  std::vector<RequestPtr> done = std::move(executing_batch_);
  executing_batch_.clear();
  executing_ = false;
  if (module_->executed_counter() != nullptr) {
    module_->executed_counter()->Add(count);
    module_->batch_size_hist()->Observe(static_cast<double>(count));
  }
  TraceRecorder* trace = module_->host()->trace();
  if (trace != nullptr) {
    TraceEvent batch_ev;
    batch_ev.kind = TraceEventKind::kBatchExec;
    batch_ev.module = module_id;
    batch_ev.ts = exec_start_;
    batch_ev.dur = d;
    batch_ev.arg0 = count;
    trace->Emit(batch_ev);
  }
  for (RequestPtr& req : done) {
    HopRecord& hop = req->hops[static_cast<std::size_t>(module_id)];
    hop.exec_end = now;
    hop.gpu_time = gpu_share;
    hop.executed = true;
    if (trace != nullptr && trace->Sampled(req->id)) {
      TraceEvent queue_ev;
      queue_ev.kind = TraceEventKind::kQueueSpan;
      queue_ev.module = module_id;
      queue_ev.request_id = req->id;
      queue_ev.ts = hop.arrive;
      queue_ev.dur = hop.batch_entry - hop.arrive;
      trace->Emit(queue_ev);
      TraceEvent exec_ev;
      exec_ev.kind = TraceEventKind::kExecSpan;
      exec_ev.module = module_id;
      exec_ev.request_id = req->id;
      exec_ev.ts = hop.exec_start;
      exec_ev.dur = hop.ExecDuration();
      trace->Emit(exec_ev);
    }
    module_->RecordStageLatency(now, now - hop.arrive);
    module_->OnExecuted(std::move(req));
  }
  // Top up the forming batch with any backlog and go again back-to-back.
  FillFormingBatch();
  MaybeLaunch();
  if (state_ == State::kDraining && Idle()) {
    state_ = State::kRetired;
    fleet_->SetState(slot_.module_id, slot_.worker_id, BackendState::kRetired, timer_->Now());
  }
}

}  // namespace pard
