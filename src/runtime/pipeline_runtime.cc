#include "runtime/pipeline_runtime.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "runtime/batch_planner.h"
#include "stats/empirical_distribution.h"

namespace pard {

PipelineRuntime::PipelineRuntime(const PipelineSpec& spec, const RuntimeOptions& options,
                                 DropPolicy* policy, double expected_rate)
    : spec_(spec),
      options_(options),
      lifecycle_(spec_, options_),
      board_(spec.NumModules()),
      control_(&spec_, policy, &board_, ControlPlane::RunOptions(options_)),
      fleet_(spec_, options_.cold_start, options_.cost_aware_provisioning),
      sync_states_(static_cast<std::size_t>(spec.NumModules())) {
  const std::vector<int>& batch_sizes = lifecycle_.batch_sizes();
  const std::vector<int> workers = PlanInitialWorkers(spec_, batch_sizes, options_, expected_rate);
  for (const ModuleSpec& m : spec_.modules()) {
    modules_.push_back(std::make_unique<ModuleRuntime>(
        &sim_, this, &control_, &fleet_, m, ProfileRegistry::Get(m.model),
        batch_sizes[static_cast<std::size_t>(m.id)], workers[static_cast<std::size_t>(m.id)],
        options_));
  }
  // Periodic control-plane ticks.
  sim_.ScheduleAfter(options_.sync_period, [this] { SyncTick(); });
  if (options_.enable_scaling) {
    sim_.ScheduleAfter(options_.scaling_epoch, [this] { ScalingTick(); });
  }
  // Deterministic kill/recover fleet schedule (the serving runtime applies
  // the identical schedule from its control thread).
  for (const FleetEvent& event : lifecycle_.fault_schedule()) {
    sim_.ScheduleAt(event.at, [this, event] {
      ModuleRuntime& m = *modules_[static_cast<std::size_t>(event.module_id)];
      if (event.kind == FleetEvent::Kind::kKill) {
        m.FailWorkers(event.count);
      } else {
        m.AddWorkers(event.count);
      }
      lifecycle_.TraceFleetEvent(event);
    });
  }
  for (const ChaosEvent& event : lifecycle_.chaos_schedule()) {
    sim_.ScheduleAt(event.at, [this, event] {
      const SimTime now = sim_.Now();
      switch (event.kind) {
        case ChaosKind::kHang:
          modules_[static_cast<std::size_t>(event.module_id)]->HangWorkers(event.count,
                                                                           event.duration);
          break;
        case ChaosKind::kSlow:
          modules_[static_cast<std::size_t>(event.module_id)]->SetSlowdown(
              event.factor, now + event.duration);
          break;
        case ChaosKind::kStallSync:
          stall_until_ = std::max(stall_until_, now + event.duration);
          break;
      }
      lifecycle_.TraceChaosEvent(event);
    });
  }
}

ModuleRuntime& PipelineRuntime::module(int id) {
  PARD_CHECK(id >= 0 && id < static_cast<int>(modules_.size()));
  return *modules_[static_cast<std::size_t>(id)];
}

void PipelineRuntime::Inject() {
  RequestPtr req = lifecycle_.NewRequest();
  if (!lifecycle_.Inject(req, sim_.Now())) {
    // Weighted ingress shed: recorded (conservation) but never delivered.
    Drop(std::move(req), spec_.SourceModule(), DropReason::kTenantShed);
    return;
  }
  Deliver(std::move(req), spec_.SourceModule());
}

void PipelineRuntime::Deliver(RequestPtr req, int module_id) {
  // Network hop between client/module and module.
  sim_.ScheduleAfter(options_.network_delay, [this, req = std::move(req), module_id]() mutable {
    if (lifecycle_.MergeReady(*req, module_id)) {
      modules_[static_cast<std::size_t>(module_id)]->Receive(std::move(req));
    }
  });
}

void PipelineRuntime::OnModuleDone(RequestPtr req, int module_id) {
  if (req->Terminal()) {
    return;  // Dropped on a parallel branch while this one executed.
  }
  if (!lifecycle_.Forward(*req, module_id, [&](int sub) { Deliver(req, sub); }) &&
      lifecycle_.Complete(*req, sim_.Now())) {
    lifecycle_.RecordFate(*req);
  }
}

void PipelineRuntime::Drop(RequestPtr req, int module_id, DropReason reason) {
  if (lifecycle_.Drop(*req, module_id, sim_.Now(), reason)) {
    lifecycle_.RecordFate(*req);
  }
}

void PipelineRuntime::SyncTick() {
  const SimTime now = sim_.Now();
  if (now < stall_until_) {
    // Chaos stall-sync: skip the sync entirely (readers keep the previous
    // snapshot, aging toward the staleness budget) but keep the tick alive so
    // syncing resumes.
    if (now <= last_arrival_ + options_.drain) {
      sim_.ScheduleAfter(options_.sync_period, [this] { SyncTick(); });
    }
    return;
  }
  // Serve's order: the weighted shed plan comes from the states about to be
  // published, so the governor is never fresher than the snapshot. The board
  // hands each replaced state back for the next tick to refill.
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    ModuleState& state = sync_states_[i];
    state = modules_[i]->Sync(now, std::move(state.wait_samples));
    SortSamples(state.wait_samples, sort_scratch_);
  }
  lifecycle_.ResyncGovernor(sync_states_);
  const PolicyRefreshStats stats = control_.Sync(sync_states_, now);
  const auto epoch = static_cast<std::int64_t>(control_.SnapshotEpoch());
  if (options_.trace != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kEpochSync;
    ev.module = -1;
    ev.ts = now;
    ev.arg0 = epoch;
    options_.trace->Emit(ev);
  }
  // Sim-mode metrics sampling happens here — at sim-event granularity on the
  // single simulator thread — so the exported series is a deterministic
  // function of the seed (no wall-clock sampler, and no wall-clock sync
  // duration, which only serve records).
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("control.snapshot_epoch")->Set(epoch);
    options_.metrics->GetCounter("control.refresh_modules_refreshed")->Add(stats.refreshed);
    options_.metrics->GetCounter("control.refresh_modules_skipped")->Add(stats.skipped);
    options_.metrics->GetGauge("resilience.stale_fallbacks")
        ->Set(static_cast<std::int64_t>(control_.StaleFallbacks()));
    options_.metrics->Sample(now);
  }
  if (now <= last_arrival_ + options_.drain) {
    sim_.ScheduleAfter(options_.sync_period, [this] { SyncTick(); });
  }
}

void PipelineRuntime::ScalingTick() {
  const SimTime now = sim_.Now();
  WorkerSample sample;
  sample.t = now;
  for (auto& m : modules_) {
    m->SetTargetUnits(lifecycle_.ScalingTarget(m->SmoothedInputRate(now),
                                               m->PerWorkerThroughput(), m->ProvisionedUnits()),
                      std::numeric_limits<int>::max());
    sample.workers.push_back(m->ActiveWorkers());
  }
  worker_history_.push_back(std::move(sample));
  if (now <= last_arrival_ + options_.drain) {
    sim_.ScheduleAfter(options_.scaling_epoch, [this] { ScalingTick(); });
  }
}

void PipelineRuntime::RunTrace(const std::vector<SimTime>& arrivals) {
  sim_.ScheduleStream(arrivals, [this] { Inject(); });
  if (!arrivals.empty()) {
    last_arrival_ = arrivals.back();
  }
  try {
    sim_.Run();
  } catch (...) {
    sim_.CancelStream();  // The kernel must not keep a pointer into `arrivals`.
    throw;
  }
  // Any request still in flight after the queues fully drain is abandoned
  // (can only happen via infrastructure corner cases); account it as late so
  // conservation holds.
  lifecycle_.AbandonInFlight(sim_.Now());
}

}  // namespace pard
