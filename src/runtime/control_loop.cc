#include "runtime/control_loop.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"

namespace pard {

namespace {

// The scaling engine's target capacity, in baseline-worker units: the
// smoothed offered rate with headroom over one baseline worker's
// throughput, or the current provisioning while there is no signal.
// Heterogeneous fleets keep provisioning until Σ speed covers the demand,
// which for a homogeneous grade-1.0 fleet lands on exactly the historical
// ceil() worker count.
double ScalingTarget(ModuleRuntime& m, double headroom) {
  const double rate = m.SmoothedInputRate();
  const double per_worker = m.PerWorkerThroughput();
  if (rate > 0.0 && per_worker > 0.0) {
    return rate * headroom / per_worker;
  }
  return m.ProvisionedUnits();
}

// A control record with no request (module -1: the control plane); a no-op
// when tracing is off.
void Emit(TraceRecorder* trace, TraceEventKind kind, int module, SimTime ts, std::int64_t arg0,
          std::int64_t arg1 = 0, Duration dur = 0) {
  if (trace != nullptr) {
    trace->Emit(TraceEvent{kind, module, 0, ts, dur, arg0, arg1});
  }
}

// Trace instants for a schedule event applied at its `at`.
void TraceFleetEvent(TraceRecorder* trace, const FleetEvent& event) {
  Emit(trace, TraceEventKind::kFleet, event.module_id, event.at,
       event.kind == FleetEvent::Kind::kKill ? 0 : 1, event.count);
}

void TraceChaosEvent(TraceRecorder* trace, const ChaosEvent& event) {
  Emit(trace, TraceEventKind::kChaos, event.module_id, event.at,
       static_cast<std::int64_t>(event.kind),
       event.kind == ChaosKind::kHang ? event.count : event.duration);
}

}  // namespace

ControlLoop::ControlLoop(const PipelineSpec& spec, const RuntimeOptions& options,
                         DropPolicy* policy, RequestLifecycle* lifecycle, BackendFleet* fleet,
                         Substrate substrate)
    : options_(options),
      lifecycle_(lifecycle),
      fleet_(fleet),
      substrate_(std::move(substrate)),
      board_(spec.NumModules()),
      control_(&spec, policy, &board_, substrate_.control),
      fault_schedule_(options_.fleet_events),
      chaos_schedule_(ExpandChaosSchedule(options_.resilience.chaos, options_.seed)),
      sync_states_(static_cast<std::size_t>(spec.NumModules())) {
  PARD_CHECK(substrate_.timer != nullptr && substrate_.with_module);
  PARD_CHECK(options_.sync_period > 0);
  PARD_CHECK(!options_.enable_scaling || options_.scaling_epoch > 0);
  PARD_CHECK(options_.resilience.hang_budget >= 0);
  // Validated loudly here: a typo'd module id must fail the run, not
  // silently no-op.
  const int modules = spec.NumModules();
  for (const FleetEvent& event : fault_schedule_) {
    PARD_CHECK_MSG(event.module_id >= 0 && event.module_id < modules,
                   "fleet event targets unknown module " << event.module_id);
    PARD_CHECK(event.count >= 1);
  }
  std::stable_sort(fault_schedule_.begin(), fault_schedule_.end(),
                   [](const FleetEvent& a, const FleetEvent& b) { return a.at < b.at; });
  for (const ChaosEvent& event : chaos_schedule_) {
    PARD_CHECK_MSG(event.kind == ChaosKind::kStallSync ||
                       (event.module_id >= 0 && event.module_id < modules),
                   "chaos event targets unknown module " << event.module_id);
  }
  const Duration hang_budget = options_.resilience.hang_budget;
  if (options_.metrics != nullptr) {
    refreshed_counter_ = options_.metrics->GetCounter("control.refresh_modules_refreshed");
    skipped_counter_ = options_.metrics->GetCounter("control.refresh_modules_skipped");
    if (substrate_.wall_clock) {
      // 0..20 ms in 0.5 ms buckets brackets both the incremental fast path
      // (tens of us) and a pathological full recompute.
      sync_duration_hist_ =
          options_.metrics->GetHistogram("control.sync_duration_us", 0.0, 20000.0, 40);
    }
    if (hang_budget > 0) {
      watchdog_counter_ = options_.metrics->GetCounter("resilience.watchdog_kills");
    }
  }

  ModuleTimer* timer = substrate_.timer;
  Every(timer->Now() + options_.sync_period, options_.sync_period, &ControlLoop::SyncTick);
  if (options_.metrics != nullptr && options_.metrics_interval > 0) {
    Every(timer->Now() + options_.metrics_interval, options_.metrics_interval,
          &ControlLoop::SampleTick);
  }
  if (options_.enable_scaling) {
    Every(timer->Now() + options_.scaling_epoch, options_.scaling_epoch,
          &ControlLoop::ScalingTick);
  }
  for (const FleetEvent& event : fault_schedule_) {
    timer->ScheduleAt(event.at, [this, &event] { ApplyFault(event); });
  }
  for (const ChaosEvent& event : chaos_schedule_) {
    timer->ScheduleAt(event.at, [this, &event] { ApplyChaos(event); });
  }
  if (hang_budget > 0) {
    // A fraction of the budget, so a hang is caught within budget + one
    // sweep (floored, so a tiny budget cannot spin the loop).
    const Duration period = std::max<Duration>(hang_budget / 4, 10 * kUsPerMs);
    Every(timer->Now() + period, period, &ControlLoop::WatchdogTick);
  }
}

void ControlLoop::Every(SimTime t, Duration period, Job job) {
  substrate_.timer->ScheduleAt(t, [this, t, period, job] {
    (this->*job)(t);
    if (t <= until_) {
      Every(t + period, period, job);
    }
  });
}

int ControlLoop::WorkerBudget() const {
  return std::max(0, substrate_.max_total_workers - fleet_->TotalProvisioned());
}

void ControlLoop::SyncTick(SimTime t) {
  if (t < stall_until_) {
    // Chaos stall-sync: skip this sync. Modules keep the snapshot they took
    // before the stall, aging toward the staleness budget.
    return;
  }
  const SimTime now = substrate_.timer->Now();
  // Sync cost is real CPU work, so serve times it on the wall clock, from
  // the first state copy to the last hand-off.
  const auto sync_begin = std::chrono::steady_clock::now();
  // One module at a time; each state refills the buffers the board handed
  // back at the previous sync.
  for (std::size_t i = 0; i < sync_states_.size(); ++i) {
    ModuleState& state = sync_states_[i];
    substrate_.with_module(static_cast<int>(i), [&state](ModuleRuntime& m) {
      state = m.Sync(std::move(state.wait_samples));
    });
  }
  // The weighted shed plan comes from the states about to be published, so
  // the governor is never fresher than the snapshot.
  lifecycle_->ResyncGovernor(sync_states_);
  // Builds the next immutable snapshot, holding no lock. It needs every
  // module's state, so the hand-off is a second pass: each module takes the
  // snapshot under its own serialization.
  const PolicyRefreshStats stats = control_.Sync(sync_states_, now);
  const ControlSnapshot& snapshot = control_.snapshot();
  for (int i = 0; i < NumModules(); ++i) {
    substrate_.with_module(i, [&snapshot](ModuleRuntime& m) { m.SetControlSnapshot(snapshot); });
  }
  const auto sync_wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                std::chrono::steady_clock::now() - sync_begin)
                                .count();
  const auto epoch = static_cast<std::int64_t>(control_.SnapshotEpoch());
  Emit(options_.trace, TraceEventKind::kEpochSync, -1, now, epoch);
  if (substrate_.wall_clock) {
    Emit(options_.trace, TraceEventKind::kControlRefresh, -1, now, stats.refreshed,
         stats.skipped, sync_wall_us);
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("control.snapshot_epoch")->Set(epoch);
    refreshed_counter_->Add(stats.refreshed);
    skipped_counter_->Add(stats.skipped);
    options_.metrics->GetGauge("resilience.stale_fallbacks")
        ->Set(static_cast<std::int64_t>(control_.StaleFallbacks()));
    if (substrate_.wall_clock) {
      sync_duration_hist_->Observe(static_cast<double>(sync_wall_us));
      // How far behind schedule this sync ran (virtual us): the sampler's
      // view of control-plane health under load.
      options_.metrics->GetGauge("control.sync_lag_us")->Set(now - t);
    }
  }
}

void ControlLoop::SampleTick(SimTime) { options_.metrics->Sample(substrate_.timer->Now()); }

void ControlLoop::ScalingTick(SimTime) {
  FleetSample sample;
  sample.t = substrate_.timer->Now();
  for (int i = 0; i < NumModules(); ++i) {
    substrate_.with_module(i, [&](ModuleRuntime& m) {
      m.SetTargetUnits(ScalingTarget(m, options_.provision_headroom), WorkerBudget());
      sample.workers.push_back(m.ActiveWorkers());
    });
  }
  worker_history_.push_back(std::move(sample));
}

void ControlLoop::WatchdogTick(SimTime t) {
  const SimTime now = substrate_.timer->Now();
  for (int i = 0; i < NumModules(); ++i) {
    int killed = 0;
    substrate_.with_module(i, [&](ModuleRuntime& m) {
      // Judged at the sweep's scheduled instant, against the hang's.
      killed = m.FailHungWorkers(options_.resilience.hang_budget, t);
      if (killed > 0) {
        m.AddWorkers(std::min(killed, WorkerBudget()));
      }
    });
    if (killed == 0) {
      continue;
    }
    watchdog_kills_.fetch_add(static_cast<std::uint64_t>(killed), std::memory_order_relaxed);
    if (watchdog_counter_ != nullptr) {
      watchdog_counter_->Add(killed);
    }
    Emit(options_.trace, TraceEventKind::kWatchdog, i, now, killed);
  }
}

void ControlLoop::ApplyFault(const FleetEvent& event) {
  substrate_.with_module(event.module_id, [&](ModuleRuntime& m) {
    if (event.kind == FleetEvent::Kind::kKill) {
      m.FailWorkers(event.count);
    } else {
      m.AddWorkers(std::min(event.count, WorkerBudget()));
    }
  });
  TraceFleetEvent(options_.trace, event);
}

void ControlLoop::ApplyChaos(const ChaosEvent& event) {
  switch (event.kind) {
    case ChaosKind::kHang:
      substrate_.with_module(event.module_id, [&](ModuleRuntime& m) {
        m.HangWorkers(event.count, event.at, event.duration);
      });
      break;
    case ChaosKind::kSlow:
      substrate_.with_module(event.module_id, [&](ModuleRuntime& m) {
        m.SetSlowdown(event.factor, event.at + event.duration);
      });
      break;
    case ChaosKind::kStallSync:
      stall_until_ = std::max(stall_until_, event.at + event.duration);
      break;
  }
  TraceChaosEvent(options_.trace, event);
}

}  // namespace pard
