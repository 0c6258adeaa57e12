// Pipeline runtime: the full serving engine for one application.
//
// Owns the simulation kernel, one ModuleRuntime (controller + workers) per
// pipeline module and the network-delay hop between modules. It is every
// module's ModuleHost (runtime/module_host.h) and their kernel their
// ModuleTimer. The periodic control jobs — state sync, scaling, the fault
// and chaos schedules and the hang watchdog — are the serving runtime's own
// ControlLoop (runtime/control_loop.h), run as kernel events, so the
// Request Broker decides through the same ControlPlane, refreshed inline on
// the event loop. The request lifecycle — stamping, DAG split/merge, fates
// and their accounting (runtime/request_lifecycle.h) — is shared too. A run
// injects a trace of client arrivals and leaves behind the full set of
// Request records for offline analysis.
#ifndef PARD_RUNTIME_PIPELINE_RUNTIME_H_
#define PARD_RUNTIME_PIPELINE_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "pipeline/pipeline_spec.h"
#include "runtime/backend_fleet.h"
#include "runtime/control_loop.h"
#include "runtime/control_plane.h"
#include "runtime/drop_policy.h"
#include "runtime/module_host.h"
#include "runtime/module_runtime.h"
#include "runtime/request.h"
#include "runtime/request_lifecycle.h"
#include "runtime/runtime_options.h"
#include "runtime/state_board.h"
#include "sim/simulation.h"

namespace pard {

class PipelineRuntime final : public ModuleHost {
 public:
  // `policy` must outlive the runtime and provide a PolicyView (the control
  // plane rejects one that does not). Worker provisioning uses
  // options.fixed_workers if set, otherwise `expected_rate` with the
  // configured headroom.
  PipelineRuntime(const PipelineSpec& spec, const RuntimeOptions& options, DropPolicy* policy,
                  double expected_rate);

  // Runs the complete trace (sorted client send timestamps) plus drain time
  // (options.drain after the last arrival). The arrivals stream through the
  // kernel (Simulation::ScheduleStream) rather than each taking an event
  // slot.
  void RunTrace(const std::vector<SimTime>& arrivals);

  Simulation& sim() { return sim_; }
  const PipelineSpec& spec() const { return spec_; }
  const StateBoard& board() const { return loop_.board(); }
  const ControlPlane& control() const { return loop_.control(); }
  // Shared worker-roster layer: backend profiles, per-worker states and the
  // timestamped transition log (see runtime/backend_fleet.h).
  const BackendFleet& fleet() const { return fleet_; }
  ModuleRuntime& module(int id);
  const std::vector<int>& batch_sizes() const { return lifecycle_.batch_sizes(); }

  // All requests injected so far (terminal after RunTrace); the metrics
  // library analyzes these.
  const std::vector<RequestPtr>& requests() const { return lifecycle_.requests(); }

  // Worker-count history per module: (time, active workers), recorded at
  // each scaling epoch. Used by the cold-start analysis bench.
  const std::vector<FleetSample>& worker_history() const { return loop_.worker_history(); }

  // Total successful re-enqueues after worker failures (resilience path).
  std::uint64_t retries() const { return lifecycle_.retries(); }
  // Hung workers the watchdog failed (options.resilience.hang_budget).
  std::uint64_t watchdog_recoveries() const { return loop_.watchdog_recoveries(); }

  // --- ModuleHost (called by ModuleRuntime/Worker) --------------------------
  void OnModuleDone(RequestPtr req, int module_id) override;
  RequestLifecycle& lifecycle() override { return lifecycle_; }

 private:
  void Inject();
  void Deliver(RequestPtr req, int module_id);
  // The loop's jobs run as kernel events and enter modules directly.
  ControlLoop::Substrate ControlSubstrate();

  PipelineSpec spec_;
  RuntimeOptions options_;
  RequestLifecycle lifecycle_;
  Simulation sim_;
  BackendFleet fleet_;
  ControlLoop loop_;
  std::vector<std::unique_ptr<ModuleRuntime>> modules_;
};

}  // namespace pard

#endif  // PARD_RUNTIME_PIPELINE_RUNTIME_H_
