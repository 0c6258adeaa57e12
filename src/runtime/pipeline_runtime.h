// Pipeline runtime: the full serving engine for one application.
//
// Owns the simulation kernel, one ModuleRuntime (controller + workers) per
// pipeline module, the shared StateBoard, the network-delay hop between
// modules, the periodic state-sync tick and the optional resource-scaling
// engine. It is every module's ModuleHost (runtime/module_host.h) and their
// kernel their ModuleTimer. The Request Broker's decisions and the sync come
// from the same ControlPlane the serving runtime uses
// (runtime/control_plane.h), refreshed inline on the event loop, and so does
// the request lifecycle — stamping, DAG split/merge, fates and their
// accounting (runtime/request_lifecycle.h). A run injects a trace of client
// arrivals and leaves behind the full set of Request records for offline
// analysis.
#ifndef PARD_RUNTIME_PIPELINE_RUNTIME_H_
#define PARD_RUNTIME_PIPELINE_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "pipeline/pipeline_spec.h"
#include "runtime/backend_fleet.h"
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

  // Runs the complete trace (sorted client send timestamps) plus drain time.
  // The arrivals stream through the kernel (Simulation::ScheduleStream)
  // rather than each taking an event slot.
  void RunTrace(const std::vector<SimTime>& arrivals);

  Simulation& sim() { return sim_; }
  const PipelineSpec& spec() const { return spec_; }
  const StateBoard& board() const { return board_; }
  const ControlPlane& control() const { return control_; }
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
  using WorkerSample = FleetSample;
  const std::vector<WorkerSample>& worker_history() const { return worker_history_; }

  // Total successful re-enqueues after worker failures (resilience path).
  std::uint64_t retries() const { return lifecycle_.retries(); }

  // --- ModuleHost (called by ModuleRuntime/Worker) --------------------------
  void OnModuleDone(RequestPtr req, int module_id) override;
  void Drop(RequestPtr req, int module_id, DropReason reason) override;
  bool IsTerminal(const Request& req) const override { return req.Terminal(); }
  RequestLifecycle& lifecycle() override { return lifecycle_; }
  // Observability (null when disabled via RuntimeOptions).
  TraceRecorder* trace() override { return options_.trace; }

 private:
  void Inject();
  void SyncTick();
  void ScalingTick();
  void Deliver(RequestPtr req, int module_id);

  PipelineSpec spec_;
  RuntimeOptions options_;
  RequestLifecycle lifecycle_;
  Simulation sim_;
  StateBoard board_;
  ControlPlane control_;
  BackendFleet fleet_;
  std::vector<std::unique_ptr<ModuleRuntime>> modules_;
  std::vector<WorkerSample> worker_history_;
  SimTime last_arrival_ = 0;
  // One state per module, carried between sync ticks (see SyncTick), and
  // the wait-sample sort's working space.
  std::vector<ModuleState> sync_states_;
  std::vector<double> sort_scratch_;
  // Chaos stall-sync window: SyncTick keeps rescheduling but skips the sync
  // while now < stall_until_, so the published snapshot ages exactly as it
  // does in serve.
  SimTime stall_until_ = 0;
};

}  // namespace pard

#endif  // PARD_RUNTIME_PIPELINE_RUNTIME_H_
