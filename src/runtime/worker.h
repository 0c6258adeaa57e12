// Emulated GPU worker: the paper's Fig. 5 batching state machine.
//
// A worker serves one module on one (virtual) GPU. It is the only batching
// implementation: the simulator and serve both run it, through the
// ModuleTimer, ControlPlane and ModuleHost its ModuleRuntime was built with.
// It implements the batching discipline of the paper's Fig. 3b: while a
// batch executes, the next batch is formed from the queue; requests admitted
// to the forming batch at t_b start executing at t_e (the running batch's
// end), giving each request a batch wait W = t_e - t_b in [0, d]. An idle
// worker launches immediately (W = 0). The drop decision (Request Broker,
// asked of the ControlPlane) happens exactly at admission time, when t_e and
// d_k are known.
//
// Each worker occupies one BackendFleet slot: its backend profile scales
// profiled batch durations (slot.exec_scale) and sets its cold-start delay,
// and every state change is mirrored to the fleet so capacity accounting
// and the transition log read the same in both substrates.
#ifndef PARD_RUNTIME_WORKER_H_
#define PARD_RUNTIME_WORKER_H_

#include <vector>

#include "runtime/backend_fleet.h"
#include "runtime/request.h"
#include "runtime/request_queue.h"
#include "sim/timer.h"

namespace pard {

class ModuleRuntime;

class Worker {
 public:
  enum class State {
    kColdStarting,  // Provisioned but still loading the model.
    kActive,
    kDraining,  // Excluded from dispatch; finishes its backlog then retires.
    kRetired,
  };

  Worker(ModuleTimer* timer, ModuleRuntime* module, BackendFleet* fleet, const BackendSlot& slot);

  // Dispatcher entry point: enqueue and, if capacity allows, immediately
  // pull into the forming batch / start executing.
  void Enqueue(RequestPtr req);

  // Load metric used by the dispatcher (queued + forming + executing).
  std::size_t Load() const;

  int worker_id() const { return slot_.worker_id; }
  const BackendSlot& slot() const { return slot_; }
  State state() const { return state_; }
  bool Dispatchable() const { return state_ == State::kActive && !hung_; }
  bool hung() const { return hung_; }
  // When the current hang began (meaningful while hung()).
  SimTime hung_at() const { return hung_at_; }
  bool Idle() const { return !executing_ && forming_.empty() && queue_.Empty(); }

  // Scaling transitions.
  void Activate();                 // Cold start finished.
  void BeginDraining();            // Stop receiving work; retire when empty.

  // Hard failure: the GPU dies. The worker retires immediately; every
  // queued, forming and executing request is routed through the module's
  // deadline-aware retry path (re-enqueued on a surviving worker, or dropped
  // kWorkerFailure / kRetryExhausted).
  void Fail();

  // Chaos hang, begun at `at` (the chaos event's scheduled instant, which a
  // late serve wake-up trails): the worker freezes without dying — it stops
  // accepting dispatch and, if executing, its batch stalls. A finite hang
  // (`duration` > 0) delays the in-flight batch by the hang window and
  // clears via Unhang(); an indefinite hang (0) freezes the batch until
  // Fail() — the control loop's watchdog calls it through
  // ModuleRuntime::FailHungWorkers in both substrates — or the end-of-run
  // sweep.
  void Hang(SimTime at, Duration duration);
  void Unhang();

 private:
  friend class ModuleRuntime;

  // Pulls queued requests into the forming batch, asking the control plane
  // for the drop decision per request.
  void FillFormingBatch();

  // Launches the forming batch if the GPU is free.
  void MaybeLaunch();

  void OnBatchComplete();

  ModuleTimer* timer_;
  ModuleRuntime* module_;
  BackendFleet* fleet_;
  BackendSlot slot_;
  State state_ = State::kColdStarting;
  bool hung_ = false;  // Excluded from dispatch and launch while set.
  SimTime hung_at_ = 0;

  RequestQueue queue_;
  std::vector<RequestPtr> forming_;
  bool executing_ = false;
  SimTime exec_end_ = 0;
  std::vector<RequestPtr> executing_batch_;
  SimTime exec_start_ = 0;
  EventId exec_event_ = 0;
};

}  // namespace pard

#endif  // PARD_RUNTIME_WORKER_H_
