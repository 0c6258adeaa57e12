// What a module's batching state machine needs from the runtime around it.
//
// ModuleRuntime and its Workers implement the paper's Fig. 5 once for both
// substrates. Besides a ModuleTimer (sim/timer.h) they call out through this
// host only:
//   - request transitions: hand a request that finished this module to its
//     successors, drop one with a reason, ask whether a request already has
//     a fate, and reach the run's RequestLifecycle (retry verdict) and
//     trace recorder;
//   - the Request Broker: purge-expired, pop side, the drop decision at
//     batch entry and enqueue-time admission.
// PipelineRuntime is the simulator's host and answers the broker from its
// DropPolicy. Serve's ServeModule is the host of its one module and answers
// the broker from the ControlPlane's published snapshot; it defers hand-offs
// to other modules until its module lock is released.
//
// Hosts are called with the module's owner serialization held (the event
// loop, or serve's module mutex).
#ifndef PARD_RUNTIME_MODULE_HOST_H_
#define PARD_RUNTIME_MODULE_HOST_H_

#include "common/time_types.h"
#include "obs/drop_reason.h"
#include "runtime/drop_policy.h"
#include "runtime/request.h"
#include "runtime/request_queue.h"

namespace pard {

class RequestLifecycle;  // runtime/request_lifecycle.h
class TraceRecorder;     // obs/trace_recorder.h

class ModuleHost {
 public:
  // --- Request transitions ---------------------------------------------------
  // `req` finished module `module_id`: route it on, or complete it at a sink.
  virtual void OnModuleDone(RequestPtr req, int module_id) = 0;
  // Drops `req` at `module_id` for `reason` (a no-op if it already has a
  // fate).
  virtual void Drop(RequestPtr req, int module_id, DropReason reason) = 0;
  // Whether `req` already has a fate (another DAG branch may have set it).
  virtual bool IsTerminal(const Request& req) const = 0;
  virtual RequestLifecycle& lifecycle() = 0;
  // Null when tracing is off.
  virtual TraceRecorder* trace() = 0;

  // --- Request Broker (see DropPolicy) ----------------------------------------
  virtual bool PurgeExpired() const = 0;
  virtual PopSide ChoosePopSide(int module_id, SimTime now) = 0;
  virtual bool ShouldDrop(const AdmissionContext& ctx) = 0;
  virtual bool AdmitAtModule(const Request& request, int module_id, SimTime now) = 0;

 protected:
  ~ModuleHost() = default;
};

}  // namespace pard

#endif  // PARD_RUNTIME_MODULE_HOST_H_
