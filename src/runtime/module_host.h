// What a module's batching state machine needs from the runtime around it.
//
// ModuleRuntime and its Workers implement the paper's Fig. 5 once for both
// substrates. Besides a ModuleTimer (sim/timer.h) and the run's
// ControlPlane (runtime/control_plane.h), which answers every Request
// Broker decision, they call out through this host only: hand a request
// that finished this module to its successors, and reach the run's
// RequestLifecycle (merges, fates, the retry verdict), which any thread may
// call. PipelineRuntime is the simulator's host. Serve's ServeModule is the
// host of its one module; it defers hand-offs to other modules until its
// module lock is released.
//
// Hosts are called with the module's owner serialization held (the event
// loop, or serve's module mutex).
#ifndef PARD_RUNTIME_MODULE_HOST_H_
#define PARD_RUNTIME_MODULE_HOST_H_

#include "runtime/request.h"

namespace pard {

class RequestLifecycle;  // runtime/request_lifecycle.h

class ModuleHost {
 public:
  // `req` finished module `module_id`: route it on, or complete it at a sink.
  virtual void OnModuleDone(RequestPtr req, int module_id) = 0;
  virtual RequestLifecycle& lifecycle() = 0;

 protected:
  ~ModuleHost() = default;
};

}  // namespace pard

#endif  // PARD_RUNTIME_MODULE_HOST_H_
