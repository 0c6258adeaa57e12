// One pipeline module served in real time: the simulator's ModuleRuntime and
// Workers (the paper's Fig. 5 state machine), driven by a wall-clock timer.
//
// The simulator drives a ModuleRuntime from its event kernel; here a
// ServeModule drives one from a timer thread. The module's state — its
// ModuleRuntime, every Worker's DEPQ, forming and executing batch, the
// monitoring windows and the pending timer events — sits behind ONE mutex.
// Two kinds of thread enter it:
//   - upstream threads (the injecting thread, ingress brokers, other
//     modules' timer threads) call Receive(), which runs
//     ModuleRuntime::Receive: admission, least-loaded dispatch and
//     Worker::Enqueue, so the Request Broker decides at arrival with the
//     running batch's real end t_e, and an idle worker launches at once;
//   - the module's own timer thread (a ServeTimer, serve_clock.h) waits on an
//     alarm armed at the earliest pending event's absolute ServeClock
//     deadline (re-armed by whichever thread schedules an earlier one) and
//     fires every event that is due: batch completions (hop records, the
//     next batch launched back-to-back from the forming batch), cold-start
//     activations and the end of finite hangs.
// Every entry first fires the events already due, so a busy module's
// completions never wait for its timer thread to be scheduled: the next
// caller in fires them, in deadline order, before its own work. A batch
// "executes" until its completion event fires, so only that lateness lands
// on the measured execution, like real kernel-time variance. One thread per
// module replaces a thread per emulated GPU.
//
// The ServeModule is its ModuleRuntime's ModuleHost: drops resolve the
// request's fate at once, and requests that finish this module go to an
// outbox that the thread which fired their completion forwards to their
// successors only after releasing the mutex — so no thread ever holds two
// module mutexes. The Request Broker is the runtime's ControlPlane, which
// the ModuleRuntime asks directly, as in the simulator.
//
// The control loop (runtime/control_loop.h, on the runtime's control
// thread) enters the module through With(): the sync, scaling, fault and
// chaos events and the watchdog call the ModuleRuntime under the module
// mutex — the simulator's semantics exactly, including the retry of a
// failed worker's queued and in-flight requests on surviving workers.
//
// Concurrency contract (lock ranks per common/lock_order.h):
//   - mu_ (kModule) guards everything above. Under it a thread may take an
//     admission-shard mutex (broker admission) and a fate stripe (drops,
//     IsTerminal), never another module's mutex.
//   - The control loop's sync only copies the wait samples under mu_;
//     they come back unsorted, for it to sort with no lock held.
//   - Start() and Stop() come from the thread that runs the serve run,
//     With() from the control thread.
#ifndef PARD_SERVE_SERVE_MODULE_H_
#define PARD_SERVE_SERVE_MODULE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/thread_pool.h"
#include "models/model_profile.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/backend_fleet.h"
#include "runtime/module_host.h"
#include "runtime/module_runtime.h"
#include "runtime/request.h"
#include "runtime/runtime_options.h"
#include "serve/serve_clock.h"

namespace pard {

class ServeRuntime;

class ServeModule final : private ModuleHost {
 public:
  // Provisions `workers` warm workers at the clock's current time (0 while
  // the runtime is still being built). No thread starts before Start().
  ServeModule(ServeRuntime* runtime, BackendFleet* fleet, const ModuleSpec& spec,
              const ModelProfile& profile, int batch_size, int workers,
              const RuntimeOptions& options);
  ~ServeModule();

  // Starts the timer thread. Call once, after the clock has started.
  void Start();
  // Stops and joins the timer thread; events still pending never fire, and
  // the requests they would have moved stay where they are for the
  // runtime's end-of-run sweep. Re-throws the thread's exception, if any.
  // Idempotent.
  void Stop();

  // Delivery from upstream (any thread; DAG merge readiness is already
  // settled).
  void Receive(RequestPtr req);

  // Control entry (control thread): runs fn on the module's ModuleRuntime
  // under the module mutex, like any other entry. A no-op once stopped.
  void With(const std::function<void(ModuleRuntime&)>& fn);

 private:
  // A request that finished this module, waiting for the lock to drop.
  struct Handoff {
    RequestPtr req;
    SimTime at;
  };

  void TimerLoop();
  // Every entry into the module: under the mutex, fires the timer events
  // already due (whichever thread gets here first, the timer thread or a
  // caller), then runs `fn`; after releasing it, forwards the hand-offs the
  // events produced. `expired` marks the timer thread's entry after its
  // alarm fired. Returns false, running nothing, once Stop() was called.
  template <typename Fn>
  bool Enter(Fn&& fn, bool expired = false);

  // --- ModuleHost -------------------------------------------------------------
  void OnModuleDone(RequestPtr req, int module_id) override;
  void Drop(RequestPtr req, int module_id, DropReason reason) override;
  bool IsTerminal(const Request& req) const override;
  RequestLifecycle& lifecycle() override;
  TraceRecorder* trace() override;

  ServeRuntime* runtime_;
  const ServeClock& clock_;
  const int module_id_;

  std::mutex mu_;  // LockRank::kModule.
  bool stop_ = false;
  ServeTimer timer_;
  std::unique_ptr<ModuleRuntime> module_;
  std::vector<Handoff> outbox_;
  WorkerGroup thread_;
};

}  // namespace pard

#endif  // PARD_SERVE_SERVE_MODULE_H_
