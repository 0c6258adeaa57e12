// The timer a module's batching state machine runs against.
//
// ModuleRuntime and its Workers (runtime/) read the time and schedule their
// future transitions — batch completions, cold-start activations, the end of
// a finite hang — through this interface only, so one Fig. 5 state machine
// serves both substrates:
//   - the simulator passes its discrete-event kernel (Simulation), where
//     time jumps from event to event;
//   - serve passes a per-module timer whose thread fires each event at its
//     absolute wall-clock deadline (ServeTimer, serve/serve_clock.h).
// The control loop (runtime/control_loop.h) schedules its periodic jobs
// through the same interface: on the kernel, or on serve's control timer.
//
// Callers serialize every call with the callbacks themselves: the event loop
// in the simulator, the module mutex (or the control thread) in serve.
#ifndef PARD_SIM_TIMER_H_
#define PARD_SIM_TIMER_H_

#include <cstdint>

#include "common/time_types.h"
#include "sim/inline_callback.h"

namespace pard {

// Identifies one scheduled event; unique per timer, never reused.
using EventId = std::uint64_t;

class ModuleTimer {
 public:
  using Callback = InlineCallback;

  // Current (virtual) time.
  virtual SimTime Now() const = 0;

  // Runs `cb` once at absolute time `t` (>= Now()). Events due at the same
  // instant run in scheduling order.
  virtual EventId ScheduleAt(SimTime t, Callback cb) = 0;

  // Drops a pending event; false (and no effect) when it already ran, was
  // already cancelled, or is unknown.
  virtual bool Cancel(EventId id) = 0;

 protected:
  ~ModuleTimer() = default;
};

}  // namespace pard

#endif  // PARD_SIM_TIMER_H_
