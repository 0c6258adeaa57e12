// Open-loop load generation for the serving runtime.
//
// An open-loop generator emits requests on its own schedule and never waits
// for the system — the arrival process the paper (and every serving study
// since) uses, because closed-loop clients mask overload by self-throttling.
//
// The schedule is a sorted vector of virtual send timestamps, drawn by the
// harness from the workload's rate curve (trace/arrival_generator.h) exactly
// as for the simulator. LoadGenerator is a thread that walks it against a
// ServeClock, sleeping until each arrival's wall time and invoking the
// inject callback. If the system falls behind, injection does NOT slow down
// (open loop); the callback runs late and the request's budget is simply
// that much more consumed.
#ifndef PARD_SERVE_LOAD_GENERATOR_H_
#define PARD_SERVE_LOAD_GENERATOR_H_

#include <functional>
#include <vector>

#include "common/time_types.h"
#include "exec/thread_pool.h"
#include "serve/serve_clock.h"

namespace pard {

// Replays `arrivals` (sorted virtual timestamps) in wall time against
// `clock`, calling `inject(t)` for each. Start() spawns the generator
// thread; Join() blocks until the stream is exhausted. The callback runs on
// the generator thread and must be thread-safe.
class LoadGenerator {
 public:
  LoadGenerator(const ServeClock* clock, std::vector<SimTime> arrivals,
                std::function<void(SimTime)> inject);

  void Start();
  void Join();

  // Last scheduled send time (0 when the stream is empty).
  SimTime LastArrival() const;

 private:
  const ServeClock* clock_;
  std::vector<SimTime> arrivals_;
  std::function<void(SimTime)> inject_;
  WorkerGroup thread_;
};

}  // namespace pard

#endif  // PARD_SERVE_LOAD_GENERATOR_H_
