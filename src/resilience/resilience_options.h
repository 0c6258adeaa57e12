// Knobs for the chaos-injection + self-healing layer. All defaults are inert:
// with an empty chaos schedule, max_retries = 0, hang_budget = 0, and
// staleness_budget = 0 every resilience code path is a no-op and homogeneous
// no-chaos runs stay bit-identical to the pre-resilience kernel.
#ifndef PARD_RESILIENCE_RESILIENCE_OPTIONS_H_
#define PARD_RESILIENCE_RESILIENCE_OPTIONS_H_

#include "common/time_types.h"
#include "resilience/chaos.h"

namespace pard {

struct ResilienceOptions {
  // Chaos schedule injected alongside the fleet fault schedule. Probabilistic
  // templates are expanded deterministically from the run seed.
  ChaosSchedule chaos;

  // Deadline-aware retry: requests in a killed/hung worker's batch are
  // re-enqueued up to this many times, provided their remaining deadline
  // budget still covers the stage's planned batch duration. 0 disables retry
  // (in-flight work from a failed worker drops as kWorkerFailure).
  int max_retries = 0;

  // Watchdog (both substrates; runtime/control_loop.h): a worker hung for
  // longer than this is failed (Worker::Fail, the path a scheduled kill
  // takes) and a replacement is provisioned after cold start. 0 disables
  // the watchdog.
  Duration hang_budget = 0;

  // Graceful degradation: when a module's ControlSnapshot is older than
  // this, admission falls back to a conservative static drop rule instead of
  // trusting a dead estimator. 0 disables the staleness check.
  Duration staleness_budget = 0;
};

}  // namespace pard

#endif  // PARD_RESILIENCE_RESILIENCE_OPTIONS_H_
