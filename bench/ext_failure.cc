// Machine-failure disturbance study (extension).
//
// The paper motivates request dropping with two disturbance sources:
// workload bursts and machine failures (§1, §2). The main evaluation
// exercises bursts; this bench exercises the failure path: half of one
// module's GPUs die mid-run, the scaling engine replaces them after a cold
// start, and the dropping policy decides how much goodput survives the
// capacity hole.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "runtime/backend_fleet.h"

using pard::bench::Pct;

int main() {
  pard::bench::Title("ext_failure",
                     "machine-failure disturbance (paper §1/§2 motivation, extension)");

  std::printf("lv pipeline, steady wiki trace; at t=60s half of module 2's workers\n");
  std::printf("fail; scaling replaces them after a cold start.\n\n");
  std::printf("%-12s %12s %12s %16s %18s\n", "policy", "drop rate", "invalid", "goodput@fail",
              "goodput@recovered");
  for (const std::string policy : {"pard", "nexus", "clipper++", "naive"}) {
    pard::ExperimentConfig c;
    c.app = "lv";
    c.trace = "wiki";
    c.policy = policy;
    c.duration_s = 150.0;
    c.base_rate = 200.0;
    c.seed = 7;
    c.runtime.provision_headroom = 1.25;
    c.runtime.enable_scaling = true;
    c.runtime.scaling_epoch = 5 * pard::kUsPerSec;
    c.runtime.fleet_events = pard::ParseFaultSchedule("60:1:kill:2");
    const auto r = pard::RunExperiment(c);
    const double during =
        r.analysis->Slice(pard::SecToUs(60), pard::SecToUs(75)).NormalizedGoodput();
    const double after =
        r.analysis->Slice(pard::SecToUs(90), pard::SecToUs(140)).NormalizedGoodput();
    std::printf("%-12s %11.2f%% %11.2f%% %15.3f %17.3f\n", policy.c_str(),
                Pct(r.analysis->DropRate()), Pct(r.analysis->InvalidRate()), during, after);
  }
  std::printf("\nexpected shape: every policy dips while capacity is down; PARD wastes\n");
  std::printf("the least computation on doomed requests during the hole and recovers\n");
  std::printf("to full goodput once replacements warm up.\n");
  return 0;
}
