// Microservice-workflow case study (paper §7's third domain).
//
// Multi-stage RPC workflows share the pipeline structure but not the
// batching discipline: each stage serves requests one at a time on a pool of
// replicas, and per-request service time is noisy. This bench models such a
// workflow as a 4-stage pipeline with near-singleton batches (forced by a
// tight per-stage budget), many replicas, and 25% execution jitter, then compares
// dropping policies — proactive dropping generalizes, as §7 argues, with the
// DAGOR-style overload control (pard-oc) as the domain's incumbent.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "pipeline/apps.h"

using pard::bench::Pct;

namespace {

// Four light stages; the 80 ms SLO forces batch size 1 everywhere
// (2*d(2) exceeds every stage share), i.e. plain RPC servers.
pard::PipelineSpec MicroserviceWorkflow() {
  std::vector<pard::ModuleSpec> modules;
  const char* models[] = {"icon_recognition", "health_value_recognition",
                          "alive_player_recognition", "kill_count_detection"};
  for (int i = 0; i < 4; ++i) {
    pard::ModuleSpec m;
    m.id = i;
    m.model = models[i];
    if (i > 0) {
      m.pres.push_back(i - 1);
    }
    if (i < 3) {
      m.subs.push_back(i + 1);
    }
    modules.push_back(std::move(m));
  }
  return pard::PipelineSpec("rpc", pard::MsToUs(80), std::move(modules));
}

}  // namespace

int main() {
  pard::bench::Title("ext_microservice",
                     "§7 microservice-workflow case study (RPC stages, no batching)");

  const pard::PipelineSpec spec = MicroserviceWorkflow();
  std::printf("4-stage RPC workflow, SLO %.0f ms, near-singleton batches, 25%% exec jitter\n\n",
              pard::UsToMs(spec.slo()));

  std::printf("%-12s %12s %12s %14s\n", "policy", "norm.goodput", "drop rate", "invalid rate");
  for (const std::string policy : {"pard", "pard-oc", "nexus", "clipper++", "naive"}) {
    pard::ExperimentConfig c;
    c.custom_spec = spec;
    c.trace = "azure";
    c.policy = policy;
    c.duration_s = 120.0;
    c.base_rate = 400.0;
    c.seed = 7;
    c.runtime.provision_headroom = 1.25;
    c.runtime.enable_scaling = true;
    c.runtime.scaling_epoch = 5 * pard::kUsPerSec;
    c.runtime.exec_jitter = 0.25;
    if (policy == "pard-oc") {
      c.params.oc_threshold = 10 * pard::kUsPerMs;  // Scaled to the 80 ms SLO.
    }
    const auto r = pard::RunExperiment(c);
    std::printf("%-12s %12.3f %11.2f%% %13.2f%%\n", policy.c_str(),
                r.analysis->NormalizedGoodput(), Pct(r.analysis->DropRate()),
                Pct(r.analysis->InvalidRate()));
  }
  std::printf("\nexpected shape: without batch wait the estimation problem is easier, but\n");
  std::printf("execution jitter plus queueing still reward pipeline-wide proactive\n");
  std::printf("estimation over stage-local reactive checks and coarse admission control.\n");
  return 0;
}
