// Figure 14a: stress test. Instance counts are fixed while the offered
// request rate rises past cluster capacity; goodput should saturate near the
// optimum (min(rate, capacity)) for PARD and degrade for the baselines.
//
// The (rate x system) grid is a RunExperiments workload: 24 independent runs
// execute on PARD_JOBS worker threads (metrics are bit-identical for every
// job count), so the full paper-length sweep fits in CI time. Override the
// per-point duration with PARD_BENCH_DURATION_S.
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "models/registry.h"
#include "pipeline/apps.h"
#include "runtime/batch_planner.h"

namespace {

double Capacity(const pard::PipelineSpec& spec, const std::vector<int>& batches,
                const std::vector<int>& workers) {
  double capacity = 1e18;
  for (const pard::ModuleSpec& m : spec.modules()) {
    const double tput =
        pard::ProfileRegistry::Get(m.model).Throughput(batches[static_cast<std::size_t>(m.id)]) *
        workers[static_cast<std::size_t>(m.id)];
    capacity = std::min(capacity, tput);
  }
  return capacity;
}

}  // namespace

int main() {
  pard::bench::Title("fig14a_stress", "Fig. 14a (goodput vs offered rate, fixed instances)");

  const pard::PipelineSpec spec = pard::MakeLiveVideo();
  const std::vector<int> batches = pard::PlanBatchSizes(spec);
  // Fix instances for ~600 req/s capacity.
  const std::vector<int> workers = pard::PlanWorkers(spec, batches, 600.0, 1.0, 32, 64);
  const double capacity = Capacity(spec, batches, workers);
  const double duration_s = pard::bench::EnvOr("PARD_BENCH_DURATION_S", 60.0);
  pard::bench::WorkloadHeader(duration_s, 600.0, pard::bench::Jobs());
  std::printf("fixed instances per module:");
  for (int w : workers) {
    std::printf(" %d", w);
  }
  std::printf("   (capacity ~%.0f req/s)\n\n", capacity);

  // Identical Poisson stream per rate for all systems (shared seed + trace).
  const std::vector<double> rates = {300.0, 450.0, 600.0, 750.0, 900.0, 1200.0};
  std::vector<pard::ExperimentConfig> grid;
  for (const double rate : rates) {
    for (const auto& sys : pard::bench::Systems()) {
      pard::ExperimentConfig cfg;
      cfg.custom_spec = spec;
      cfg.custom_trace = pard::RateFunction::Constant(rate);
      cfg.trace = "constant";
      cfg.policy = sys;
      cfg.duration_s = duration_s;
      cfg.seed = 17;
      cfg.runtime.fixed_workers = workers;
      grid.push_back(std::move(cfg));
    }
  }
  const std::vector<pard::ExperimentResult> results =
      pard::RunExperiments(grid, pard::bench::Jobs());

  std::printf("%-10s", "rate");
  for (const auto& sys : pard::bench::Systems()) {
    std::printf(" %12s", sys.c_str());
  }
  std::printf(" %12s\n", "optimal");
  for (std::size_t r = 0; r < rates.size(); ++r) {
    std::printf("%-10.0f", rates[r]);
    for (std::size_t s = 0; s < pard::bench::Systems().size(); ++s) {
      const auto& result = results[r * pard::bench::Systems().size() + s];
      std::printf(" %12.0f", result.analysis->MeanGoodput());
    }
    std::printf(" %12.0f\n", std::min(rates[r], capacity));
  }
  std::printf("\npaper: past saturation PARD holds 11.9%%-132.9%% higher goodput than the\n");
  std::printf("baselines and sits 3.4x-23.4x closer to the optimal goodput line.\n");
  return 0;
}
