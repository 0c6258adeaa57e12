// Determinism contract of the parallel harness entry points
// (RunExperiments, RunReplicated): job count changes wall-clock, never
// numbers.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace pard {
namespace {

std::vector<ExperimentConfig> SmallGrid() {
  std::vector<ExperimentConfig> grid;
  for (const std::string app : {"tm", "lv"}) {
    for (const std::string policy : {"pard", "nexus", "naive"}) {
      ExperimentConfig c;
      c.app = app;
      c.trace = "tweet";
      c.policy = policy;
      c.duration_s = 30.0;
      c.base_rate = 120.0;
      c.seed = 11;
      grid.push_back(c);
    }
  }
  return grid;
}

// Render the headline metrics at full precision so "bit-identical" means
// exactly that — any ULP of drift across job counts fails the comparison.
std::string MetricBytes(const ExperimentResult& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.17g|%.17g|%.17g|%zu", r.analysis->NormalizedGoodput(),
                r.analysis->DropRate(), r.analysis->InvalidRate(), r.analysis->Total());
  return buf;
}

TEST(SweepDeterminism, JobCountNeverChangesMetrics) {
  const std::vector<ExperimentConfig> grid = SmallGrid();
  const std::vector<ExperimentResult> serial = RunExperiments(grid, 1);
  const std::vector<ExperimentResult> parallel = RunExperiments(grid, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(MetricBytes(serial[i]), MetricBytes(parallel[i]))
        << grid[i].app << "/" << grid[i].policy;
  }
}

TEST(SweepDeterminism, ResultsMatchSerialRunExperiment) {
  const std::vector<ExperimentConfig> grid = SmallGrid();
  const std::vector<ExperimentResult> swept = RunExperiments(grid, 4);
  // Spot-check one grid point against a direct serial run.
  const ExperimentResult direct = RunExperiment(grid[4]);
  EXPECT_EQ(MetricBytes(swept[4]), MetricBytes(direct));
}

TEST(Replicated, ParallelReplicasMatchSerial) {
  ExperimentConfig config;
  config.app = "tm";
  config.trace = "tweet";
  config.policy = "pard";
  config.duration_s = 30.0;
  config.base_rate = 100.0;
  const ReplicatedResult serial = RunReplicated(config, 4, 1);
  const ReplicatedResult parallel = RunReplicated(config, 4, 4);
  EXPECT_EQ(serial.drop_rate.mean, parallel.drop_rate.mean);
  EXPECT_EQ(serial.drop_rate.stddev, parallel.drop_rate.stddev);
  EXPECT_EQ(serial.normalized_goodput.mean, parallel.normalized_goodput.mean);
  EXPECT_EQ(serial.invalid_rate.max, parallel.invalid_rate.max);
}

}  // namespace
}  // namespace pard
