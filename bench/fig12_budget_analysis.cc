// Figure 12: where the latency budget goes.
//  (a) consumed latency budget per module for SLO-compliant requests
//      (with the scaling engine on, so cold-start spikes appear)
//  (b) CDF of end-to-end sumQ, sumW, sumD
//  (c) per-module queueing delay during the burst: PARD vs PARD-FCFS vs
//      PARD-LBF
//  (d) remaining latency budget of 100 consecutive requests at M2 / M3
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"

using pard::bench::StdConfig;

int main() {
  pard::bench::Title("fig12_budget_analysis", "Fig. 12a-12d (latency budget analysis, lv-tweet)");
  pard::bench::StdWorkloadHeader();

  // ---- (a) consumed budget per module, scaling on ----------------------------
  pard::bench::Section("(a) mean consumed latency budget per module (ms), SLO-compliant requests");
  pard::ExperimentConfig scaled = StdConfig("lv", "tweet", "pard");
  scaled.runtime.enable_scaling = true;
  scaled.runtime.provision_headroom = 0.9;
  const auto run_scaled = pard::RunExperiment(scaled);
  {
    const auto consumed = run_scaled.analysis->MeanConsumedBudgetPerModule();
    double total = 0.0;
    for (std::size_t m = 0; m < consumed.size(); ++m) {
      std::printf("M%zu %8.2f ms\n", m + 1, consumed[m] / 1000.0);
      total += consumed[m];
    }
    std::printf("total %6.2f ms of the %.0f ms SLO\n", total / 1000.0,
                pard::UsToMs(run_scaled.spec.slo()));
    std::printf("worker history samples (scaling engine): %zu\n",
                run_scaled.worker_history.size());
  }

  // ---- (b) CDFs of sumQ / sumW / sumD ----------------------------------------
  pard::bench::Section("(b) CDF of end-to-end queueing (Q), batch wait (W), execution (D)");
  const auto run = pard::RunExperiment(StdConfig("lv", "tweet", "pard"));
  const auto q = run.analysis->SumQueueDistribution();
  const auto w = run.analysis->SumWaitDistribution();
  const auto d = run.analysis->SumExecDistribution();
  std::printf("%-10s %10s %10s %10s\n", "quantile", "sumQ (ms)", "sumW (ms)", "sumD (ms)");
  for (const double p : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    std::printf("p%-9.0f %10.2f %10.2f %10.2f\n", p * 100, q.Quantile(p) / 1000.0,
                w.Quantile(p) / 1000.0, d.Quantile(p) / 1000.0);
  }
  const double w_spread = (w.Quantile(0.9) - w.Quantile(0.1)) / 1000.0;
  const double d_spread = (d.Quantile(0.9) - d.Quantile(0.1)) / 1000.0;
  std::printf("sumW p90-p10 spread %.2f ms vs sumD spread %.2f ms\n", w_spread, d_spread);
  std::printf("paper: sumW exhibits far greater variance than sumQ or sumD.\n");

  // ---- (c) queueing delay during the burst ------------------------------------
  pard::bench::Section("(c) mean queueing delay per module during the burst region (ms)");
  std::printf("%-12s", "policy");
  for (int m = 1; m <= 5; ++m) {
    std::printf(" %9s", ("M" + std::to_string(m)).c_str());
  }
  std::printf("\n");
  for (const std::string policy : {"pard", "pard-fcfs", "pard-lbf"}) {
    const auto r = pard::RunExperiment(StdConfig("lv", "tweet", policy));
    const auto region = r.burst_region;
    const auto delays = r.analysis->MeanQueueDelayPerModule(region.begin, region.end);
    std::printf("%-12s", policy.c_str());
    for (double v : delays) {
      std::printf(" %9.2f", v / 1000.0);
    }
    std::printf("\n");
  }
  std::printf("paper: FCFS/LBF accumulate queueing during bursts (+34%% delay for FCFS);\n");
  std::printf("PARD's HBF mode keeps module queues short.\n");

  // ---- (d) remaining budgets of consecutive requests ---------------------------
  pard::bench::Section("(d) remaining latency budget of 100 consecutive requests (ms)");
  for (const int module : {1, 2}) {
    const auto budgets = run.analysis->RemainingBudgetAt(module, 100, 2000);
    double lo = 1e18;
    double hi = -1e18;
    double mean = 0.0;
    for (double b : budgets) {
      lo = std::min(lo, b);
      hi = std::max(hi, b);
      mean += b / static_cast<double>(budgets.size());
    }
    std::printf("M%d: n=%zu  min %.1f  mean %.1f  max %.1f  (spread %.1f ms)\n", module + 1,
                budgets.size(), lo / 1000.0, mean / 1000.0, hi / 1000.0, (hi - lo) / 1000.0);
  }
  std::printf("paper: remaining budgets of consecutive requests are highly variable and\n");
  std::printf("time-independent — arrival order does not reflect them (Fig. 12d).\n");
  return 0;
}
