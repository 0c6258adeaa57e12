// Empirical distribution with inverse-CDF (quantile) lookup.
//
// Used for the aggregated batch-wait distribution F_{k+1..N}: the State
// Planner materializes Monte-Carlo sums into an EmpiricalDistribution and the
// Request Broker reads w_k = F^-1(lambda) from it (paper §4.2).
#ifndef PARD_STATS_EMPIRICAL_DISTRIBUTION_H_
#define PARD_STATS_EMPIRICAL_DISTRIBUTION_H_

#include <vector>

namespace pard {

class EmpiricalDistribution {
 public:
  EmpiricalDistribution() = default;
  // Takes ownership of samples; they need not be sorted.
  explicit EmpiricalDistribution(std::vector<double> samples);

  void Add(double sample);

  bool Empty() const { return samples_.size() == 0; }
  std::size_t Size() const { return samples_.size(); }

  // Inverse CDF. q is clamped to [0, 1]; q=0 returns the minimum, q=1 the
  // maximum; interior quantiles use linear interpolation between order
  // statistics. Returns `fallback` when empty.
  double Quantile(double q, double fallback = 0.0) const;

  // Empirical CDF value P(X <= x). Returns 0 when empty.
  double Cdf(double x) const;

  double Mean() const;
  double Min() const;
  double Max() const;

 private:
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace pard

#endif  // PARD_STATS_EMPIRICAL_DISTRIBUTION_H_
