// Offline model profiles: execution duration as a function of batch size.
//
// PARD (like Nexus and Clockwork) reduces each DNN to its offline-profiled
// batch latency table d(b); every control decision — batch-size planning,
// throughput estimation, the D terms of the latency estimator — reads this
// table. Profiles can be constructed directly, fitted from (alpha, beta)
// linear coefficients, or round-tripped through JSON (ToJson/FromJson).
#ifndef PARD_MODELS_MODEL_PROFILE_H_
#define PARD_MODELS_MODEL_PROFILE_H_

#include <string>
#include <vector>

#include "common/time_types.h"
#include "jsonio/json.h"

namespace pard {

class ModelProfile {
 public:
  ModelProfile() = default;

  // `durations[i]` is the execution duration at batch size i+1; must be
  // non-empty and strictly positive.
  ModelProfile(std::string name, std::vector<Duration> durations);

  // Builds a profile from the common linear batch model
  //   d(b) = alpha + beta * b
  // which matches GPU inference behaviour well (fixed kernel-launch/copy cost
  // plus per-sample compute).
  static ModelProfile Linear(std::string name, Duration alpha_us, Duration beta_us,
                             int max_batch);

  const std::string& name() const { return name_; }
  int MaxBatch() const { return static_cast<int>(durations_.size()); }

  // Duration at batch size b; b is clamped to [1, MaxBatch()].
  Duration BatchDuration(int batch) const;

  // Requests per second at batch size b.
  double Throughput(int batch) const;

  // Largest batch size whose throughput is maximal subject to
  // 2 * d(b) <= budget (a request may wait up to one full batch duration
  // before executing, so feasibility requires two batch durations within the
  // module budget — the rule Nexus and the paper use for batch planning).
  // Returns at least 1.
  int LargestFeasibleBatch(Duration budget) const;

  JsonValue ToJson() const;
  static ModelProfile FromJson(const JsonValue& v);

 private:
  std::string name_;
  std::vector<Duration> durations_;
};

}  // namespace pard

#endif  // PARD_MODELS_MODEL_PROFILE_H_
