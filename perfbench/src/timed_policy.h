// Forwarding decorator that times every call the runtimes make into a
// DropPolicy (core/) and into the PolicyViews it publishes.
//
// Installed only in traced repetitions. It forwards each call unchanged, so
// a simulator run with the decorator must reproduce the undecorated run bit
// for bit (main.cc checks this). The runtimes never dynamic_cast their
// policy, so wrapping is invisible to them.
#ifndef PERFBENCH_TIMED_POLICY_H_
#define PERFBENCH_TIMED_POLICY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/drop_policy.h"

namespace perfbench {

// Call counts and time spent inside the wrapped policy. Decision counters are
// bumped concurrently by serve broker and worker threads, hence atomics.
struct PolicyCallStats {
  std::atomic<std::uint64_t> decide_calls{0};
  std::atomic<std::uint64_t> decide_ns{0};
  std::atomic<std::uint64_t> admit_calls{0};
  std::atomic<std::uint64_t> admit_ns{0};
  std::atomic<std::uint64_t> pop_calls{0};
  std::atomic<std::uint64_t> pop_ns{0};

  // One entry per OnSync: wall time of OnSync plus the RefreshEstimates and
  // MakeView calls that follow it before the next sync (us).
  mutable std::mutex sync_mu;
  std::vector<double> sync_us;
};

class TimedPolicy : public pard::DropPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<pard::DropPolicy> inner);

  void Bind(const pard::PipelineSpec* spec, const pard::StateBoard* board) override;
  bool ShouldDrop(const pard::AdmissionContext& ctx) override;
  pard::PopSide ChoosePopSide(int module_id, pard::SimTime now) override;
  bool AdmitAtModule(const pard::Request& request, int module_id, pard::SimTime now) override;
  bool PurgeExpired() const override { return inner_->PurgeExpired(); }
  void OnSync(pard::SimTime now) override;
  pard::PolicyRefreshStats RefreshEstimates(pard::ThreadPool* pool) override;
  std::shared_ptr<const pard::PolicyView> MakeView() override;
  std::string Name() const override { return inner_->Name(); }

  const PolicyCallStats& stats() const { return *stats_; }

 private:
  void AddToLastSync(double us);

  std::unique_ptr<pard::DropPolicy> inner_;
  // Shared with every view this policy publishes: a view may outlive the
  // policy's last sync but never the run.
  std::shared_ptr<PolicyCallStats> stats_ = std::make_shared<PolicyCallStats>();
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_POLICY_H_
