#include "timed_policy.h"

#include <chrono>
#include <utility>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t NsSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

void Tally(std::atomic<std::uint64_t>& calls, std::atomic<std::uint64_t>& ns,
           Clock::time_point start) {
  ns.fetch_add(NsSince(start), std::memory_order_relaxed);
  calls.fetch_add(1, std::memory_order_relaxed);
}

class TimedView : public pard::PolicyView {
 public:
  TimedView(std::shared_ptr<const pard::PolicyView> inner, std::shared_ptr<PolicyCallStats> stats)
      : inner_(std::move(inner)), stats_(std::move(stats)) {}

  bool ShouldDrop(const pard::AdmissionContext& ctx) const override {
    const auto start = Clock::now();
    const bool drop = inner_->ShouldDrop(ctx);
    Tally(stats_->decide_calls, stats_->decide_ns, start);
    return drop;
  }

  pard::PopSide ChoosePopSide(int module_id, pard::SimTime now) const override {
    const auto start = Clock::now();
    const pard::PopSide side = inner_->ChoosePopSide(module_id, now);
    Tally(stats_->pop_calls, stats_->pop_ns, start);
    return side;
  }

  bool AdmitAtModule(const pard::Request& request, int module_id, pard::SimTime now,
                     pard::Rng* rng) const override {
    const auto start = Clock::now();
    const bool admit = inner_->AdmitAtModule(request, module_id, now, rng);
    Tally(stats_->admit_calls, stats_->admit_ns, start);
    return admit;
  }

  bool NeedsAdmissionRng() const override { return inner_->NeedsAdmissionRng(); }

 private:
  std::shared_ptr<const pard::PolicyView> inner_;
  std::shared_ptr<PolicyCallStats> stats_;
};

}  // namespace

TimedPolicy::TimedPolicy(std::unique_ptr<pard::DropPolicy> inner) : inner_(std::move(inner)) {}

void TimedPolicy::Bind(const pard::PipelineSpec* spec, const pard::StateBoard* board) {
  DropPolicy::Bind(spec, board);
  inner_->Bind(spec, board);
}

bool TimedPolicy::ShouldDrop(const pard::AdmissionContext& ctx) {
  const auto start = Clock::now();
  const bool drop = inner_->ShouldDrop(ctx);
  Tally(stats_->decide_calls, stats_->decide_ns, start);
  return drop;
}

pard::PopSide TimedPolicy::ChoosePopSide(int module_id, pard::SimTime now) {
  const auto start = Clock::now();
  const pard::PopSide side = inner_->ChoosePopSide(module_id, now);
  Tally(stats_->pop_calls, stats_->pop_ns, start);
  return side;
}

bool TimedPolicy::AdmitAtModule(const pard::Request& request, int module_id,
                                pard::SimTime now) {
  const auto start = Clock::now();
  const bool admit = inner_->AdmitAtModule(request, module_id, now);
  Tally(stats_->admit_calls, stats_->admit_ns, start);
  return admit;
}

void TimedPolicy::OnSync(pard::SimTime now) {
  const auto start = Clock::now();
  inner_->OnSync(now);
  const double us = static_cast<double>(NsSince(start)) / 1e3;
  std::lock_guard<std::mutex> lock(stats_->sync_mu);
  stats_->sync_us.push_back(us);
}

pard::PolicyRefreshStats TimedPolicy::RefreshEstimates(pard::ThreadPool* pool) {
  const auto start = Clock::now();
  const pard::PolicyRefreshStats refresh = inner_->RefreshEstimates(pool);
  AddToLastSync(static_cast<double>(NsSince(start)) / 1e3);
  return refresh;
}

std::shared_ptr<const pard::PolicyView> TimedPolicy::MakeView() {
  const auto start = Clock::now();
  std::shared_ptr<const pard::PolicyView> view = inner_->MakeView();
  AddToLastSync(static_cast<double>(NsSince(start)) / 1e3);
  if (view == nullptr) {
    return nullptr;  // Keep the policy's opt-out of snapshotting.
  }
  return std::make_shared<TimedView>(std::move(view), stats_);
}

void TimedPolicy::AddToLastSync(double us) {
  std::lock_guard<std::mutex> lock(stats_->sync_mu);
  // The control plane builds its first view before any sync; that build is
  // set-up, not sync work.
  if (!stats_->sync_us.empty()) {
    stats_->sync_us.back() += us;
  }
}

}  // namespace perfbench
