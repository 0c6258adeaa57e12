#include "rag/rag_workflow.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "common/check.h"
#include "sim/simulation.h"
#include "stats/sliding_window.h"

namespace pard {
namespace {

struct RagRequest {
  std::uint64_t id = 0;
  SimTime sent = 0;
  SimTime deadline = 0;
  int input_tokens = 0;
  int rewrite_out_tokens = 0;  // Ground truth; policies other than predict
                               // cannot read it.
  bool dropped = false;
  bool branch_retrieve_done = false;
  bool branch_search_done = false;
  SimTime ttft = -1;
};

using RagRequestPtr = std::shared_ptr<RagRequest>;

// The full simulation for one policy run.
class RagSim {
 public:
  RagSim(RagPolicy policy, const RagOptions& options)
      : policy_(policy),
        options_(options),
        rng_(Rng(options.seed).Fork("rag")),
        rewrite_window_(5 * kUsPerSec),
        search_window_(5 * kUsPerSec) {}

  RagResult Run() {
    GenerateArrivals();
    sim_.ScheduleStream(send_times_, [this] { EnterRewrite(requests_[next_arrival_++]); });
    sim_.Run();
    RagResult result;
    result.total = requests_.size();
    for (const RagRequestPtr& r : requests_) {
      const bool good = !r->dropped && r->ttft >= 0 && r->ttft <= r->deadline;
      result.good += good ? 1 : 0;
      result.dropped += good ? 0 : 1;
    }
    result.stages.push_back({"rewrite", EmpiricalDistribution(std::move(rewrite_samples_))});
    result.stages.push_back({"retrieve", EmpiricalDistribution(std::move(retrieve_samples_))});
    result.stages.push_back({"search", EmpiricalDistribution(std::move(search_samples_))});
    result.stages.push_back({"generate", EmpiricalDistribution(std::move(generate_samples_))});
    return result;
  }

 private:
  // ---- Workload -----------------------------------------------------------
  // Draws every query up front; Run streams their send times through the
  // kernel (Simulation::ScheduleStream) instead of scheduling one event each.
  void GenerateArrivals() {
    double t = 0.0;
    const double end = options_.duration_s;
    // Azure-style bursty arrivals: Poisson baseline with occasional 3x bursts.
    double burst_until = -1.0;
    while (true) {
      double rate = options_.arrival_rate;
      if (t > burst_until && rng_.Bernoulli(0.002)) {
        burst_until = t + rng_.Uniform(3.0, 10.0);
      }
      if (t <= burst_until) {
        rate *= 3.0;
      }
      t += rng_.Exponential(1.0 / rate);
      if (t >= end) {
        break;
      }
      auto req = std::make_shared<RagRequest>();
      req->id = requests_.size() + 1;
      req->sent = SecToUs(t);
      req->deadline = req->sent + options_.ttft_slo;
      req->input_tokens =
          static_cast<int>(rng_.UniformInt(options_.input_tokens_min, options_.input_tokens_max));
      req->rewrite_out_tokens = std::max<int>(
          4, static_cast<int>(rng_.LogNormal(options_.rewrite_out_mu, options_.rewrite_out_sigma)));
      send_times_.push_back(req->sent);
      requests_.push_back(std::move(req));
    }
  }

  // ---- Cost models --------------------------------------------------------
  Duration RewriteServiceTime(const RagRequest& r) const {
    return options_.prefill_per_token * r.input_tokens +
           options_.decode_per_token * r.rewrite_out_tokens;
  }
  Duration GenerateServiceTime() const {
    return options_.prefill_per_token * options_.context_tokens;
  }

  // ---- Policy -------------------------------------------------------------
  // Estimated latency still ahead of the request, given the stage it is
  // about to enter (0=rewrite, 1=retrieve/search, 2=generate).
  Duration EstimateRemaining(const RagRequest& r, int stage) {
    Duration remaining = 0;
    const SimTime now = sim_.Now();
    if (stage <= 0) {
      if (policy_ == RagPolicy::kPredict) {
        // Oracle output length -> exact rewrite service time.
        remaining += RewriteServiceTime(r);
      } else {
        remaining += static_cast<Duration>(
            rewrite_window_.Mean(now, static_cast<double>(options_.decode_per_token * 32)));
      }
    }
    if (stage <= 1) {
      // Parallel branches: the slower of retrieve (batching model) and
      // search (recent mean).
      const Duration retrieve_est = options_.retrieve_window / 2 + options_.retrieve_base +
                                    options_.retrieve_per_item * options_.retrieve_batch / 2;
      const Duration search_est = static_cast<Duration>(
          search_window_.Mean(now, 300.0 * kUsPerMs));
      remaining += std::max(retrieve_est, search_est);
    }
    remaining += GenerateServiceTime();
    return remaining;
  }

  // True = drop now.
  bool PolicyDrop(const RagRequest& r, int stage) {
    const SimTime now = sim_.Now();
    if (policy_ == RagPolicy::kReactive) {
      return now > r.deadline;  // Only after the SLO is already violated.
    }
    return now + EstimateRemaining(r, stage) > r.deadline;
  }

  void Drop(const RagRequestPtr& r) { r->dropped = true; }

  // ---- rewrite: continuous batching LLM -----------------------------------
  void EnterRewrite(RagRequestPtr r) {
    if (PolicyDrop(*r, 0)) {
      Drop(r);
      return;
    }
    rewrite_queue_.push_back(std::move(r));
    PumpRewrite();
  }

  void PumpRewrite() {
    while (rewrite_busy_ < options_.rewrite_slots && !rewrite_queue_.empty()) {
      RagRequestPtr r = std::move(rewrite_queue_.front());
      rewrite_queue_.pop_front();
      if (r->dropped) {
        continue;
      }
      // Re-check at service start: queueing may have burned the budget.
      if (PolicyDrop(*r, 0)) {
        Drop(r);
        continue;
      }
      ++rewrite_busy_;
      const SimTime start = sim_.Now();
      const Duration service = RewriteServiceTime(*r);
      sim_.ScheduleAfter(service, [this, r, start] {
        --rewrite_busy_;
        rewrite_samples_.push_back(static_cast<double>(sim_.Now() - start));
        rewrite_window_.Add(sim_.Now(), static_cast<double>(sim_.Now() - start));
        ForkBranches(r);
        PumpRewrite();
      });
    }
  }

  // ---- retrieve + search in parallel --------------------------------------
  void ForkBranches(const RagRequestPtr& r) {
    if (r->dropped) {
      return;
    }
    if (PolicyDrop(*r, 1)) {
      Drop(r);
      return;
    }
    EnterRetrieve(r);
    EnterSearch(r);
  }

  void EnterRetrieve(RagRequestPtr r) {
    retrieve_queue_.push_back(std::move(r));
    if (static_cast<int>(retrieve_queue_.size()) >= options_.retrieve_batch) {
      FlushRetrieve();
      return;
    }
    if (!retrieve_timer_armed_) {
      retrieve_timer_armed_ = true;
      sim_.ScheduleAfter(options_.retrieve_window, [this] {
        retrieve_timer_armed_ = false;
        FlushRetrieve();
      });
    }
  }

  void FlushRetrieve() {
    if (retrieve_queue_.empty()) {
      return;
    }
    std::vector<RagRequestPtr> batch;
    while (!retrieve_queue_.empty() &&
           static_cast<int>(batch.size()) < options_.retrieve_batch) {
      batch.push_back(std::move(retrieve_queue_.front()));
      retrieve_queue_.pop_front();
    }
    const Duration service =
        options_.retrieve_base + options_.retrieve_per_item * static_cast<Duration>(batch.size());
    const SimTime start = sim_.Now();
    sim_.ScheduleAfter(service, [this, batch = std::move(batch), start] {
      for (const RagRequestPtr& r : batch) {
        retrieve_samples_.push_back(static_cast<double>(sim_.Now() - start));
        if (r->dropped) {
          continue;
        }
        r->branch_retrieve_done = true;
        MaybeJoin(r);
      }
    });
  }

  void EnterSearch(RagRequestPtr r) {
    if (search_busy_ >= options_.search_threads) {
      // Thread pool exhausted: queue FIFO.
      search_queue_.push_back(std::move(r));
      return;
    }
    StartSearch(std::move(r));
  }

  void StartSearch(RagRequestPtr r) {
    ++search_busy_;
    Duration latency;
    if (rng_.Bernoulli(options_.search_tail_prob)) {
      latency = static_cast<Duration>(rng_.LogNormal(options_.search_tail_mu,
                                                     options_.search_tail_sigma));
    } else {
      latency = static_cast<Duration>(rng_.LogNormal(options_.search_mu, options_.search_sigma));
    }
    const SimTime start = sim_.Now();
    sim_.ScheduleAfter(latency, [this, r = std::move(r), start] {
      --search_busy_;
      search_samples_.push_back(static_cast<double>(sim_.Now() - start));
      search_window_.Add(sim_.Now(), static_cast<double>(sim_.Now() - start));
      if (!r->dropped) {
        r->branch_search_done = true;
        MaybeJoin(r);
      }
      if (!search_queue_.empty()) {
        RagRequestPtr next = std::move(search_queue_.front());
        search_queue_.pop_front();
        StartSearch(std::move(next));
      }
    });
  }

  void MaybeJoin(const RagRequestPtr& r) {
    if (r->branch_retrieve_done && r->branch_search_done) {
      EnterGenerate(r);
    }
  }

  // ---- generate: prefill (TTFT) -------------------------------------------
  void EnterGenerate(RagRequestPtr r) {
    if (PolicyDrop(*r, 2)) {
      Drop(r);
      return;
    }
    generate_queue_.push_back(std::move(r));
    PumpGenerate();
  }

  void PumpGenerate() {
    while (generate_busy_ < options_.generate_slots && !generate_queue_.empty()) {
      RagRequestPtr r = std::move(generate_queue_.front());
      generate_queue_.pop_front();
      if (r->dropped) {
        continue;
      }
      if (PolicyDrop(*r, 2)) {
        Drop(r);
        continue;
      }
      ++generate_busy_;
      const SimTime start = sim_.Now();
      sim_.ScheduleAfter(GenerateServiceTime(), [this, r, start] {
        --generate_busy_;
        generate_samples_.push_back(static_cast<double>(sim_.Now() - start));
        r->ttft = sim_.Now();
        PumpGenerate();
      });
    }
  }

  RagPolicy policy_;
  RagOptions options_;
  Simulation sim_;
  Rng rng_;
  std::vector<RagRequestPtr> requests_;
  // requests_[i]->sent, read in place by the kernel's arrival stream.
  std::vector<SimTime> send_times_;
  std::size_t next_arrival_ = 0;  // requests_ index of the next stream entry.

  std::deque<RagRequestPtr> rewrite_queue_;
  int rewrite_busy_ = 0;
  std::deque<RagRequestPtr> retrieve_queue_;
  bool retrieve_timer_armed_ = false;
  std::deque<RagRequestPtr> search_queue_;
  int search_busy_ = 0;
  std::deque<RagRequestPtr> generate_queue_;
  int generate_busy_ = 0;

  SlidingWindow rewrite_window_;
  SlidingWindow search_window_;

  std::vector<double> rewrite_samples_;
  std::vector<double> retrieve_samples_;
  std::vector<double> search_samples_;
  std::vector<double> generate_samples_;
};

}  // namespace

std::string RagPolicyName(RagPolicy policy) {
  switch (policy) {
    case RagPolicy::kReactive:
      return "reactive";
    case RagPolicy::kProactive:
      return "proactive";
    case RagPolicy::kPredict:
      return "predict";
  }
  return "unknown";
}

RagResult RunRagWorkflow(RagPolicy policy, const RagOptions& options) {
  PARD_CHECK(options.arrival_rate > 0.0);
  PARD_CHECK(options.duration_s > 0.0);
  return RagSim(policy, options).Run();
}

}  // namespace pard
