#include "runtime/request_lifecycle.h"

#include <cmath>
#include <sstream>
#include <string>

#include "common/check.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "runtime/batch_planner.h"

namespace pard {

namespace {

// CheckRunInvariants' rules, numbered from 1 as in request_lifecycle.h.
constexpr const char* kRunRules[] = {"fate and attribution agree", "hop stamps are monotone",
                                     "finish and completion agree", "log in injection order",
                                     "tenant tag in range"};
constexpr int kNumRunRules = static_cast<int>(sizeof(kRunRules) / sizeof(kRunRules[0]));

// Rule 2 for one hop of a request sent at `sent`: a stamp set after an unset
// one, or before the previous one, breaks it.
bool StampsMonotone(const HopRecord& hop, SimTime sent) {
  SimTime last = sent;
  for (const SimTime stamp : {hop.arrive, hop.batch_entry, hop.exec_start, hop.exec_end}) {
    if (stamp >= 0 && (last < 0 || stamp < last)) {
      return false;
    }
    last = stamp;
  }
  return hop.executed == (hop.exec_end >= 0);
}

}  // namespace

RequestLifecycle::RequestLifecycle(const PipelineSpec& spec, const RuntimeOptions& options)
    : spec_(spec),
      options_(options),
      batch_sizes_(PlanBatchSizes(spec_)),
      topo_order_(spec_.TopoOrder()),
      rng_(options_.seed) {
  for (const ModuleSpec& m : spec_.modules()) {
    planned_batch_duration_.push_back(ProfileRegistry::Get(m.model).BatchDuration(
        batch_sizes_[static_cast<std::size_t>(m.id)]));
  }
  PARD_CHECK(options_.resilience.max_retries >= 0);
  if (!options_.tenants.empty()) {
    governor_ = std::make_unique<TenantGovernor>(options_.tenants, options_.seed);
  }
  if (options_.metrics != nullptr) {
    completed_counter_ = options_.metrics->GetCounter("fate.completed");
    for (int r = 1; r < kNumDropReasons; ++r) {
      drop_reason_counters_[r] = options_.metrics->GetCounter(
          std::string("fate.dropped.") + DropReasonName(static_cast<DropReason>(r)));
    }
    retry_counter_ = options_.metrics->GetCounter("resilience.retries");
    if (governor_ != nullptr) {
      for (const TenantSpec& tenant : options_.tenants) {
        const std::string prefix = "tenant." + tenant.name;
        tenant_completed_.push_back(options_.metrics->GetCounter(prefix + ".completed"));
        tenant_dropped_.push_back(options_.metrics->GetCounter(prefix + ".dropped"));
      }
    }
  }
}

bool RequestLifecycle::Inject(const RequestPtr& req, SimTime now) {
  Request& r = *req;
  r.id = next_request_id_++;
  r.sent = now;
  r.slo = spec_.slo();
  if (governor_ != nullptr) {
    // Tenant identity is a pure hash of the request id — no RNG draw, so
    // arrivals and every downstream stream match the untenanted run.
    r.tenant = governor_->TenantOf(r.id);
    const TenantSpec& tenant = governor_->Tenant(r.tenant);
    r.slo = static_cast<Duration>(std::llround(static_cast<double>(r.slo) * tenant.slo_scale));
  }
  if (options_.dynamic_paths) {
    AssignDynamicPath(r);
  }
  requests_.push_back(req);
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  return governor_ == nullptr || governor_->AdmitAtIngress(r.id, r.tenant);
}

void RequestLifecycle::AssignDynamicPath(Request& req) {
  req.dynamic_path = true;
  // Draw the branch taken at every fork, then propagate reachability so each
  // merge knows how many deliveries to expect for this request. Topological
  // order settles a module's expected arrivals before it is visited, so a
  // module is on the path exactly when it is the source or expects one.
  const int source = spec_.SourceModule();
  for (int id : topo_order_) {
    if (id != source && req.hops[static_cast<std::size_t>(id)].expected_arrivals == 0) {
      continue;
    }
    const ModuleSpec& m = spec_.Module(id);
    if (m.subs.size() > 1) {
      const int pick = static_cast<int>(
          rng_.UniformInt(0, static_cast<std::int64_t>(m.subs.size()) - 1));
      const int chosen = m.subs[static_cast<std::size_t>(pick)];
      req.hops[static_cast<std::size_t>(id)].branch_choice = static_cast<std::int8_t>(pick);
      ++req.hops[static_cast<std::size_t>(chosen)].expected_arrivals;
    } else {
      for (int s : m.subs) {
        ++req.hops[static_cast<std::size_t>(s)].expected_arrivals;
      }
    }
  }
}

bool RequestLifecycle::MergeReady(Request& req, int module_id) const {
  const ModuleSpec& m = spec_.Module(module_id);
  if (m.pres.size() <= 1) {
    return true;
  }
  HopRecord& hop = req.hops[static_cast<std::size_t>(module_id)];
  const int arrived = ++hop.merge_arrivals;
  if (req.Terminal()) {
    return false;  // A sibling branch was dropped; nothing to merge.
  }
  const int expected = req.dynamic_path ? hop.expected_arrivals : static_cast<int>(m.pres.size());
  return arrived >= expected;
}

bool RequestLifecycle::Drop(Request& req, int module_id, SimTime now, DropReason reason) {
  if (!req.ClaimFate(RequestFate::kDropped)) {
    return false;
  }
  req.drop_module = module_id;
  req.finish = now;
  req.drop_reason = reason;
  RecordFate(req);
  return true;
}

bool RequestLifecycle::Complete(Request& req, SimTime now) {
  const bool in_time = now <= req.Deadline();
  if (!req.ClaimFate(in_time ? RequestFate::kCompleted : RequestFate::kLate)) {
    return false;
  }
  req.finish = now;
  if (!in_time) {
    req.drop_reason = DropReason::kSloLate;
  }
  RecordFate(req);
  return true;
}

void RequestLifecycle::Count(const Request& req) {
  in_flight_.fetch_sub(1, std::memory_order_release);
  const bool good = req.Good();
  if (Counter* fate = good ? completed_counter_
                           : drop_reason_counters_[static_cast<int>(req.drop_reason)];
      fate != nullptr) {
    fate->Add();
  }
  if (req.tenant >= 0 && !tenant_completed_.empty()) {
    (good ? tenant_completed_ : tenant_dropped_)[static_cast<std::size_t>(req.tenant)]->Add();
  }
}

void RequestLifecycle::RecordFate(const Request& req) {
  Count(req);
  if (options_.trace != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kFate;
    ev.module = req.drop_module;  // -1 for completions, late or not.
    ev.request_id = req.id;
    ev.ts = req.finish;
    ev.arg0 = static_cast<std::int64_t>(req.Fate());
    ev.arg1 = static_cast<std::int64_t>(req.drop_reason);
    options_.trace->EmitSampled(ev);
  }
}

void RequestLifecycle::EndRun(SimTime now) {
  for (const RequestPtr& req : requests_) {
    if (!req->ClaimFate(RequestFate::kLate)) {
      continue;
    }
    req->finish = now;
    req->drop_reason = DropReason::kDrainAbandoned;
    Count(*req);
  }
  CheckRunInvariants(requests_, spec_, options_.tenants.size());
}

DropReason RequestLifecycle::RetryVerdict(const Request& req, int module_id, SimTime now) const {
  const int max_retries = options_.resilience.max_retries;
  if (max_retries <= 0) {
    return DropReason::kWorkerFailure;
  }
  if (req.retry_count >= max_retries) {
    return DropReason::kRetryExhausted;
  }
  // Deadline-aware: re-enqueue only when the remaining budget could still
  // cover this stage's planned batch — a request that cannot finish even if
  // picked up immediately is dead capacity.
  return req.RemainingBudget(now) > PlannedBatchDuration(module_id) ? DropReason::kNone
                                                                    : DropReason::kWorkerFailure;
}

void RequestLifecycle::NoteRetry(Request& req, int module_id, SimTime now) {
  ++req.retry_count;
  retries_.fetch_add(1, std::memory_order_relaxed);
  if (retry_counter_ != nullptr) {
    retry_counter_->Add();
  }
  if (options_.trace != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kRetry;
    ev.module = module_id;
    ev.request_id = req.id;
    ev.ts = now;
    ev.arg0 = req.retry_count;
    options_.trace->EmitSampled(ev);
  }
}

void RequestLifecycle::ResyncGovernor(const std::vector<ModuleState>& states) {
  if (governor_ != nullptr) {
    governor_->Resync(states);
  }
}

void CheckRunInvariants(const std::vector<RequestPtr>& requests, const PipelineSpec& spec,
                        std::size_t num_tenants) {
  std::size_t broken[kNumRunRules] = {};
  const Request* first[kNumRunRules] = {};
  int first_module[kNumRunRules] = {};
  bool clean = true;
  const auto breaks = [&](int rule, const Request& req, int module) {
    clean = false;
    if (broken[rule - 1]++ == 0) {
      first[rule - 1] = &req;
      first_module[rule - 1] = module;
    }
  };
  const int modules = spec.NumModules();
  const int source = spec.SourceModule();
  const Request* previous = nullptr;
  for (const RequestPtr& ptr : requests) {
    const Request& req = *ptr;
    if (!req.Terminal() || (req.drop_reason == DropReason::kNone) == req.CountsDropped() ||
        (req.fate == RequestFate::kDropped ? req.drop_module < 0 || req.drop_module >= modules
                                           : req.drop_module != -1)) {
      breaks(1, req, req.drop_module);
    }
    // A completion left the sink: kCompleted, or kLate for kSloLate.
    const bool completed = req.Good() || req.drop_reason == DropReason::kSloLate;
    int unordered = -1;
    int unexecuted = -1;
    for (int k = 0; k < static_cast<int>(req.hops.size()); ++k) {
      const HopRecord& hop = req.hops[static_cast<std::size_t>(k)];
      if (unordered < 0 && !StampsMonotone(hop, req.sent)) {
        unordered = k;
      }
      const bool on_path = !req.dynamic_path || k == source || hop.expected_arrivals > 0;
      if (unexecuted < 0 && completed && on_path && !hop.executed) {
        unexecuted = k;
      }
    }
    if (unordered >= 0) {
      breaks(2, req, unordered);
    }
    if (req.finish < req.sent || unexecuted >= 0 ||
        (completed && (req.finish <= req.Deadline()) != req.Good())) {
      breaks(3, req, unexecuted);
    }
    if (previous != nullptr && (req.id <= previous->id || req.sent < previous->sent)) {
      breaks(4, req, -1);
    }
    previous = &req;
    if (num_tenants == 0 ? req.tenant != -1
                         : req.tenant < 0 || static_cast<std::size_t>(req.tenant) >= num_tenants) {
      breaks(5, req, -1);
    }
  }
  if (clean) {
    return;
  }
  std::ostringstream message;
  message << "run invariants broken";
  const char* separator = ": ";
  for (int r = 0; r < kNumRunRules; ++r) {
    if (broken[r] > 0) {
      message << separator << "rule " << r + 1 << " (" << kRunRules[r] << "): " << broken[r]
              << " of " << requests.size() << " requests, first request " << first[r]->id;
      if (first_module[r] >= 0) {
        message << " at module " << first_module[r];
      }
      separator = "; ";
    }
  }
  throw CheckError(message.str());
}

}  // namespace pard
