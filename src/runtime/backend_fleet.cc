#include "runtime/backend_fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/check.h"
#include "common/string_util.h"

namespace pard {

const char* BackendStateName(BackendState s) {
  switch (s) {
    case BackendState::kColdStarting:
      return "cold-starting";
    case BackendState::kActive:
      return "active";
    case BackendState::kDraining:
      return "draining";
    case BackendState::kRetired:
      return "retired";
    case BackendState::kFailed:
      return "failed";
  }
  return "?";
}

BackendFleet::BackendFleet(const PipelineSpec& spec, Duration default_cold_start,
                           bool cost_aware) {
  cost_aware_ = cost_aware;
  catalog_ = spec.backends();
  if (catalog_.empty()) {
    catalog_.push_back(BackendProfile{});  // Homogeneous baseline fleet.
  }
  cold_starts_.reserve(catalog_.size());
  for (const BackendProfile& profile : catalog_) {
    profile.Validate();
    cold_starts_.push_back(profile.cold_start >= 0 ? profile.cold_start : default_cold_start);
  }
  const int n = spec.NumModules();
  exec_scales_.resize(static_cast<std::size_t>(n));
  rosters_.resize(static_cast<std::size_t>(n));
  for (const ModuleSpec& m : spec.modules()) {
    auto& scales = exec_scales_[static_cast<std::size_t>(m.id)];
    scales.reserve(catalog_.size());
    for (const BackendProfile& profile : catalog_) {
      scales.push_back(profile.ExecScaleFor(m.model));
    }
  }
}

BackendSlot BackendFleet::Provision(int module_id, SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  PARD_CHECK(module_id >= 0 && module_id < static_cast<int>(rosters_.size()));
  auto& roster = rosters_[static_cast<std::size_t>(module_id)];
  Entry entry;
  entry.slot.module_id = module_id;
  entry.slot.worker_id = static_cast<int>(roster.size());
  if (cost_aware_) {
    // $/goodput objective: provision the grade with the best capacity per
    // dollar at THIS module (speeds are per-(module, profile) — a card that
    // is disproportionately bad at one model loses here). Ties keep the
    // lowest catalog index, so a homogeneous-cost catalog picks the fastest
    // grade deterministically.
    const auto& scales = exec_scales_[static_cast<std::size_t>(module_id)];
    int best = 0;
    double best_value = -1.0;
    for (int p = 0; p < static_cast<int>(catalog_.size()); ++p) {
      const double speed = 1.0 / scales[static_cast<std::size_t>(p)];
      const double value = speed / catalog_[static_cast<std::size_t>(p)].cost_per_s;
      if (value > best_value) {
        best_value = value;
        best = p;
      }
    }
    entry.slot.profile_index = best;
  } else {
    entry.slot.profile_index = entry.slot.worker_id % static_cast<int>(catalog_.size());
  }
  const double scale = exec_scales_[static_cast<std::size_t>(module_id)]
                                   [static_cast<std::size_t>(entry.slot.profile_index)];
  entry.slot.exec_scale = scale;
  entry.slot.speed = 1.0 / scale;
  entry.slot.cold_start = cold_starts_[static_cast<std::size_t>(entry.slot.profile_index)];
  entry.state = BackendState::kColdStarting;
  entry.provisioned_at = now;
  transitions_.push_back(
      FleetTransition{now, module_id, entry.slot.worker_id, BackendState::kColdStarting});
  roster.push_back(entry);
  return roster.back().slot;
}

BackendFleet::Entry& BackendFleet::Find(int module_id, int worker_id) {
  PARD_CHECK(module_id >= 0 && module_id < static_cast<int>(rosters_.size()));
  auto& roster = rosters_[static_cast<std::size_t>(module_id)];
  PARD_CHECK_MSG(worker_id >= 0 && worker_id < static_cast<int>(roster.size()),
                 "module " << module_id << " has no worker slot " << worker_id);
  return roster[static_cast<std::size_t>(worker_id)];
}

const BackendFleet::Entry& BackendFleet::Find(int module_id, int worker_id) const {
  return const_cast<BackendFleet*>(this)->Find(module_id, worker_id);
}

void BackendFleet::SetState(int module_id, int worker_id, BackendState to, SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = Find(module_id, worker_id);
  if (entry.state == to) {
    return;
  }
  // Terminal states are sticky: a failed worker cannot drain or re-activate.
  PARD_CHECK_MSG(entry.state != BackendState::kFailed && entry.state != BackendState::kRetired,
                 "worker " << worker_id << " of module " << module_id << " is already "
                           << BackendStateName(entry.state) << "; cannot become "
                           << BackendStateName(to));
  entry.state = to;
  if (to == BackendState::kRetired || to == BackendState::kFailed) {
    entry.ended_at = now;  // Terminal: the slot stops accruing cost.
  }
  transitions_.push_back(FleetTransition{now, module_id, worker_id, to});
}

BackendState BackendFleet::State(int module_id, int worker_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Find(module_id, worker_id).state;
}

BackendSlot BackendFleet::Slot(int module_id, int worker_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Find(module_id, worker_id).slot;
}

int BackendFleet::ActiveCount(int module_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  PARD_CHECK(module_id >= 0 && module_id < static_cast<int>(rosters_.size()));
  int n = 0;
  for (const Entry& e : rosters_[static_cast<std::size_t>(module_id)]) {
    n += e.state == BackendState::kActive ? 1 : 0;
  }
  return n;
}

int BackendFleet::ProvisionedCount(int module_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  PARD_CHECK(module_id >= 0 && module_id < static_cast<int>(rosters_.size()));
  int n = 0;
  for (const Entry& e : rosters_[static_cast<std::size_t>(module_id)]) {
    n += (e.state == BackendState::kActive || e.state == BackendState::kColdStarting) ? 1 : 0;
  }
  return n;
}

int BackendFleet::TotalProvisioned() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const auto& roster : rosters_) {
    for (const Entry& e : roster) {
      n += (e.state == BackendState::kActive || e.state == BackendState::kColdStarting) ? 1 : 0;
    }
  }
  return n;
}

double BackendFleet::ActiveUnits(int module_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  PARD_CHECK(module_id >= 0 && module_id < static_cast<int>(rosters_.size()));
  double units = 0.0;
  for (const Entry& e : rosters_[static_cast<std::size_t>(module_id)]) {
    if (e.state == BackendState::kActive) {
      units += e.slot.speed;
    }
  }
  return units;
}

double BackendFleet::ProvisionedUnits(int module_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  PARD_CHECK(module_id >= 0 && module_id < static_cast<int>(rosters_.size()));
  double units = 0.0;
  for (const Entry& e : rosters_[static_cast<std::size_t>(module_id)]) {
    if (e.state == BackendState::kActive || e.state == BackendState::kColdStarting) {
      units += e.slot.speed;
    }
  }
  return units;
}

double BackendFleet::MeanActiveSpeed(int module_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  PARD_CHECK(module_id >= 0 && module_id < static_cast<int>(rosters_.size()));
  double units = 0.0;
  int count = 0;
  for (const Entry& e : rosters_[static_cast<std::size_t>(module_id)]) {
    if (e.state == BackendState::kActive) {
      units += e.slot.speed;
      ++count;
    }
  }
  return count > 0 ? units / static_cast<double>(count) : 1.0;
}

std::vector<int> BackendFleet::WorkersInState(int module_id, BackendState state) const {
  std::lock_guard<std::mutex> lock(mu_);
  PARD_CHECK(module_id >= 0 && module_id < static_cast<int>(rosters_.size()));
  std::vector<int> ids;
  for (const Entry& e : rosters_[static_cast<std::size_t>(module_id)]) {
    if (e.state == state) {
      ids.push_back(e.slot.worker_id);
    }
  }
  return ids;
}

double BackendFleet::PublishCapacity(int module_id, double per_worker_throughput,
                                     ModuleState& state) const {
  std::lock_guard<std::mutex> lock(mu_);
  PARD_CHECK(module_id >= 0 && module_id < static_cast<int>(rosters_.size()));
  int active = 0;
  double units = 0.0;
  for (const Entry& e : rosters_[static_cast<std::size_t>(module_id)]) {
    if (e.state == BackendState::kActive) {
      ++active;
      units += e.slot.speed;
    }
  }
  state.num_workers = std::max(1, active);
  // The no-active floor mirrors the historical max(1, active) worker floor.
  state.effective_units = active > 0 ? units : static_cast<double>(state.num_workers);
  state.mean_speed = state.effective_units / static_cast<double>(state.num_workers);
  return per_worker_throughput * state.effective_units;
}

double BackendFleet::AccumulatedCost(SimTime now) const {
  std::lock_guard<std::mutex> lock(mu_);
  double cost = 0.0;
  for (const auto& roster : rosters_) {
    for (const Entry& e : roster) {
      const SimTime end = e.ended_at >= 0 ? e.ended_at : now;
      if (end > e.provisioned_at) {
        cost += catalog_[static_cast<std::size_t>(e.slot.profile_index)].cost_per_s *
                UsToSec(end - e.provisioned_at);
      }
    }
  }
  return cost;
}

std::vector<FleetTransition> BackendFleet::transitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transitions_;
}

std::vector<FleetEvent> ParseFaultSchedule(const std::string& text) {
  std::vector<FleetEvent> events;
  std::size_t index = 0;
  for (const std::string& part : Split(text, ',')) {
    const std::string entry(Trim(part));
    if (entry.empty()) {
      continue;
    }
    ++index;
    const std::vector<std::string> fields = Split(entry, ':');
    PARD_CHECK_MSG(fields.size() == 4,
                   "fault event " << index << " (\"" << entry << "\") has " << fields.size()
                                  << " fields, expected <at_s>:<module>:<kill|add>:<count>");
    FleetEvent event;
    char* end = nullptr;
    const double at_s = std::strtod(fields[0].c_str(), &end);
    PARD_CHECK_MSG(end != fields[0].c_str() && *end == '\0' && std::isfinite(at_s) && at_s >= 0.0,
                   "fault event " << index << " (\"" << entry << "\"): field 1 (\"" << fields[0]
                                  << "\") is not a valid non-negative time in seconds");
    event.at = SecToUs(at_s);
    const long module_id = std::strtol(fields[1].c_str(), &end, 10);
    PARD_CHECK_MSG(end != fields[1].c_str() && *end == '\0' && module_id >= 0,
                   "fault event " << index << " (\"" << entry << "\"): field 2 (\"" << fields[1]
                                  << "\") is not a valid module id");
    event.module_id = static_cast<int>(module_id);
    if (fields[2] == "kill") {
      event.kind = FleetEvent::Kind::kKill;
    } else if (fields[2] == "add") {
      event.kind = FleetEvent::Kind::kAdd;
    } else {
      PARD_CHECK_MSG(false, "fault event " << index << " (\"" << entry << "\"): field 3 (\""
                                           << fields[2] << "\") is not kill|add");
    }
    const long count = std::strtol(fields[3].c_str(), &end, 10);
    PARD_CHECK_MSG(end != fields[3].c_str() && *end == '\0' && count >= 1 && count <= 4096,
                   "fault event " << index << " (\"" << entry << "\"): field 4 (\"" << fields[3]
                                  << "\") is not a valid count in [1, 4096]");
    event.count = static_cast<int>(count);
    events.push_back(event);
  }
  PARD_CHECK_MSG(!events.empty(), "fault schedule \"" << text << "\" names no events");
  std::stable_sort(events.begin(), events.end(),
                   [](const FleetEvent& a, const FleetEvent& b) { return a.at < b.at; });
  return events;
}

}  // namespace pard
