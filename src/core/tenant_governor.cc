#include "core/tenant_governor.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace pard {

namespace {

// Distinct stream tags so the assignment draw and the admission draw of the
// same request are independent.
constexpr std::uint64_t kAssignTag = 0x74702d61737369ULL;  // "tp-assi"
constexpr std::uint64_t kAdmitTag = 0x74702d61646d69ULL;   // "tp-admi"

inline double ToUnit(std::uint64_t u) {
  return static_cast<double>(u >> 11) * 0x1.0p-53;
}

}  // namespace

TenantGovernor::TenantGovernor(std::vector<TenantSpec> catalog, std::uint64_t seed)
    : catalog_(std::move(catalog)), seed_(seed) {
  ValidateTenantCatalog(catalog_);
  cumulative_share_.reserve(catalog_.size());
  double acc = 0.0;
  for (const TenantSpec& tenant : catalog_) {
    acc += tenant.share;
    cumulative_share_.push_back(acc);
  }
  cumulative_share_.back() = 1.0;  // Absorb float drift; the last bucket is a catch-all.
  by_weight_.resize(catalog_.size());
  for (std::size_t t = 0; t < catalog_.size(); ++t) {
    by_weight_[t] = static_cast<int>(t);
  }
  std::stable_sort(by_weight_.begin(), by_weight_.end(), [this](int a, int b) {
    return catalog_[static_cast<std::size_t>(a)].weight <
           catalog_[static_cast<std::size_t>(b)].weight;
  });
  state_ = std::make_unique<TenantState[]>(catalog_.size());
}

int TenantGovernor::TenantOf(std::uint64_t request_id) const {
  const double u = ToUnit(Mix64(request_id ^ seed_ ^ kAssignTag));
  for (std::size_t t = 0; t + 1 < cumulative_share_.size(); ++t) {
    if (u < cumulative_share_[t]) {
      return static_cast<int>(t);
    }
  }
  return static_cast<int>(cumulative_share_.size()) - 1;
}

bool TenantGovernor::AdmitAtIngress(std::uint64_t request_id, int tenant) {
  TenantState& state = state_[static_cast<std::size_t>(tenant)];
  const std::uint64_t draw = Mix64(request_id ^ seed_ ^ kAdmitTag);
  if (draw <= state.threshold.load(std::memory_order_relaxed)) {
    return true;
  }
  state.shed.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void TenantGovernor::Resync(const std::vector<ModuleState>& states) {
  double load = 0.0;
  for (const ModuleState& state : states) {
    load = std::max(load, state.load_factor);
  }
  const std::size_t n = catalog_.size();
  std::vector<double> probs(n, 1.0);
  if (std::isfinite(load) && load > 1.0) {
    // The fleet serves at most 1/load of the offered stream; shed the
    // excess from the lowest-weight tenants first, clamped at each
    // tenant's fairness floor. Any residual (all floors binding) is left
    // to the broker's per-request predicate.
    double remaining = 1.0 - 1.0 / load;
    for (int t : by_weight_) {
      if (remaining <= 0.0) {
        break;
      }
      const TenantSpec& tenant = catalog_[static_cast<std::size_t>(t)];
      const double sheddable = tenant.share * (1.0 - tenant.admit_floor);
      const double taken = std::min(remaining, sheddable);
      probs[static_cast<std::size_t>(t)] = 1.0 - taken / tenant.share;
      remaining -= taken;
    }
  }
  for (std::size_t t = 0; t < n; ++t) {
    std::uint64_t threshold;
    if (probs[t] >= 1.0) {
      threshold = ~std::uint64_t{0};
    } else if (probs[t] <= 0.0) {
      threshold = 0;
    } else {
      threshold = static_cast<std::uint64_t>(
          probs[t] * 0x1.0p64);  // Rounds down; exact 2^64 is caught above.
    }
    state_[t].threshold.store(threshold, std::memory_order_relaxed);
  }
}

double TenantGovernor::AdmitProbability(int tenant) const {
  const std::uint64_t threshold =
      state_[static_cast<std::size_t>(tenant)].threshold.load(std::memory_order_relaxed);
  if (threshold == ~std::uint64_t{0}) {
    return 1.0;
  }
  return static_cast<double>(threshold) * 0x1.0p-64;
}

std::uint64_t TenantGovernor::ShedCount(int tenant) const {
  return state_[static_cast<std::size_t>(tenant)].shed.load(std::memory_order_relaxed);
}

}  // namespace pard
