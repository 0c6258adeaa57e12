#include "serve/load_generator.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace pard {

LoadGenerator::LoadGenerator(const ServeClock* clock, std::vector<SimTime> arrivals,
                             std::function<void(SimTime)> inject)
    : clock_(clock), arrivals_(std::move(arrivals)), inject_(std::move(inject)) {
  PARD_CHECK(clock_ != nullptr);
  PARD_CHECK(inject_ != nullptr);
  PARD_CHECK_MSG(std::is_sorted(arrivals_.begin(), arrivals_.end()),
                 "arrival timestamps must be sorted");
}

void LoadGenerator::Start() {
  thread_.Spawn([this] {
    for (SimTime t : arrivals_) {
      clock_->SleepUntil(t);
      inject_(t);
    }
  });
}

void LoadGenerator::Join() { thread_.Join(); }

SimTime LoadGenerator::LastArrival() const {
  return arrivals_.empty() ? 0 : arrivals_.back();
}

}  // namespace pard
