#include "resilience/chaos.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace pard {

namespace {

// Parse helpers that name the event index (1-based), the entry, the field
// position, and the offending token — so `--chaos-schedule` typos point at
// the exact character range to fix.
double ParseDoubleField(int event_index, const std::string& entry,
                        const std::vector<std::string>& fields, int field,
                        const char* what, double min_value) {
  const std::string& token = fields[static_cast<std::size_t>(field)];
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  PARD_CHECK_MSG(end != token.c_str() && *end == '\0' && std::isfinite(value) &&
                     value >= min_value,
                 "chaos event " << event_index << " (\"" << entry
                                << "\"): field " << (field + 1) << " (\""
                                << token << "\") is not a valid " << what);
  return value;
}

long ParseLongField(int event_index, const std::string& entry,
                    const std::vector<std::string>& fields, int field,
                    const char* what, long min_value, long max_value) {
  const std::string& token = fields[static_cast<std::size_t>(field)];
  char* end = nullptr;
  const long value = std::strtol(token.c_str(), &end, 10);
  PARD_CHECK_MSG(end != token.c_str() && *end == '\0' && value >= min_value &&
                     value <= max_value,
                 "chaos event " << event_index << " (\"" << entry
                                << "\"): field " << (field + 1) << " (\""
                                << token << "\") is not a valid " << what);
  return value;
}

}  // namespace

ChaosSchedule ParseChaosSchedule(std::string_view text) {
  ChaosSchedule schedule;
  int event_index = 0;
  for (const std::string& part : Split(text, ',')) {
    const std::string entry(Trim(part));
    if (entry.empty()) {
      continue;
    }
    ++event_index;
    const std::vector<std::string> fields = Split(entry, ':');
    ChaosEvent event;

    // stall-sync is control-plane scoped: <at_s>:stall-sync:<dur_s>.
    if (fields.size() == 3 && fields[1] == "stall-sync") {
      event.kind = ChaosKind::kStallSync;
      event.module_id = -1;
      event.at = SecToUs(ParseDoubleField(event_index, entry, fields, 0,
                                          "time (seconds)", 0.0));
      event.duration = SecToUs(ParseDoubleField(event_index, entry, fields, 2,
                                                "duration (seconds)", 0.0));
      PARD_CHECK_MSG(event.duration > 0,
                     "chaos event " << event_index << " (\"" << entry
                                    << "\"): field 3 (\"" << fields[2]
                                    << "\") must be a positive duration");
      schedule.events.push_back(event);
      continue;
    }

    PARD_CHECK_MSG(
        fields.size() >= 4,
        "chaos event "
            << event_index << " (\"" << entry << "\"): expected "
            << "<at_s>:<module>:hang:<count>[:<dur_s>], "
            << "<at_s>:<module>:slow:<factor>:<dur_s>, "
            << "<at_s>:stall-sync:<dur_s>, or "
            << "prob:<module>:hang:<rate_per_s>:<until_s>; got "
            << fields.size() << " ':'-separated fields");

    const bool probabilistic = fields[0] == "prob";
    if (!probabilistic) {
      event.at = SecToUs(ParseDoubleField(event_index, entry, fields, 0,
                                          "time (seconds)", 0.0));
    }
    event.module_id = static_cast<int>(ParseLongField(
        event_index, entry, fields, 1, "module id", 0, 1 << 20));

    const std::string& kind = fields[2];
    if (kind == "hang") {
      event.kind = ChaosKind::kHang;
      if (probabilistic) {
        PARD_CHECK_MSG(fields.size() == 5,
                       "chaos event " << event_index << " (\"" << entry
                                      << "\"): probabilistic hang is "
                                      << "prob:<module>:hang:<rate_per_s>:<until_s>, got "
                                      << fields.size() << " fields");
        event.rate_per_s = ParseDoubleField(event_index, entry, fields, 3,
                                            "rate (events/second)", 0.0);
        PARD_CHECK_MSG(event.rate_per_s > 0.0,
                       "chaos event " << event_index << " (\"" << entry
                                      << "\"): field 4 (\"" << fields[3]
                                      << "\") must be a positive rate");
        event.window_end = SecToUs(ParseDoubleField(
            event_index, entry, fields, 4, "window end (seconds)", 0.0));
      } else {
        PARD_CHECK_MSG(fields.size() <= 5,
                       "chaos event " << event_index << " (\"" << entry
                                      << "\"): hang takes at most 5 fields "
                                      << "(<at_s>:<module>:hang:<count>[:<dur_s>]), got "
                                      << fields.size());
        event.count = static_cast<int>(ParseLongField(
            event_index, entry, fields, 3, "worker count", 1, 4096));
        if (fields.size() == 5) {
          event.duration = SecToUs(ParseDoubleField(
              event_index, entry, fields, 4, "duration (seconds)", 0.0));
        }
      }
    } else if (kind == "slow") {
      PARD_CHECK_MSG(!probabilistic,
                     "chaos event " << event_index << " (\"" << entry
                                    << "\"): prob is only supported for hang");
      PARD_CHECK_MSG(fields.size() == 5,
                     "chaos event " << event_index << " (\"" << entry
                                    << "\"): slow is "
                                    << "<at_s>:<module>:slow:<factor>:<dur_s>, got "
                                    << fields.size() << " fields");
      event.kind = ChaosKind::kSlow;
      event.factor =
          ParseDoubleField(event_index, entry, fields, 3, "slow factor", 0.0);
      PARD_CHECK_MSG(event.factor > 0.0,
                     "chaos event " << event_index << " (\"" << entry
                                    << "\"): field 4 (\"" << fields[3]
                                    << "\") must be a positive factor");
      event.duration = SecToUs(ParseDoubleField(event_index, entry, fields, 4,
                                                "duration (seconds)", 0.0));
      PARD_CHECK_MSG(event.duration > 0,
                     "chaos event " << event_index << " (\"" << entry
                                    << "\"): field 5 (\"" << fields[4]
                                    << "\") must be a positive duration");
    } else {
      PARD_CHECK_MSG(false, "chaos event "
                                << event_index << " (\"" << entry
                                << "\"): field 3 (\"" << kind
                                << "\") is not hang|slow|stall-sync");
    }
    schedule.events.push_back(event);
  }
  PARD_CHECK_MSG(!schedule.events.empty(),
                 "chaos schedule \"" << text << "\" names no events");
  return schedule;
}

std::vector<ChaosEvent> ExpandChaosSchedule(const ChaosSchedule& schedule,
                                            std::uint64_t seed) {
  std::vector<ChaosEvent> expanded;
  expanded.reserve(schedule.events.size());
  for (const ChaosEvent& event : schedule.events) {
    if (event.kind != ChaosKind::kHang || event.rate_per_s <= 0.0) {
      expanded.push_back(event);
      continue;
    }
    // Poisson process over [at, window_end): exponential interarrivals from a
    // per-module fork of the run seed, so both substrates expand the same
    // (schedule, seed) to the same concrete hang times.
    Rng rng = Rng(seed).Fork("chaos:" + std::to_string(event.module_id));
    const double mean_gap_s = 1.0 / event.rate_per_s;
    double t_s = UsToSec(event.at);
    const double end_s = UsToSec(event.window_end);
    while (true) {
      t_s += rng.Exponential(mean_gap_s);
      if (t_s >= end_s) {
        break;
      }
      ChaosEvent concrete = event;
      concrete.at = SecToUs(t_s);
      concrete.rate_per_s = 0.0;
      concrete.window_end = 0;
      concrete.count = 1;
      expanded.push_back(concrete);
    }
  }
  std::stable_sort(expanded.begin(), expanded.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) { return a.at < b.at; });
  return expanded;
}

}  // namespace pard
