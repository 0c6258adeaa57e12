// Live metrics: striped counters, gauges and mergeable atomic histograms
// behind a name-keyed registry, periodically sampled into a time series and
// exported as JSON (`pardsim --metrics-out`).
//
// Concurrency contract
// --------------------
//   * Update paths (Counter::Add, Gauge::Set/Add, AtomicHistogram::Observe)
//     are lock-free: relaxed atomics only. Counters stripe across
//     cache-line-padded cells indexed by a thread-local stripe id, so
//     concurrent workers never contend on one line. Relaxed ordering is
//     sufficient — metrics are monotone tallies read after a quiesce or by
//     an asynchronous sampler that tolerates a small skew.
//   * Registration (GetCounter/GetGauge/GetHistogram) takes the registry
//     mutex and returns a pointer that stays valid for the registry's
//     lifetime; hot paths resolve instruments once at construction and
//     never touch the mutex again. The mutex is a leaf (unranked in
//     common/lock_order.h): it is never held while calling other code.
//   * Sample() takes the registry mutex, reads every instrument (a racy but
//     coherent snapshot), and appends a row to the in-memory series. The
//     control loop (runtime/control_loop.h) calls it every
//     `--metrics-interval-s` of virtual time in both substrates: on serve's
//     control thread, and as a kernel event in the simulator, where the
//     series is a deterministic function of the seed.
//   * A null MetricsRegistry* in RuntimeOptions disables everything; the
//     instrumentation sites reduce to one pointer test.
#ifndef PARD_OBS_METRICS_H_
#define PARD_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/time_types.h"
#include "jsonio/json.h"

namespace pard {

// Monotone counter striped across padded cells. Add() is wait-free; Value()
// sums the stripes (approximate while writers are live, exact after quiesce).
class Counter {
 public:
  static constexpr std::size_t kStripes = 8;

  void Add(std::int64_t delta = 1) {
    cells_[StripeIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t Value() const {
    std::int64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::int64_t> v{0};
  };
  static std::size_t StripeIndex();
  Cell cells_[kStripes];
};

// Last-write-wins gauge (queue depth, snapshot epoch, ...). Add() supports
// up/down accounting from multiple threads.
class Gauge {
 public:
  void Set(std::int64_t value) { v_.store(value, std::memory_order_relaxed); }
  void Add(std::int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Fixed-layout linear histogram with underflow/overflow buckets. Observe()
// is lock-free; Merge() requires an identical [lo, hi) x bucket layout and
// throws CheckError on mismatch (pinned by tests/obs_test.cc).
class AtomicHistogram {
 public:
  AtomicHistogram(double lo, double hi, std::size_t buckets);

  void Observe(double value);
  void Merge(const AtomicHistogram& other);

  std::int64_t Count() const;        // includes under/overflow
  std::int64_t UnderflowCount() const {
    return under_.load(std::memory_order_relaxed);
  }
  std::int64_t OverflowCount() const {
    return over_.load(std::memory_order_relaxed);
  }
  std::int64_t BucketCount(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t bucket_count() const { return buckets_.size(); }

  JsonValue ToJson() const;

 private:
  const double lo_;
  const double hi_;
  const double inv_width_;
  std::vector<std::atomic<std::int64_t>> buckets_;
  std::atomic<std::int64_t> under_{0};
  std::atomic<std::int64_t> over_{0};
};

class MetricsRegistry {
 public:
  // Instruments are created on first use and live as long as the registry.
  // Requesting an existing name returns the same pointer; requesting an
  // existing histogram with a different layout throws CheckError.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  AtomicHistogram* GetHistogram(const std::string& name, double lo, double hi,
                                std::size_t buckets);

  // Snapshot every instrument into a timestamped series row.
  void Sample(SimTime now);

  std::size_t sample_count() const;

  // {"totals": {...}, "gauges": {...}, "histograms": {...},
  //  "samples": [{"t_s": ..., "counters": {...}, "gauges": {...}}, ...]}
  JsonValue ToJson() const;
  void WriteJson(const std::string& path) const;

 private:
  struct SampleRow {
    SimTime t = 0;
    std::vector<std::pair<std::string, std::int64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<AtomicHistogram>> histograms_;
  std::vector<SampleRow> samples_;
};

}  // namespace pard

#endif  // PARD_OBS_METRICS_H_
