// Per-request lifecycle tracing with lock-free per-thread ring buffers,
// exported as Chrome trace-event JSON (load the file at https://ui.perfetto.dev
// or chrome://tracing).
//
// Concurrency contract
// --------------------
//   * Each emitting thread owns exactly one TraceShard: a bounded SPSC ring.
//     The owning thread is the only producer (relaxed stores + one release
//     store of `head_` per event); the exporting thread is the only consumer
//     and only runs after producers have quiesced (RunTrace returned /
//     Shutdown joined) or via the producer itself in the single-threaded
//     simulator. No locks, no CAS loops, no allocation on the emit path.
//   * Shard registration (`ThisThreadShard`) takes `mu_` once per thread;
//     after that the shard pointer is cached in a thread_local slot, so the
//     steady-state emit path never touches the mutex. The recorder is
//     unranked in the lock-rank hierarchy (common/lock_order.h): `mu_` is a
//     leaf held only around vector push_back, never while calling out.
//   * When a ring fills, the *newest* events are discarded and counted in
//     `dropped_events()`; the export embeds the total so a truncated trace
//     is self-describing rather than silently misleading.
//   * Sampling is deterministic: a request is traced iff
//     splitmix64(request_id ^ seed) < rate * 2^64. Same seed + same rate
//     => the same request set is traced, so a simulator run exports a
//     bit-identical trace on every replay (pinned by tests/obs_test.cc).
//   * With a null TraceRecorder* in RuntimeOptions every instrumentation
//     site is a single pointer test — goldens stay bit-identical.
#ifndef PARD_OBS_TRACE_RECORDER_H_
#define PARD_OBS_TRACE_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/time_types.h"
#include "obs/drop_reason.h"

namespace pard {

enum class TraceEventKind : std::uint8_t {
  kAdmit = 0,      // instant: request admitted at a module's front door
  kQueueSpan = 1,  // span: enqueue -> batch entry (time spent queued)
  kExecSpan = 2,   // span: exec_start -> exec_end for one request
  kBatchExec = 3,  // span: one batch execution; arg0 = batch size
  kFate = 5,       // instant: terminal fate; arg0 = RequestFate, arg1 = DropReason
  kEpochSync = 6,  // instant: control-plane snapshot published; arg0 = epoch
  kFleet = 7,      // instant: fleet event; arg0 = 0 kill / 1 add, arg1 = count
  kRetry = 8,      // instant: request re-enqueued after worker failure; arg0 = attempt
  kChaos = 9,      // instant: chaos event applied; arg0 = ChaosKind, arg1 = count|duration
  kWatchdog = 10,  // instant: watchdog force-failed hung workers; arg0 = count
  kControlRefresh = 11,  // span: control Sync incl. estimator refresh; dur =
                         // wall us, arg0 = entries refreshed, arg1 = skipped
};

// POD event record. `ts`/`dur` are virtual-time microseconds (Chrome trace
// ts unit is also microseconds, so export is a straight copy).
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kAdmit;
  std::int32_t module = -1;     // pid in the exported trace; -1 = control plane
  std::uint64_t request_id = 0;
  SimTime ts = 0;
  Duration dur = 0;
  std::int64_t arg0 = 0;
  std::int64_t arg1 = 0;
};

class TraceShard {
 public:
  TraceShard(int index, std::size_t capacity_pow2);

  // Producer side; owning thread only. Drop-newest on full.
  void Push(const TraceEvent& ev);

  // Consumer side; call only after the producer has quiesced.
  std::size_t Drain(std::vector<TraceEvent>* out);

  int index() const { return index_; }
  std::uint64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  const int index_;
  const std::size_t mask_;
  std::vector<TraceEvent> ring_;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // next write slot
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // next read slot
  std::atomic<std::uint64_t> dropped_{0};
};

class TraceRecorder {
 public:
  struct Options {
    double sample_rate = 1.0;        // fraction of requests traced, [0, 1]
    std::uint64_t seed = 1;          // sampling hash seed
    std::size_t ring_capacity = 1u << 14;  // events per shard, power of two
  };

  explicit TraceRecorder(const Options& options);

  // Deterministic per-request sampling decision. Non-request events (epoch,
  // fleet, batch) are always recorded.
  bool Sampled(std::uint64_t request_id) const;

  // Emit into the calling thread's shard (registered lazily on first use).
  void Emit(const TraceEvent& ev) { ThisThreadShard()->Push(ev); }

  // Convenience: emit only if the request passes the sampling filter.
  void EmitSampled(const TraceEvent& ev) {
    if (Sampled(ev.request_id)) Emit(ev);
  }

  // Returns the calling thread's shard, registering one on first use. The
  // slot is keyed by a process-unique recorder id (NOT the address — a new
  // recorder can reuse a destroyed one's allocation), so a thread that
  // outlives one recorder and touches another re-registers instead of
  // writing freed memory.
  TraceShard* ThisThreadShard();

  // Consumer-side export; producers must have quiesced. Events are stably
  // sorted by timestamp (emission order breaks ties), so a single-producer
  // simulator run exports deterministically.
  std::string ChromeTraceJson();
  void WriteChromeTrace(const std::string& path);

  std::uint64_t total_dropped_events() const;
  std::size_t shard_count() const;

 private:
  const Options options_;
  const std::uint64_t threshold_;  // sample iff hash < threshold_
  const std::uint64_t id_;         // process-unique; keys thread_local slots
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceShard>> shards_;
};

}  // namespace pard

#endif  // PARD_OBS_TRACE_RECORDER_H_
