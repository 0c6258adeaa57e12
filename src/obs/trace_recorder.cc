#include "obs/trace_recorder.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/check.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace pard {
namespace {

const char* EventName(const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEventKind::kAdmit:
      return "admit";
    case TraceEventKind::kQueueSpan:
      return "queue";
    case TraceEventKind::kExecSpan:
      return "exec";
    case TraceEventKind::kBatchExec:
      return "batch";
    case TraceEventKind::kFate:
      // Keep in sync with runtime/request.h RequestFate ordering.
      switch (ev.arg0) {
        case 1:
          return "fate:completed";
        case 2:
          return "fate:late";
        case 3:
          return "fate:dropped";
        default:
          return "fate:in_flight";
      }
    case TraceEventKind::kEpochSync:
      return "sync_epoch";
    case TraceEventKind::kFleet:
      return ev.arg0 == 0 ? "fleet:kill" : "fleet:add";
    case TraceEventKind::kRetry:
      return "retry";
    case TraceEventKind::kChaos:
      // Keep in sync with resilience/chaos.h ChaosKind ordering.
      switch (ev.arg0) {
        case 0:
          return "chaos:hang";
        case 1:
          return "chaos:slow";
        case 2:
          return "chaos:stall_sync";
        default:
          return "chaos";
      }
    case TraceEventKind::kWatchdog:
      return "watchdog:kill";
    case TraceEventKind::kControlRefresh:
      return "control_refresh";
  }
  return "event";
}

bool IsSpan(TraceEventKind kind) {
  return kind == TraceEventKind::kQueueSpan ||
         kind == TraceEventKind::kExecSpan ||
         kind == TraceEventKind::kBatchExec ||
         kind == TraceEventKind::kControlRefresh;
}

// Exported pid for control-plane / fleet events that belong to no module.
constexpr int kControlPid = 1000000;

}  // namespace

TraceShard::TraceShard(int index, std::size_t capacity_pow2)
    : index_(index), mask_(capacity_pow2 - 1), ring_(capacity_pow2) {
  PARD_CHECK_MSG((capacity_pow2 & mask_) == 0 && capacity_pow2 >= 2,
                 "trace ring capacity must be a power of two, got "
                     << capacity_pow2);
}

void TraceShard::Push(const TraceEvent& ev) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail > mask_) {  // full: drop-newest, account for it
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring_[head & mask_] = ev;
  head_.store(head + 1, std::memory_order_release);
}

std::size_t TraceShard::Drain(std::vector<TraceEvent>* out) {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::size_t n = static_cast<std::size_t>(head - tail);
  out->reserve(out->size() + n);
  for (; tail != head; ++tail) {
    out->push_back(ring_[tail & mask_]);
  }
  tail_.store(tail, std::memory_order_release);
  return n;
}

TraceRecorder::TraceRecorder(const Options& options)
    : options_(options),
      threshold_(options.sample_rate >= 1.0
                     ? ~0ull
                     : (options.sample_rate <= 0.0
                            ? 0ull
                            : static_cast<std::uint64_t>(
                                  options.sample_rate *
                                  static_cast<double>(~0ull)))),
      id_([] {
        static std::atomic<std::uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()) {
  PARD_CHECK_MSG(
      options.ring_capacity >= 2 &&
          (options.ring_capacity & (options.ring_capacity - 1)) == 0,
      "trace ring capacity must be a power of two >= 2, got "
          << options.ring_capacity);
}

bool TraceRecorder::Sampled(std::uint64_t request_id) const {
  if (threshold_ == ~0ull) return true;
  if (threshold_ == 0ull) return false;
  return Mix64(request_id ^ options_.seed) < threshold_;
}

TraceShard* TraceRecorder::ThisThreadShard() {
  thread_local std::uint64_t slot_owner = 0;  // No recorder has id 0.
  thread_local TraceShard* slot = nullptr;
  if (slot_owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::make_unique<TraceShard>(
        static_cast<int>(shards_.size()), options_.ring_capacity));
    slot = shards_.back().get();
    slot_owner = id_;
  }
  return slot;
}

std::uint64_t TraceRecorder::total_dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->dropped_events();
  return total;
}

std::size_t TraceRecorder::shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

std::string TraceRecorder::ChromeTraceJson() {
  struct Tagged {
    TraceEvent ev;
    int tid;
  };
  std::vector<Tagged> events;
  std::uint64_t dropped = 0;
  int max_module = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& shard : shards_) {
      std::vector<TraceEvent> drained;
      shard->Drain(&drained);
      dropped += shard->dropped_events();
      for (const TraceEvent& ev : drained) {
        events.push_back({ev, shard->index()});
        max_module = std::max(max_module, static_cast<int>(ev.module));
      }
    }
  }
  // Stable sort: single-producer (simulator) traces keep emission order for
  // equal timestamps, so export is bit-deterministic per seed.
  std::stable_sort(events.begin(), events.end(),
                   [](const Tagged& a, const Tagged& b) {
                     return a.ev.ts < b.ev.ts;
                   });

  std::string out;
  out.reserve(events.size() * 96 + 1024);
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":";
  out += StrFormat("%llu", static_cast<unsigned long long>(dropped));
  out += StrFormat(",\"shards\":%d},\"traceEvents\":[\n",
                   static_cast<int>(shard_count()));
  bool first = true;
  for (int m = 0; m <= max_module; ++m) {
    out += StrFormat(
        "%s{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{"
        "\"name\":\"module %d\"}}",
        first ? "" : ",\n", m, m);
    first = false;
  }
  out += StrFormat(
      "%s{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{"
      "\"name\":\"control-plane\"}}",
      first ? "" : ",\n", kControlPid);
  first = false;
  for (const Tagged& t : events) {
    const TraceEvent& ev = t.ev;
    const int pid = ev.module >= 0 ? ev.module : kControlPid;
    if (IsSpan(ev.kind)) {
      out += StrFormat(
          ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d,"
          "\"ts\":%lld,\"dur\":%lld,\"args\":{\"req\":%llu,\"arg0\":%lld}}",
          EventName(ev), pid, t.tid, static_cast<long long>(ev.ts),
          static_cast<long long>(ev.dur),
          static_cast<unsigned long long>(ev.request_id),
          static_cast<long long>(ev.arg0));
    } else if (ev.kind == TraceEventKind::kFate) {
      out += StrFormat(
          ",\n{\"ph\":\"i\",\"s\":\"t\",\"name\":\"%s\",\"pid\":%d,"
          "\"tid\":%d,\"ts\":%lld,\"args\":{\"req\":%llu,\"reason\":\"%s\"}}",
          EventName(ev), pid, t.tid, static_cast<long long>(ev.ts),
          static_cast<unsigned long long>(ev.request_id),
          DropReasonName(static_cast<DropReason>(ev.arg1)));
    } else {
      out += StrFormat(
          ",\n{\"ph\":\"i\",\"s\":\"t\",\"name\":\"%s\",\"pid\":%d,"
          "\"tid\":%d,\"ts\":%lld,\"args\":{\"req\":%llu,\"arg0\":%lld,"
          "\"arg1\":%lld}}",
          EventName(ev), pid, t.tid, static_cast<long long>(ev.ts),
          static_cast<unsigned long long>(ev.request_id),
          static_cast<long long>(ev.arg0), static_cast<long long>(ev.arg1));
    }
  }
  out += "\n]}\n";
  return out;
}

void TraceRecorder::WriteChromeTrace(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  PARD_CHECK_MSG(out.good(), "cannot open trace output file: " << path);
  out << ChromeTraceJson();
  PARD_CHECK_MSG(out.good(), "failed writing trace output file: " << path);
}

}  // namespace pard
