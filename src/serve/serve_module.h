// One pipeline module served by real threads, over sharded work queues.
//
// The simulated ModuleRuntime dispatches to per-worker queues inside one
// event loop; here a module is N queue shards drained by M OS threads, each
// playing one GPU worker. A worker pulls a batch (applying the Request
// Broker's drop decision per candidate against the control plane's lock-free
// snapshot), "executes" it by sleeping to the absolute virtual deadline
// exec_start + profiled duration (ServeClock::SleepUntil, so only the
// wake-up latency, not an accumulated relative sleep, lands on the measured
// execution), then hands the batch back to the runtime for forwarding.
//
// Queue sharding: the single shared DEPQ of PR 4 serialized every push, pop
// and monitor update behind one module mutex. It is now split into
// min(initial workers, 8) QueueShards, each a DEPQ plus that shard's slice
// of the monitoring state (delay/latency windows, wait reservoir, rate
// bins) behind its own mutex. Deliveries land round-robin; a worker drains
// its home shard first and then WORK-STEALS from sibling shards until its
// batch is full, holding at most one shard lock at a time. Deadline-order
// semantics are preserved per shard (DEPQ pop sides, and the purge-expired
// sweep runs against every shard a worker visits); across shards ordering
// is approximate — the price of not serializing, bounded by round-robin
// balance. Monitoring merges exactly: rate bins align on absolute second
// boundaries (RateMonitor::Merge) and windows merge via their weighted sums
// (SlidingWindow::AccumulateLinearWeighted), so Snapshot() publishes the
// same arithmetic the unsharded module computed.
//
// Worker roster: every thread occupies one BackendFleet slot, so fleets can
// be heterogeneous — a slot's backend profile scales its execution
// durations (slot.exec_scale) and sets its cold-start delay. The roster is
// dynamic: AddWorkers() spawns threads that serve only once their cold
// start has elapsed since provisioning, DrainWorkers() retires the most
// recently added threads after their current batch, and FailWorkers()
// kills threads so that their in-flight batch is lost (mirroring the
// simulator's Worker::Fail; the *queued* backlog survives here because
// shards are shared by all workers, where the simulator loses the failed
// worker's private queue).
//
// Batching discipline vs the simulator: a pull-based worker launches as soon
// as it is free, so the batch-entry and execution-start instants coincide
// (W ≈ 0) and contention shows up entirely as queueing delay Q. This is the
// natural discipline for a thread-per-worker server; the simulator's
// form-while-executing overlap (W ∈ [0, d]) is one reason serve and sim
// numbers agree only within a tolerance band (see tests/serve_test.cc).
//
// Concurrency contract (lock ranks per common/lock_order.h):
//   - mu_ (kModule) guards the roster and the worker sleep/wake state only.
//   - Each QueueShard::mu (kQueueShard) guards that shard's queue and
//     monitoring slice. Workers may take a shard lock, then the control
//     plane's locks (kQueueShard < kAdmissionShard < kControl) and the
//     runtime's fate stripes (kFate) — never the reverse.
//   - queued_ is the module-wide live-entry count; Receive() bumps it and
//     performs an empty lock/unlock of mu_ before notifying so a worker
//     between its predicate check and its wait cannot miss the wakeup.
//   - Each worker owns a private jitter RNG (forked per slot), so batch
//     jitter needs no lock at all.
//   - Roster mutations (AddWorkers/DrainWorkers/FailWorkers) must come from
//     ONE control thread and never race Start()/Join(); ServeRuntime's
//     shutdown joins the control thread before joining workers to pin this.
// Snapshot() takes shard locks one at a time and never nests them with mu_,
// so the control thread can snapshot first and publish second without ever
// nesting control → module.
#ifndef PARD_SERVE_SERVE_MODULE_H_
#define PARD_SERVE_SERVE_MODULE_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "models/model_profile.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/backend_fleet.h"
#include "runtime/rate_monitor.h"
#include "runtime/request.h"
#include "runtime/request_queue.h"
#include "runtime/runtime_options.h"
#include "runtime/state_board.h"
#include "stats/reservoir.h"
#include "stats/sliding_window.h"

namespace pard {

class ServeRuntime;
class Counter;          // obs/metrics.h
class Gauge;            // obs/metrics.h
class AtomicHistogram;  // obs/metrics.h

class ServeModule {
 public:
  ServeModule(ServeRuntime* runtime, BackendFleet* fleet, const ModuleSpec& spec,
              const ModelProfile& profile, int batch_size, int workers,
              const RuntimeOptions& options);

  // Spawns the initial (warm) worker threads. Call once, after construction
  // of all modules and before the control thread starts.
  void Start();

  // Thread-safe offered-load accounting. The runtime calls this for every
  // delivery BEFORE the admission front-end, mirroring the simulator's
  // bump-then-admit order in ModuleRuntime::Receive — load_factor and
  // burstiness must measure offered load, or the adaptive priority would
  // see artificially low load exactly when ingress shedding is heaviest.
  void NoteOffered(SimTime now);

  // Thread-safe delivery (ingress admission already done by the runtime).
  void Receive(RequestPtr req);

  // --- Fleet dynamics (control thread only; never concurrent with Join) ---
  // Provisions `count` new worker threads that begin serving after their
  // backend profile's cold start, bounded by the per-module worker cap.
  // Returns the number actually spawned (the caller additionally budgets
  // the fleet-wide thread cap).
  int AddWorkers(int count, SimTime now);
  // Fault injection: kills up to `count` active workers. A killed worker's
  // in-flight batch is routed through the runtime's deadline-aware retry
  // path (dropped kWorkerFailure/kRetryExhausted when unretryable); the
  // thread exits. Returns the number killed.
  int FailWorkers(int count, SimTime now);
  // Chaos injection: hangs up to `count` active workers. A hung worker holds
  // its in-flight batch and stops heartbeating; with duration == 0 it hangs
  // until the watchdog force-fails it (or shutdown). Takes effect at the
  // worker's next batch boundary — an idle hung worker is indistinguishable
  // from a slow one until work arrives. Returns the number hung.
  int HangWorkers(int count, Duration duration, SimTime now);
  // Chaos injection: scales every batch execution by `factor` (> 1 = slower)
  // until virtual time `until`. Later calls override earlier ones.
  void SetSlowdown(double factor, SimTime until);
  // Watchdog (control thread): force-fails every busy worker whose heartbeat
  // is older than `budget` through the BackendFleet fail path, exactly like
  // FailWorkers. Returns the number killed (the caller provisions
  // replacements).
  int WatchdogSweep(SimTime now, Duration budget);
  // Adjust the live fleet toward `target_units` of capacity (baseline-worker
  // units), spawning at most `max_new_threads` new threads; drains when
  // above target. Returns threads added.
  int SetTargetUnits(double target_units, SimTime now, int max_new_threads);

  // Asks workers to exit once the queues are empty, then unblocks them.
  void RequestStop();
  // Drain-timeout stop: discards the entire backlog (abandoned requests stay
  // non-terminal; the runtime's conservation sweep accounts them kLate) and
  // stops workers. Each worker finishes at most its in-flight batch, so the
  // run ends within one batch duration instead of serving the backlog out.
  void Abort();
  // Joins worker threads; re-throws the first worker exception.
  void Join();

  // Monitoring snapshot for the control thread: merges the per-shard
  // monitor slices (shard locks, one at a time — see the contract above).
  ModuleState Snapshot(SimTime now);
  // Window-smoothed offered rate, for the scaling engine.
  double SmoothedInputRate(SimTime now);
  double PerWorkerThroughput() const { return profile_.Throughput(batch_size_); }

  int module_id() const { return spec_.id; }
  int batch_size() const { return batch_size_; }
  int initial_workers() const { return initial_workers_; }
  int num_queue_shards() const { return static_cast<int>(shards_.size()); }

 private:
  // One worker thread's shared flags. The slot is immutable; kill/drain are
  // written by the control thread and polled by the owning thread. The
  // jitter RNG and home shard are worker-private.
  struct ServeWorker {
    ServeWorker(const BackendSlot& s, bool c, SimTime provisioned_at, int home_shard,
                Rng jitter_rng)
        : slot(s),
          cold(c),
          provisioned(provisioned_at),
          home(home_shard),
          jitter(jitter_rng) {}
    const BackendSlot slot;
    const bool cold;            // Spawned mid-run: serves from provisioned + cold_start.
    const SimTime provisioned;  // Virtual instant the slot was provisioned.
    const int home;             // Home queue shard; siblings are steal targets.
    Rng jitter;                 // Owning thread only.
    std::atomic<bool> kill{false};
    std::atomic<bool> drain{false};
    // Liveness contract with the watchdog: the owning thread stamps
    // `heartbeat` then sets `busy` at each batch start (release), and clears
    // `busy` at each batch end — so the watchdog (acquire) only ever judges
    // a fresh heartbeat. A hung worker keeps busy == true with a stale
    // heartbeat, which is exactly the watchdog's trigger.
    std::atomic<SimTime> heartbeat{0};
    std::atomic<bool> busy{false};
    // Chaos hang window: the worker stalls (holding its formed batch, not
    // heartbeating) while Now() < hang_until. INT64_MAX = hang forever.
    std::atomic<SimTime> hang_until{0};
  };

  // One slice of the module's queue + monitoring state.
  struct QueueShard {
    QueueShard(Duration window, std::size_t reservoir_capacity)
        : queue_delay_window(window),
          stage_latency_window(window),
          wait_reservoir(reservoir_capacity),
          rate_monitor(window) {}

    std::mutex mu;  // LockRank::kQueueShard.
    RequestQueue queue;

    // SlidingWindow requires non-decreasing timestamps but concurrent
    // workers observe slightly out-of-order clock reads; Monotonic() clamps
    // observation times to the shard's high-water mark. Caller holds mu.
    SimTime obs_clock = 0;
    SimTime Monotonic(SimTime t) {
      obs_clock = std::max(obs_clock, t);
      return obs_clock;
    }
    SlidingWindow queue_delay_window;
    SlidingWindow stage_latency_window;
    RecentReservoir wait_reservoir;
    RateMonitor rate_monitor;
  };

  void WorkerLoop(ServeWorker* w);
  // Pops up to batch_size_ live requests: purge + broker decisions against
  // the home shard first, then steals from siblings. Takes shard locks one
  // at a time; caller holds NO lock.
  std::vector<RequestPtr> FormBatch(int home_shard, SimTime now);
  // Scans one shard (caller holds no lock; locks shard.mu internally).
  // `shard_index` names the shard for steal attribution; `stolen` is true
  // when the scanning worker's home shard is a different one.
  void FormBatchFromShard(QueueShard& shard, int shard_index, bool stolen,
                          SimTime now, Duration d_k,
                          std::vector<RequestPtr>* batch);
  // Spawns one roster entry (cold unless `warm`). Caller must be the
  // constructor/control thread.
  void SpawnWorker(bool warm, SimTime now);

  ServeRuntime* runtime_;
  BackendFleet* fleet_;
  ModuleSpec spec_;
  const ModelProfile& profile_;
  int batch_size_;
  int initial_workers_;
  RuntimeOptions options_;

  std::mutex mu_;  // LockRank::kModule — roster + sleep/wake only.
  std::condition_variable work_ready_;
  bool stop_ = false;
  // Lock-free mirror of stop_, polled by hung workers: an indefinitely hung
  // worker never reaches the predicate wait, so shutdown must be visible
  // without taking mu_. On stop a hung worker abandons the hang and executes
  // its in-flight batch normally (each worker finishes at most one batch).
  std::atomic<bool> stopping_{false};
  // Chaos slowdown window (SetSlowdown): factor is published before the
  // `until` release store; workers pair it with an acquire load.
  std::atomic<double> slow_factor_{1.0};
  std::atomic<SimTime> slow_until_{0};
  std::vector<std::unique_ptr<ServeWorker>> roster_;  // Guarded by mu_.
  int spawned_ = 0;  // Control thread only; assigns home shards round-robin.

  std::vector<std::unique_ptr<QueueShard>> shards_;  // Fixed after ctor.
  // Live entries across all shards (includes already-terminal entries not
  // yet popped, exactly like the old queue_.Empty() predicate).
  std::atomic<std::int64_t> queued_{0};
  std::atomic<std::uint64_t> push_cursor_{0};     // Round-robin Receive.
  std::atomic<std::uint64_t> offered_cursor_{0};  // Round-robin NoteOffered.

  WorkerGroup workers_;

  // Pre-resolved instruments (null / empty when options_.metrics is null).
  // Updates are lock-free; see obs/metrics.h.
  Counter* executed_counter_ = nullptr;
  Counter* steal_counter_ = nullptr;
  AtomicHistogram* batch_size_hist_ = nullptr;
  std::vector<Gauge*> depth_gauges_;  // One per queue shard.
};

}  // namespace pard

#endif  // PARD_SERVE_SERVE_MODULE_H_
