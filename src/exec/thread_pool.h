// Fixed-size worker pool for running independent simulation tasks.
//
// The simulator kernel itself stays single-threaded and deterministic; this
// pool parallelizes *across* runs — sweep grids and replicated seeds — each
// of which owns its whole object graph (policy, runtime, request records)
// and therefore needs no locking beyond the work queue.
//
// Exceptions thrown by a task are captured and re-thrown from Wait() /
// ParallelFor() on the submitting thread (first one wins; later ones are
// swallowed), so a failing experiment surfaces exactly like it does when run
// serially instead of calling std::terminate inside a worker.
#ifndef PARD_EXEC_THREAD_POOL_H_
#define PARD_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pard {

class ThreadPool {
 public:
  // Spawns `threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int threads);

  // Graceful shutdown: runs everything already submitted, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues one task. Must not be called after/while the destructor runs.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished, then re-throws the first
  // captured task exception (if any). Safe to call repeatedly.
  void Wait();

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // Resolves a jobs knob: values >= 1 pass through; anything else means
  // "one per hardware thread" (with a floor of 1 when the runtime cannot
  // tell, per std::thread::hardware_concurrency()).
  static int ResolveJobs(int jobs);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::exception_ptr first_error_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

// Runs fn(0..n-1) on the pool and blocks until all indices finish. Every
// index is executed exactly once regardless of scheduling; if any call
// throws, the first exception is re-thrown here after the loop drains.
void ParallelFor(ThreadPool& pool, std::size_t n, const std::function<void(std::size_t)>& fn);

// One-shot convenience: ParallelFor on a temporary pool of `jobs` threads
// (ResolveJobs semantics). jobs == 1 runs inline on the caller's thread.
void ParallelFor(int jobs, std::size_t n, const std::function<void(std::size_t)>& fn);

// A group of long-running threads, as opposed to ThreadPool's queue of
// short tasks. The serving runtime (src/serve/) runs its brokers, control
// thread and each module's timer thread this way: threads that live for the
// whole run, blocking between deadlines — work that would wedge a shared
// task queue.
//
// Join() (or the destructor) joins every spawned thread and then re-throws
// the first exception any of them ended with (later ones are swallowed), so
// a crashed worker surfaces on the owning thread exactly like ThreadPool's
// Wait() contract.
class WorkerGroup {
 public:
  WorkerGroup() = default;
  ~WorkerGroup() noexcept;

  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;

  // Starts one thread running `body`. Must not race with Join().
  void Spawn(std::function<void()> body);

  // Joins every thread, then re-throws the first captured exception (if
  // any). Safe to call repeatedly; later calls are no-ops.
  void Join();

  int size() const { return static_cast<int>(threads_.size()); }

 private:
  std::mutex mu_;  // Guards first_error_ only.
  std::exception_ptr first_error_;
  std::vector<std::thread> threads_;
};

}  // namespace pard

#endif  // PARD_EXEC_THREAD_POOL_H_
