// Reusable fixed-size worker thread pool.
//
// The batch query engine submits one task per (query, shard) pair; the
// pool runs them on a fixed set of workers so thread creation cost is
// paid once per engine, not once per batch.  Wait() gives batch-barrier
// semantics: it returns once every task submitted so far has finished,
// after which the pool is immediately reusable for the next batch.  The
// waiting thread does not sleep while tasks are still queued: it runs
// them itself, so a pool of n workers runs up to n + 1 tasks at once.

#ifndef DISTPERM_UTIL_THREAD_POOL_H_
#define DISTPERM_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace distperm {
namespace util {

/// Fixed-size FIFO thread pool.  Wait() may be called only from the
/// owning thread; it pops and runs queued tasks on that thread, counted
/// and instrumented like a worker's, and blocks only for the tasks
/// still in flight once the queue is empty.  A task may therefore run
/// on the waiting thread as well as on a worker: tasks must not depend
/// on which thread runs them, and the waiting thread must not hold a
/// lock a task takes.  Submit() is thread-safe: it may be called from
/// the owning thread, from any other thread (live-ingest writers schedule
/// background compactions from arbitrary threads), or from within a
/// running task.  A task's submissions happen before the task is
/// counted finished, so Wait() cannot wake until the chained work has
/// drained too.  Tasks must not call Wait().
///
/// Shutdown interacts safely with Submit-from-task: the destructor's
/// shutdown flag lets idle workers exit once the queue is empty, but a
/// task that submits during shutdown always has its own (still-live)
/// worker pick the chained work up after it finishes — submissions from
/// inside tasks are therefore never dropped, and the destructor joins
/// only after every chain has drained (regression-tested in
/// tests/engine_test.cc, ThreadPool.DestructorDrainsChainsStillSubmitting).
class ThreadPool {
 public:
  /// Spawns `thread_count` workers (at least 1).
  explicit ThreadPool(size_t thread_count);

  /// Drains outstanding tasks (including tasks submitted by tasks
  /// during shutdown), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Runs queued tasks on the calling thread until the queue is empty,
  /// then blocks until every task submitted so far has completed.
  void Wait();

  /// Number of worker threads.
  size_t thread_count() const { return workers_.size(); }

  /// Tasks enqueued but not yet picked up by a worker or by Wait() —
  /// the pool's backlog at this instant.  Takes the pool mutex; meant
  /// for gauge callbacks and tests, not for hot-path polling.
  size_t queue_depth() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return queue_.size();
  }

  /// Tasks accepted by Submit() so far.
  uint64_t submitted_count() const {
    return submitted_.load(std::memory_order_relaxed);
  }

  /// Tasks that have finished running.  submitted_count() -
  /// executed_count() is the work still queued or in flight.
  uint64_t executed_count() const {
    return executed_.load(std::memory_order_relaxed);
  }

  /// Wires optional obs instruments (null members are skipped): task
  /// submit/execute counters and a per-task run-time histogram.  Call
  /// at setup time, before tasks are submitted concurrently; the
  /// pointees must outlive the pool.
  void set_instruments(obs::ThreadPoolInstruments instruments) {
    instruments_ = instruments;
  }

 private:
  void WorkerLoop();
  /// Pops the front task, runs it with `lock` released and counts it;
  /// returns with `lock` held.  The queue must not be empty.
  void RunFront(std::unique_lock<std::mutex>& lock);

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;   // signalled on Submit / shutdown
  std::condition_variable all_idle_;     // signalled when work drains
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // dequeued but not yet finished
  bool shutdown_ = false;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  obs::ThreadPoolInstruments instruments_;
  std::vector<std::thread> workers_;
};

}  // namespace util
}  // namespace distperm

#endif  // DISTPERM_UTIL_THREAD_POOL_H_
