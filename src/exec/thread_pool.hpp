#ifndef BACO_EXEC_THREAD_POOL_HPP_
#define BACO_EXEC_THREAD_POOL_HPP_

/**
 * @file
 * A small work-stealing thread pool for batched black-box evaluation and
 * suite-runner fan-out.
 *
 * Each worker owns a deque; run() deals tasks round-robin across the
 * deques, workers pop from the front of their own deque and steal from the
 * back of a victim's when theirs drains. The calling thread participates
 * in the work, so a pool of size 1 degenerates to an inline loop and adds
 * no scheduling nondeterminism to single-threaded runs.
 *
 * Besides the barrier-style run(), the pool supports fire-and-forget
 * submit() for asynchronous pipelines (ThreadPoolExecutor, exec/drive.hpp):
 * submitted tasks run on the worker threads while the caller keeps going,
 * and wait_idle() blocks until everything outstanding has drained.
 *
 * Exceptions thrown by tasks are captured (never std::terminate): the
 * first one is rethrown by the next run() or wait_idle() call, after the
 * outstanding work has drained.
 */

#include <atomic>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/thread_annotations.hpp"

namespace baco {

/** Work-stealing pool of persistent worker threads. */
class ThreadPool {
 public:
  /** @param num_threads worker count; 0 = hardware concurrency. */
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /** Total number of execution lanes (workers + the calling thread). */
  int size() const { return static_cast<int>(queues_.size()); }

  /**
   * Tasks enqueued but not yet picked up by any lane (sums the per-lane
   * deques). A sample, not a fence: concurrent submits/steals may move
   * tasks while the lanes are walked. Feeds the drive's queue gauges.
   */
  int queue_depth() const;

  /** Lanes currently inside a task — worker threads plus the calling
   *  thread while it participates in run(). */
  int busy_workers() const
  {
      return busy_.load(std::memory_order_relaxed);
  }

  /**
   * Run all tasks to completion. The calling thread executes tasks too and
   * returns only when every task has finished. Tasks must not call run()
   * on the same pool. Rethrows the first exception any task threw.
   */
  void run(std::vector<std::function<void()>> tasks);

  /**
   * Enqueue one task for asynchronous execution and return immediately;
   * the calling thread does not participate. With no worker threads (a
   * pool of size 1) the task runs inline before submit() returns, so a
   * single-lane pipeline stays strictly sequential. Thread-safe.
   *
   * Destroying the pool with submitted work still queued drains it
   * (every task runs before the workers join) rather than dropping it.
   */
  void submit(std::function<void()> task);

  /**
   * Block until every outstanding task (run() batches and submit()s) has
   * finished. Rethrows the first exception any task threw.
   */
  void wait_idle();

 private:
  struct WorkerQueue {
    mutable Mutex mutex;  ///< mutable: queue_depth() samples are const
    std::deque<std::function<void()>> tasks BACO_GUARDED_BY(mutex);
  };

  /** Pop from our own queue, else steal; empty function when none left. */
  std::function<void()> take(std::size_t self);
  /** Run one task, capturing its exception, and retire it. */
  void execute(std::function<void()>& task);
  void worker_loop(std::size_t id);
  void finish_one();
  /** Any lane's deque non-empty? (Workers re-check this under
   *  state_mutex_ before sleeping; locks each queue mutex in turn.) */
  bool work_queued() const;
  /** Wait for outstanding_ == 0, then surface any captured exception
   *  (rethrown after the lock is dropped). */
  void drain_and_rethrow() BACO_EXCLUDES(state_mutex_);

  // queues_[0] belongs to the calling thread; workers own the rest.
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  // Lock order: state_mutex_ before any WorkerQueue::mutex (run(),
  // submit() and the workers' sleep predicate all nest that way; no
  // path takes them in reverse).
  Mutex state_mutex_;
  CondVar work_cv_;                   ///< wakes idle workers
  CondVar done_cv_;                   ///< wakes run() when a batch drains
  int outstanding_ BACO_GUARDED_BY(state_mutex_) = 0;  ///< unfinished tasks
  std::atomic<int> busy_{0};          ///< lanes currently executing a task
  bool stop_ BACO_GUARDED_BY(state_mutex_) = false;
  /** Round-robin lane for submit(). */
  std::size_t submit_rr_ BACO_GUARDED_BY(state_mutex_) = 0;
  /** First exception a task threw. */
  std::exception_ptr first_error_ BACO_GUARDED_BY(state_mutex_);
};

}  // namespace baco

#endif  // BACO_EXEC_THREAD_POOL_HPP_
