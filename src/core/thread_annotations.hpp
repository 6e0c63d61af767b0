#ifndef BACO_CORE_THREAD_ANNOTATIONS_HPP_
#define BACO_CORE_THREAD_ANNOTATIONS_HPP_

/**
 * @file
 * Clang capability-analysis (thread-safety) annotations, and the
 * annotated mutex primitives every lock in this codebase goes through.
 *
 * The serving stack is deeply concurrent — a work-stealing ThreadPool,
 * the drive's landing queue, the multi-client Acceptor, the
 * SessionManager, the Coordinator's scheduler and worker records — and its
 * locking discipline used to be enforced only by TSAN runs over the
 * interleavings the test suite happens to produce. These annotations
 * move that discipline to compile time: under clang, `-Wthread-safety`
 * proves on every build that a `BACO_GUARDED_BY` field is only touched
 * with its mutex held and that a `BACO_REQUIRES` function is only
 * called under the right lock. Under GCC every macro expands to
 * nothing and `baco::Mutex` behaves exactly like the `std::mutex` it
 * wraps, so the annotations cost nothing where they cannot be checked.
 *
 * Policy (see README "Correctness tooling"): new mutex-protected state
 * uses `baco::Mutex` + `baco::MutexLock`, annotates what the mutex
 * guards, and keeps lock acquisition *syntactically scoped* — the
 * analysis is per-function, so handing a held lock across a function
 * boundary (other than via `BACO_REQUIRES`) is what the few documented
 * `BACO_NO_THREAD_SAFETY_ANALYSIS` escape hatches are reserved for.
 * `scripts/check.sh --stage tidy` builds all of src/ under clang with
 * the analysis promoted to errors, and
 * tests/test_static_analysis.cmake negative-compiles an unguarded
 * access so the annotations cannot silently rot into no-ops.
 *
 * Macro set (the standard clang vocabulary, BACO_-prefixed):
 *
 *   BACO_CAPABILITY(name)      this type is a lockable capability
 *   BACO_SCOPED_CAPABILITY     RAII type that acquires/releases one
 *   BACO_GUARDED_BY(mu)        field only accessed with mu held
 *   BACO_PT_GUARDED_BY(mu)     pointee only accessed with mu held
 *   BACO_REQUIRES(mu...)       caller must hold mu (exclusively)
 *   BACO_ACQUIRE(mu...)        function acquires mu, caller must not hold
 *   BACO_RELEASE(mu...)        function releases mu, caller must hold
 *   BACO_TRY_ACQUIRE(ok, mu)   acquires mu when returning `ok`
 *   BACO_EXCLUDES(mu...)       caller must NOT hold mu (deadlock guard)
 *   BACO_ACQUIRED_BEFORE/AFTER lock-order declarations between mutexes
 *   BACO_ASSERT_CAPABILITY     runtime-checked "I hold it" assertion
 *   BACO_RETURN_CAPABILITY(mu) getter returning a reference to mu
 *   BACO_NO_THREAD_SAFETY_ANALYSIS  opt a function out (needs a reason)
 */

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define BACO_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define BACO_THREAD_ANNOTATION(x)  // no-op: GCC/MSVC have no analysis
#endif

#define BACO_CAPABILITY(x) BACO_THREAD_ANNOTATION(capability(x))
#define BACO_SCOPED_CAPABILITY BACO_THREAD_ANNOTATION(scoped_lockable)
#define BACO_GUARDED_BY(x) BACO_THREAD_ANNOTATION(guarded_by(x))
#define BACO_PT_GUARDED_BY(x) BACO_THREAD_ANNOTATION(pt_guarded_by(x))
#define BACO_REQUIRES(...) \
  BACO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define BACO_REQUIRES_SHARED(...) \
  BACO_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define BACO_ACQUIRE(...) \
  BACO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define BACO_RELEASE(...) \
  BACO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define BACO_TRY_ACQUIRE(...) \
  BACO_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define BACO_EXCLUDES(...) BACO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define BACO_ACQUIRED_BEFORE(...) \
  BACO_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define BACO_ACQUIRED_AFTER(...) \
  BACO_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define BACO_ASSERT_CAPABILITY(x) \
  BACO_THREAD_ANNOTATION(assert_capability(x))
#define BACO_RETURN_CAPABILITY(x) BACO_THREAD_ANNOTATION(lock_returned(x))
#define BACO_NO_THREAD_SAFETY_ANALYSIS \
  BACO_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace baco {

class CondVar;

/**
 * std::mutex with the capability attribute, so fields can be declared
 * BACO_GUARDED_BY(mutex_) and functions BACO_REQUIRES(mutex_). Same
 * size and cost as the std::mutex it wraps; satisfies Lockable, so it
 * still composes with std::unique_lock / std::scoped_lock where a
 * movable or multi-lock handle is genuinely needed (those sites forgo
 * the compile-time proof — keep them rare and documented).
 */
class BACO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() BACO_ACQUIRE() { mu_.lock(); }
  void unlock() BACO_RELEASE() { mu_.unlock(); }
  bool try_lock() BACO_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/**
 * RAII lock over a baco::Mutex — the std::lock_guard of the annotated
 * world, with optional early unlock()/relock() for the handful of
 * "release before rethrow / drain" paths. The scoped-capability
 * attribute teaches the analysis that guarded fields are accessible
 * for exactly the region this object holds the mutex.
 */
class BACO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) BACO_ACQUIRE(mu) : mu_(mu), held_(true)
  {
      mu_.lock();
  }

  ~MutexLock() BACO_RELEASE()
  {
      if (held_)
          mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /** Release before scope end (e.g. to rethrow without the lock). */
  void unlock() BACO_RELEASE()
  {
      held_ = false;
      mu_.unlock();
  }

  /** Re-acquire after an early unlock(). */
  void lock() BACO_ACQUIRE()
  {
      mu_.lock();
      held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

/**
 * Condition variable bound to baco::Mutex. wait() takes the Mutex the
 * caller already holds (via MutexLock), stated as BACO_REQUIRES so the
 * analysis checks it; internally the held mutex is adopted into a
 * std::unique_lock for the wait and released back un-owned, so this is
 * a plain std::condition_variable wait — no condition_variable_any
 * overhead. Predicate waits are written as explicit while-loops at the
 * call sites: the analysis cannot see into a predicate lambda, and the
 * loop form keeps guarded-field reads inside the annotated scope.
 */
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  /** Atomically release mu, wait, re-acquire mu. */
  void wait(Mutex& mu) BACO_REQUIRES(mu)
  {
      std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
      cv_.wait(lock);
      lock.release();  // the caller's MutexLock still owns mu
  }

  /** Timed wait; false when the deadline passed without a notify. */
  template <class Rep, class Period>
  bool wait_for(Mutex& mu,
                const std::chrono::duration<Rep, Period>& timeout)
      BACO_REQUIRES(mu)
  {
      std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
      bool notified = cv_.wait_for(lock, timeout) == std::cv_status::no_timeout;
      lock.release();
      return notified;
  }

  template <class Clock, class Duration>
  bool wait_until(Mutex& mu,
                  const std::chrono::time_point<Clock, Duration>& deadline)
      BACO_REQUIRES(mu)
  {
      std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
      bool notified =
          cv_.wait_until(lock, deadline) == std::cv_status::no_timeout;
      lock.release();
      return notified;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace baco

#endif  // BACO_CORE_THREAD_ANNOTATIONS_HPP_
