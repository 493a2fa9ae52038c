#ifndef DEEPMVI_COMMON_MUTEX_H_
#define DEEPMVI_COMMON_MUTEX_H_

#include <chrono>               // NOLINT(build/c++11)
#include <condition_variable>   // dmvi-lint: allow-sync-primitive
#include <mutex>                // dmvi-lint: allow-sync-primitive

#include "common/thread_annotations.h"

namespace deepmvi {

class CondVar;

/// The repo's one mutex type: std::mutex wrapped as an annotated Clang
/// thread-safety capability. Every locked class declares
///
///   mutable Mutex mu_;
///   int guarded_field_ DMVI_GUARDED_BY(mu_);
///
/// and takes the lock with MutexLock; `clang -Wthread-safety -Werror`
/// (CI `thread-safety` job) then rejects any access to guarded state
/// without the lock, and tools/dmvi_lint rejects any use of the raw std
/// primitives outside this header. Non-clang builds compile the same
/// code with the annotations erased.
class DMVI_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DMVI_ACQUIRE() { raw_.lock(); }
  void Unlock() DMVI_RELEASE() { raw_.unlock(); }

 private:
  friend class CondVar;
  std::mutex raw_;
};

/// RAII scope holding a Mutex, the only idiom the repo uses for plain
/// critical sections (the std::lock_guard / std::unique_lock shapes are
/// linted out):
///
///   MutexLock lock(&mu_);
class DMVI_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) DMVI_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() DMVI_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable paired with Mutex. Waits atomically release the
/// mutex and reacquire it before returning, so the caller's capability
/// set is unchanged across a Wait — which is what DMVI_REQUIRES(mu)
/// expresses. Spurious wakeups happen; callers loop on their condition:
///
///   MutexLock lock(&mu_);
///   while (!ready_) cv_.Wait(&mu_);
///
/// (Explicit while-loops instead of predicate lambdas: the analysis
/// cannot see capabilities inside a lambda body, the loop form it can.)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously woken). *mu must be held.
  void Wait(Mutex* mu) DMVI_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu->raw_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // Ownership stays with the caller's MutexLock.
  }

  /// Wait bounded by a deadline; returns false iff the deadline passed.
  bool WaitUntil(Mutex* mu,
                 std::chrono::steady_clock::time_point deadline)
      DMVI_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu->raw_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status == std::cv_status::no_timeout;
  }

  /// Wait bounded by a duration; returns false iff it timed out.
  bool WaitForSeconds(Mutex* mu, double seconds) DMVI_REQUIRES(mu) {
    return WaitUntil(mu, std::chrono::steady_clock::now() +
                             std::chrono::duration_cast<
                                 std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(seconds)));
  }

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace deepmvi

#endif  // DEEPMVI_COMMON_MUTEX_H_
