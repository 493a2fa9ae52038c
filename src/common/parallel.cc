#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace deepmvi {
namespace {

/// Shared bookkeeping of one ParallelFor invocation's worker threads.
struct Job {
  int n = 0;
  const std::function<void(int)>* f = nullptr;
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  Mutex error_mutex;
  std::exception_ptr first_error DMVI_GUARDED_BY(error_mutex);

  /// Claims and runs iterations until the range is exhausted or a failure
  /// is observed. Failure handling: the first exception (in completion
  /// order) is parked, remaining iterations are abandoned, and the caller
  /// rethrows after every worker is joined.
  void RunWorker() {
    while (!failed.load(std::memory_order_relaxed)) {
      const int i = next.fetch_add(1);
      if (i >= n) return;
      try {
        (*f)(i);
      } catch (...) {
        MutexLock lock(&error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  }

  /// The parked exception, if any. Called after every worker is joined,
  /// but takes the lock anyway — cheap, and it keeps the field's
  /// GUARDED_BY contract unconditional.
  std::exception_ptr TakeError() {
    MutexLock lock(&error_mutex);
    return first_error;
  }
};

}  // namespace

int EffectiveThreads(int n, int num_threads) {
  if (n <= 0) return 0;
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 4;
  }
  return std::min(num_threads, n);
}

void ParallelFor(int n, int num_threads, const std::function<void(int)>& f) {
  if (n <= 0) return;
  num_threads = EffectiveThreads(n, num_threads);
  if (num_threads == 1) {
    for (int i = 0; i < n; ++i) f(i);
    return;
  }

  // Workers claim iterations from a shared counter (a dynamic schedule):
  // callers own determinism by construction, e.g. the eval suite writes
  // each cell to its own slot.
  Job job;
  job.n = n;
  job.f = &f;
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&job] { job.RunWorker(); });
  }
  for (auto& t : threads) t.join();
  if (std::exception_ptr error = job.TakeError()) {
    std::rethrow_exception(error);
  }
}

}  // namespace deepmvi
