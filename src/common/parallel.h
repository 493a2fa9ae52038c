#ifndef DEEPMVI_COMMON_PARALLEL_H_
#define DEEPMVI_COMMON_PARALLEL_H_

#include <functional>

namespace deepmvi {

/// Runs f(0), ..., f(n-1) across up to `num_threads` worker threads
/// (hardware concurrency when num_threads <= 0), spawned for this call and
/// joined before it returns; with one thread the calls run in order on the
/// calling thread. Tasks must be independent; the benchmark harness uses
/// this to run (dataset, scenario, imputer) experiments concurrently —
/// every experiment seeds its own RNGs, so results are identical to a
/// serial run.
///
/// Exceptions: when an f(i) throws, the first exception (in completion
/// order) is captured, every worker is joined, and the exception is
/// rethrown on the calling thread. Iterations not yet started when the
/// failure is observed are skipped.
void ParallelFor(int n, int num_threads, const std::function<void(int)>& f);

/// Number of worker threads ParallelFor(n, num_threads, ...) actually
/// uses: hardware concurrency (fallback 4) when num_threads <= 0, clamped
/// to n. For reporting/telemetry alongside a ParallelFor call.
int EffectiveThreads(int n, int num_threads);

}  // namespace deepmvi

#endif  // DEEPMVI_COMMON_PARALLEL_H_
