#ifndef DEEPMVI_OBS_HISTOGRAM_H_
#define DEEPMVI_OBS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace deepmvi {
namespace obs {

/// Point-in-time copy of a Histogram. `counts` has one entry per bucket
/// (kNumBounds finite buckets plus the overflow bucket); everything a
/// percentile estimate or a Prometheus exposition needs is here, so
/// renderers never touch the live histogram's lock twice.
struct HistogramSnapshot {
  std::vector<int64_t> counts;  // kNumBounds + 1 entries.
  int64_t count = 0;            // Total observations.
  double sum = 0.0;             // Exact running sum.
  double min = 0.0;             // Exact; 0 when empty.
  double max = 0.0;             // Exact; 0 when empty.
  /// Per-bucket exemplars (kNumBounds + 1 entries, parallel to `counts`;
  /// both empty when no observation carried one): the label — by
  /// convention a request id — and exact value of the most recent
  /// ObserveWithExemplar landing in each bucket. A p99 bucket in the
  /// exposition then names a concrete replayable request.
  std::vector<std::string> exemplar_labels;
  std::vector<double> exemplar_values;

  /// Deterministic percentile estimate (q in [0, 1]). The rank is mapped
  /// to its bucket and linearly interpolated between the bucket bounds
  /// (clamped to the exact observed min/max), so the estimate of a value
  /// in bucket b is always within [lower(b), upper(b)] — at most one
  /// bucket-growth factor from the exact order statistic. Unlike a
  /// reservoir sample, the same observations always yield the same
  /// estimate, in any arrival order.
  double Percentile(double q) const;
};

/// Exact linear-interpolated percentile (q in [0, 1]) of `sorted`
/// ascending values; 0 when empty. The same rank convention as
/// HistogramSnapshot::Percentile, whose tests use it as the exact-order-
/// statistic oracle; dmvi_loadgen and dmvi_serve report it over their own
/// recorded latencies.
double SortedPercentile(const std::vector<double>& sorted, double q);

/// Thread-safe latency histogram over a fixed exponential bucket layout
/// shared by every instance: bucket i covers values in
/// (UpperBound(i-1), UpperBound(i)] with UpperBound(i) = 1e-6 * sqrt(2)^i
/// seconds, i in [0, kNumBounds) — 1 microsecond up to ~50 minutes at a
/// guaranteed <= sqrt(2) relative quantile error — plus one overflow
/// bucket. The fixed layout makes histograms mergeable by bucket-wise
/// addition and keeps percentile estimates deterministic — the serving
/// layer's p50/p95 come from here.
class Histogram {
 public:
  static constexpr int kNumBounds = 64;

  /// Upper bound (inclusive, Prometheus `le` semantics) of bucket i.
  static double UpperBound(int i);
  /// Lower bound (exclusive) of bucket i; 0 for the first bucket.
  static double LowerBound(int i);
  /// Index of the bucket `value` falls into (kNumBounds = overflow).
  static int BucketIndex(double value);

  void Observe(double value);
  /// Observe plus an exemplar: remembers (label, value) as the bucket's
  /// most recent exemplar. An empty label is a plain Observe.
  void ObserveWithExemplar(double value, const std::string& exemplar_label);
  /// Adds every observation of `other` (bucket-wise; exact min/max/sum
  /// merge exactly). Buckets where `other` carries an exemplar adopt it.
  void Merge(const HistogramSnapshot& other);
  HistogramSnapshot Snapshot() const;

 private:
  void ObserveLocked(double value, const std::string* exemplar_label)
      DMVI_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::vector<int64_t> counts_ DMVI_GUARDED_BY(mutex_) =
      std::vector<int64_t>(kNumBounds + 1, 0);
  int64_t count_ DMVI_GUARDED_BY(mutex_) = 0;
  double sum_ DMVI_GUARDED_BY(mutex_) = 0.0;
  double min_ DMVI_GUARDED_BY(mutex_) = 0.0;
  double max_ DMVI_GUARDED_BY(mutex_) = 0.0;
  // Lazily sized on the first exemplar; empty until then so plain
  // histograms pay nothing.
  std::vector<std::string> exemplar_labels_ DMVI_GUARDED_BY(mutex_);
  std::vector<double> exemplar_values_ DMVI_GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace deepmvi

#endif  // DEEPMVI_OBS_HISTOGRAM_H_
