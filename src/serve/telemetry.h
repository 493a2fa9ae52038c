#ifndef DEEPMVI_SERVE_TELEMETRY_H_
#define DEEPMVI_SERVE_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "obs/histogram.h"

namespace deepmvi {
namespace serve {

/// Point-in-time aggregate of the service counters, in the spirit of the
/// eval layer's machine-readable outputs (eval/suite.h): every number a
/// load test or dashboard needs, renderable as JSON via TelemetryToJson
/// or as Prometheus text via TelemetryToPrometheus.
struct TelemetrySnapshot {
  int64_t requests = 0;        // Completed requests, including failures.
  int64_t failures = 0;        // Requests answered with a non-OK status.
  int64_t degraded = 0;        // Requests answered by the fallback imputer.
  int64_t shed = 0;            // Requests rejected at admission (503).
  int64_t rows_served = 0;     // Series rows carrying >= 1 imputed cell.
  int64_t cells_imputed = 0;   // Missing cells filled.
  double busy_seconds = 0.0;   // Sum of per-request latencies.
  double wall_seconds = 0.0;   // Since the first event after start/Reset.
  // Latency distribution over completed requests, milliseconds. p50/p95
  // are deterministic histogram estimates.
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_max_ms = 0.0;
  // Throughput over the wall-clock window.
  double requests_per_second = 0.0;
  double rows_per_second = 0.0;
  double cells_per_second = 0.0;
  // Response-cache lookups (0/0 when the cache is disabled).
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  // Full request-latency distribution (seconds).
  obs::HistogramSnapshot latency_histogram;
};

/// Thread-safe latency/throughput counters owned by ImputationService.
/// Counters are exact; the latency distribution is a fixed-bucket
/// obs::Histogram, the deterministic source of the p50/p95 in snapshots.
///
/// The wall clock is lazy: it starts at the first recorded event after
/// construction or Reset(), so wall_seconds (and the derived throughput
/// rates) measure the traffic window, not the idle time before it —
/// Reset() followed by a quiet stretch reports zero throughput decay
/// instead of a shrinking rate.
class Telemetry {
 public:
  /// Records one completed request. A non-empty `request_id` becomes the
  /// latency histogram's bucket exemplar, so the exposition links slow
  /// buckets to replayable requests.
  void RecordRequest(double latency_seconds, int64_t rows, int64_t cells,
                     bool ok, const std::string& request_id = std::string());

  /// Records one request answered by the degradation ladder's fallback
  /// imputer instead of the full model.
  void RecordDegraded();

  /// Records one request shed at admission (also RecordRequest'ed as a
  /// failure by the caller).
  void RecordShed();

  /// Records one response-cache probe.
  void RecordCacheLookup(bool hit);

  TelemetrySnapshot Snapshot() const;

  void Reset();

 private:
  /// Starts the lazy wall clock on the first event.
  void TouchClockLocked() DMVI_REQUIRES(mutex_);

  mutable Mutex mutex_;
  Stopwatch since_start_ DMVI_GUARDED_BY(mutex_);
  bool clock_started_ DMVI_GUARDED_BY(mutex_) = false;
  int64_t requests_ DMVI_GUARDED_BY(mutex_) = 0;
  int64_t failures_ DMVI_GUARDED_BY(mutex_) = 0;
  int64_t degraded_ DMVI_GUARDED_BY(mutex_) = 0;
  int64_t shed_ DMVI_GUARDED_BY(mutex_) = 0;
  int64_t rows_served_ DMVI_GUARDED_BY(mutex_) = 0;
  int64_t cells_imputed_ DMVI_GUARDED_BY(mutex_) = 0;
  int64_t cache_hits_ DMVI_GUARDED_BY(mutex_) = 0;
  int64_t cache_misses_ DMVI_GUARDED_BY(mutex_) = 0;
  double busy_seconds_ DMVI_GUARDED_BY(mutex_) = 0.0;
  double latency_max_seconds_ DMVI_GUARDED_BY(mutex_) = 0.0;
  /// The histogram is itself thread-safe, but every write rides the same
  /// critical section as the exact counters so a Snapshot is one
  /// consistent cut across all of them.
  obs::Histogram latency_histogram_;
};

/// Linear-interpolated percentile (q in [0, 1]) of `sorted` ascending
/// values; 0 when empty. The exact-order-statistic oracle the histogram
/// tests compare against, and the percentile dmvi_loadgen reports.
double SortedPercentile(const std::vector<double>& sorted, double q);

/// Renders a snapshot as a small JSON document (two-space indent, stable
/// key order), matching the style of eval/suite.h's SuiteToJson.
std::string TelemetryToJson(const TelemetrySnapshot& snapshot);

/// Renders a snapshot in Prometheus text exposition format: the exact
/// counters as dmvi_*_total, the latency distribution as the
/// dmvi_request_latency_seconds histogram, and the derived rates as
/// gauges.
std::string TelemetryToPrometheus(const TelemetrySnapshot& snapshot);

}  // namespace serve
}  // namespace deepmvi

#endif  // DEEPMVI_SERVE_TELEMETRY_H_
