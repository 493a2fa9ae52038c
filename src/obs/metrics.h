#ifndef DEEPMVI_OBS_METRICS_H_
#define DEEPMVI_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/histogram.h"

namespace deepmvi {
namespace obs {

/// Monotonically increasing event count. Lock-free; safe to bump from any
/// thread (request workers, the dispatcher, kernel scopes).
class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-written instantaneous value (queue depths, watermark settings).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Name-keyed registry of counters, gauges, and latency histograms — the
/// metrics half of the observability layer (trace.h is the spans half).
/// Registration is idempotent: asking for an existing name returns the
/// same instrument, so independent layers (service, HTTP server, route
/// handlers) can share one registry without coordinating creation order.
/// Returned pointers stay valid for the registry's lifetime.
///
/// Metric names must follow Prometheus rules ([a-zA-Z_:][a-zA-Z0-9_:]*);
/// by convention everything in this repo is prefixed `dmvi_`, counters
/// end in `_total`, and latency histograms in `_seconds`.
class MetricsRegistry {
 public:
  Counter* CounterNamed(const std::string& name, const std::string& help);
  Gauge* GaugeNamed(const std::string& name, const std::string& help);
  Histogram* HistogramNamed(const std::string& name, const std::string& help);

  /// Renders every registered metric in Prometheus text exposition format
  /// (version 0.0.4), sorted by metric name: `# HELP` / `# TYPE` comment
  /// pair, then the sample lines. Histograms emit cumulative
  /// `_bucket{le="..."}` lines up to the last non-empty bucket plus the
  /// mandatory `+Inf`, `_sum`, and `_count`.
  std::string PrometheusText() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& EntryNamedLocked(const std::string& name, const std::string& help,
                          Kind kind) DMVI_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::map<std::string, Entry> entries_ DMVI_GUARDED_BY(mutex_);
};

/// Exposition building blocks, shared with renderers that append
/// scrape-time values outside a registry (the /metrics route's live
/// gauges).
void AppendPrometheusCounter(std::ostream& os, const std::string& name,
                             const std::string& help, int64_t value);
void AppendPrometheusGauge(std::ostream& os, const std::string& name,
                           const std::string& help, double value);
void AppendPrometheusHistogram(std::ostream& os, const std::string& name,
                               const std::string& help,
                               const HistogramSnapshot& snapshot);

/// Value of the unlabeled sample line `name value` in a Prometheus text
/// exposition, or -1 when the sample is absent.
double PrometheusValue(const std::string& text, const std::string& name);

}  // namespace obs
}  // namespace deepmvi

#endif  // DEEPMVI_OBS_METRICS_H_
