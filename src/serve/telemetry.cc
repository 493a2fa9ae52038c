#include "serve/telemetry.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/metrics.h"

namespace deepmvi {
namespace serve {

void Telemetry::TouchClockLocked() {
  if (clock_started_) return;
  clock_started_ = true;
  since_start_.Reset();
}

void Telemetry::RecordRequest(double latency_seconds, int64_t rows,
                              int64_t cells, bool ok,
                              const std::string& request_id) {
  MutexLock lock(&mutex_);
  TouchClockLocked();
  ++requests_;
  if (!ok) ++failures_;
  rows_served_ += rows;
  cells_imputed_ += cells;
  busy_seconds_ += latency_seconds;
  latency_max_seconds_ = std::max(latency_max_seconds_, latency_seconds);
  latency_histogram_.ObserveWithExemplar(latency_seconds, request_id);
}

void Telemetry::RecordDegraded() {
  MutexLock lock(&mutex_);
  TouchClockLocked();
  ++degraded_;
}

void Telemetry::RecordShed() {
  MutexLock lock(&mutex_);
  TouchClockLocked();
  ++shed_;
}

void Telemetry::RecordCacheLookup(bool hit) {
  MutexLock lock(&mutex_);
  TouchClockLocked();
  if (hit) {
    ++cache_hits_;
  } else {
    ++cache_misses_;
  }
}

TelemetrySnapshot Telemetry::Snapshot() const {
  MutexLock lock(&mutex_);
  TelemetrySnapshot snap;
  snap.requests = requests_;
  snap.failures = failures_;
  snap.degraded = degraded_;
  snap.shed = shed_;
  snap.rows_served = rows_served_;
  snap.cells_imputed = cells_imputed_;
  snap.cache_hits = cache_hits_;
  snap.cache_misses = cache_misses_;
  snap.busy_seconds = busy_seconds_;
  snap.wall_seconds = clock_started_ ? since_start_.ElapsedSeconds() : 0.0;

  // Histogram estimates are the served percentiles: deterministic for a
  // given set of observations, in any arrival order.
  snap.latency_histogram = latency_histogram_.Snapshot();
  snap.latency_p50_ms = snap.latency_histogram.Percentile(0.50) * 1e3;
  snap.latency_p95_ms = snap.latency_histogram.Percentile(0.95) * 1e3;
  // Max comes from the exact running counter (a bucket bound would round
  // it up).
  snap.latency_max_ms = latency_max_seconds_ * 1e3;

  if (snap.wall_seconds > 0.0) {
    snap.requests_per_second = static_cast<double>(requests_) / snap.wall_seconds;
    snap.rows_per_second = static_cast<double>(rows_served_) / snap.wall_seconds;
    snap.cells_per_second =
        static_cast<double>(cells_imputed_) / snap.wall_seconds;
  }
  return snap;
}

void Telemetry::Reset() {
  MutexLock lock(&mutex_);
  requests_ = 0;
  failures_ = 0;
  degraded_ = 0;
  shed_ = 0;
  rows_served_ = 0;
  cells_imputed_ = 0;
  cache_hits_ = 0;
  cache_misses_ = 0;
  busy_seconds_ = 0.0;
  latency_max_seconds_ = 0.0;
  latency_histogram_.Reset();
  // The wall clock restarts lazily: it stays at zero until the next
  // recorded event, so throughput derived from wall_seconds reflects the
  // post-Reset traffic window only.
  clock_started_ = false;
  since_start_.Reset();
}

double SortedPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = static_cast<size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::string TelemetryToJson(const TelemetrySnapshot& snap) {
  auto number = [](double v) -> std::string {
    if (!std::isfinite(v)) return "null";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
  };
  std::ostringstream os;
  os << "{\n";
  os << "  \"requests\": " << snap.requests << ",\n";
  os << "  \"failures\": " << snap.failures << ",\n";
  os << "  \"degraded\": " << snap.degraded << ",\n";
  os << "  \"shed\": " << snap.shed << ",\n";
  os << "  \"rows_served\": " << snap.rows_served << ",\n";
  os << "  \"cells_imputed\": " << snap.cells_imputed << ",\n";
  os << "  \"cache_hits\": " << snap.cache_hits << ",\n";
  os << "  \"cache_misses\": " << snap.cache_misses << ",\n";
  os << "  \"busy_seconds\": " << number(snap.busy_seconds) << ",\n";
  os << "  \"wall_seconds\": " << number(snap.wall_seconds) << ",\n";
  os << "  \"latency_p50_ms\": " << number(snap.latency_p50_ms) << ",\n";
  os << "  \"latency_p95_ms\": " << number(snap.latency_p95_ms) << ",\n";
  os << "  \"latency_max_ms\": " << number(snap.latency_max_ms) << ",\n";
  os << "  \"requests_per_second\": " << number(snap.requests_per_second)
     << ",\n";
  os << "  \"rows_per_second\": " << number(snap.rows_per_second) << ",\n";
  os << "  \"cells_per_second\": " << number(snap.cells_per_second) << "\n";
  os << "}\n";
  return os.str();
}

std::string TelemetryToPrometheus(const TelemetrySnapshot& snap) {
  std::ostringstream os;
  obs::AppendPrometheusCounter(os, "dmvi_requests_total",
                               "Completed requests, including failures.",
                               snap.requests);
  obs::AppendPrometheusCounter(os, "dmvi_failures_total",
                               "Requests answered with a non-OK status.",
                               snap.failures);
  obs::AppendPrometheusCounter(
      os, "dmvi_degraded_total",
      "Requests answered by the degradation-ladder fallback imputer.",
      snap.degraded);
  obs::AppendPrometheusCounter(os, "dmvi_shed_total",
                               "Requests rejected at admission (503).",
                               snap.shed);
  obs::AppendPrometheusCounter(os, "dmvi_rows_served_total",
                               "Series rows carrying at least one imputed cell.",
                               snap.rows_served);
  obs::AppendPrometheusCounter(os, "dmvi_cells_imputed_total",
                               "Missing cells filled.", snap.cells_imputed);
  obs::AppendPrometheusCounter(os, "dmvi_cache_hits_total",
                               "Response-cache hits.", snap.cache_hits);
  obs::AppendPrometheusCounter(os, "dmvi_cache_misses_total",
                               "Response-cache misses.", snap.cache_misses);
  obs::AppendPrometheusHistogram(
      os, "dmvi_request_latency_seconds",
      "Request latency inside the service (admission through compute).",
      snap.latency_histogram);
  obs::AppendPrometheusGauge(os, "dmvi_busy_seconds",
                             "Sum of per-request latencies.",
                             snap.busy_seconds);
  obs::AppendPrometheusGauge(
      os, "dmvi_wall_seconds",
      "Seconds since the first recorded event after start or reset.",
      snap.wall_seconds);
  obs::AppendPrometheusGauge(os, "dmvi_requests_per_second",
                             "Request throughput over the wall-clock window.",
                             snap.requests_per_second);
  obs::AppendPrometheusGauge(os, "dmvi_request_latency_max_seconds",
                             "Largest observed request latency.",
                             snap.latency_max_ms / 1e3);
  return os.str();
}

}  // namespace serve
}  // namespace deepmvi
