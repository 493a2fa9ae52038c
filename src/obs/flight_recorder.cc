#include "obs/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sstream>
#include <utility>

#include "common/json_escape.h"
#include "common/logging.h"

namespace deepmvi {
namespace obs {
namespace {

void AppendNumber(std::ostringstream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
    return;
  }
  os << value;
}

/// ISO-8601 UTC rendering of a unix-epoch timestamp with millisecond
/// precision ("2026-08-07T12:34:56.789Z"); empty for unset/invalid
/// stamps so records built by hand (tests) stay renderable.
std::string IsoUtc(double unix_seconds) {
  if (!std::isfinite(unix_seconds) || unix_seconds <= 0.0) return "";
  const time_t whole = static_cast<time_t>(unix_seconds);
  std::tm parts{};
  if (gmtime_r(&whole, &parts) == nullptr) return "";
  const int millis = std::min(
      999, static_cast<int>((unix_seconds - static_cast<double>(whole)) * 1e3));
  // Sized for seven worst-case ints (11 chars each) plus the separators,
  // so the compiler can prove the rendering never truncates.
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                parts.tm_year + 1900, parts.tm_mon + 1, parts.tm_mday,
                parts.tm_hour, parts.tm_min, parts.tm_sec, millis);
  return buffer;
}

}  // namespace

FlightRecorder::FlightRecorder(int capacity, double slow_threshold_seconds,
                               int slow_capacity)
    : capacity_(capacity),
      slow_threshold_seconds_(slow_threshold_seconds),
      slow_capacity_(slow_capacity) {
  DMVI_CHECK_GT(capacity_, 0);
  DMVI_CHECK_GT(slow_capacity_, 0);
  MutexLock lock(&mutex_);
  ring_.resize(static_cast<size_t>(capacity_));
  slow_ring_.resize(static_cast<size_t>(slow_capacity_));
}

void FlightRecorder::Record(RequestRecord record) {
  record.completed_seconds = clock_.ElapsedSeconds();
  record.unix_seconds =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const bool slow = slow_threshold_seconds_ > 0.0 &&
                    record.latency_seconds >= slow_threshold_seconds_;
  MutexLock lock(&mutex_);
  const size_t slot = static_cast<size_t>(total_ % capacity_);
  ++total_;
  if (slow) {
    const size_t slow_slot = static_cast<size_t>(slow_total_ % slow_capacity_);
    ++slow_total_;
    slow_ring_[slow_slot] = record;  // Copy: the main ring gets the move.
  }
  ring_[slot] = std::move(record);
}

std::vector<RequestRecord> FlightRecorder::UnrollRing(
    const std::vector<RequestRecord>& ring, int64_t total, int capacity) {
  std::vector<RequestRecord> out;
  const int64_t retained = std::min<int64_t>(total, capacity);
  out.reserve(static_cast<size_t>(retained));
  for (int64_t i = total - retained; i < total; ++i) {
    out.push_back(ring[static_cast<size_t>(i % capacity)]);
  }
  return out;
}

std::vector<RequestRecord> FlightRecorder::Snapshot() const {
  MutexLock lock(&mutex_);
  return UnrollRing(ring_, total_, capacity_);
}

std::vector<RequestRecord> FlightRecorder::SlowSnapshot() const {
  MutexLock lock(&mutex_);
  return UnrollRing(slow_ring_, slow_total_, slow_capacity_);
}

int64_t FlightRecorder::total_recorded() const {
  MutexLock lock(&mutex_);
  return total_;
}

int64_t FlightRecorder::total_slow() const {
  MutexLock lock(&mutex_);
  return slow_total_;
}

std::string FlightRecordsJson(const std::vector<RequestRecord>& records) {
  std::ostringstream os;
  // 15 significant digits: unix-epoch stamps need ~13 for millisecond
  // resolution; latencies render the same up to harmless extra digits.
  os.precision(15);
  os << "[";
  bool first = true;
  for (const RequestRecord& record : records) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "  {\"request_id\": \"" << EscapeJson(record.request_id)
       << "\", \"model\": \"" << EscapeJson(record.model)
       << "\", \"status\": \"" << EscapeJson(record.status)
       << "\", \"ok\": " << (record.ok ? "true" : "false")
       << ", \"latency_seconds\": ";
    AppendNumber(os, record.latency_seconds);
    os << ", \"predict_seconds\": ";
    AppendNumber(os, record.predict_seconds);
    os << ", \"cells_imputed\": " << record.cells_imputed
       << ", \"cache_hit\": " << (record.cache_hit ? "true" : "false")
       << ", \"degraded\": " << (record.degraded ? "true" : "false")
       << ", \"degrade_method\": \""
       << EscapeJson(record.degrade_method)
       << "\", \"shed\": " << (record.shed ? "true" : "false")
       << ", \"completed_seconds\": ";
    AppendNumber(os, record.completed_seconds);
    os << ", \"unix_seconds\": ";
    AppendNumber(os, record.unix_seconds);
    os << ", \"time\": \"" << IsoUtc(record.unix_seconds) << "\"}";
  }
  os << (first ? "]\n" : "\n]\n");
  return os.str();
}

}  // namespace obs
}  // namespace deepmvi
