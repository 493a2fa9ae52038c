#ifndef DEEPMVI_OBS_FLIGHT_RECORDER_H_
#define DEEPMVI_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"

namespace deepmvi {
namespace obs {

/// One completed request, as the flight recorder remembers it: enough to
/// answer "what just went through this server and how did each request
/// fare" from a live process, without a trace export round-trip.
struct RequestRecord {
  std::string request_id;
  std::string model;
  /// "OK" or the Status rendering ("NotFound: no model ...").
  std::string status;
  bool ok = true;
  double latency_seconds = 0.0;   // Time inside the service.
  double predict_seconds = 0.0;   // Full-model Predict time; 0 otherwise.
  int64_t cells_imputed = 0;
  bool cache_hit = false;
  bool degraded = false;          // Answered by the fallback imputer.
  std::string degrade_method;     // Fallback name when degraded.
  bool shed = false;              // Rejected at admission (503).
  /// Seconds since the recorder was created, stamped by Record — a
  /// monotonic in-process timeline for ordering and age math.
  double completed_seconds = 0.0;
  /// Wall-clock completion time (unix epoch seconds, system clock),
  /// stamped by Record alongside completed_seconds so ring entries can
  /// be correlated with logs and external systems. Rendered in JSON both
  /// raw ("unix_seconds") and as ISO-8601 UTC ("time").
  double unix_seconds = 0.0;
};

/// Bounded ring of the last `capacity` completed requests plus a second
/// ring of requests slower than `slow_threshold_seconds` — the always-on
/// crash-cart view behind GET /debug/requests and /debug/slow. Appends
/// are a mutex-guarded slot write (strings moved, never copied), cheap
/// enough to leave enabled in production; memory is bounded by the two
/// capacities regardless of traffic.
class FlightRecorder {
 public:
  static constexpr int kDefaultCapacity = 256;
  static constexpr int kDefaultSlowCapacity = 64;
  static constexpr double kDefaultSlowThresholdSeconds = 0.5;

  explicit FlightRecorder(
      int capacity = kDefaultCapacity,
      double slow_threshold_seconds = kDefaultSlowThresholdSeconds,
      int slow_capacity = kDefaultSlowCapacity);

  /// Appends one completed request (stamping completed_seconds); also
  /// mirrors it into the slow ring when latency_seconds reaches the
  /// threshold. Thread-safe.
  void Record(RequestRecord record);

  /// The retained records, oldest first. A point-in-time copy: renderers
  /// never hold the recorder's lock while formatting.
  std::vector<RequestRecord> Snapshot() const;

  /// The retained slow records, oldest first.
  std::vector<RequestRecord> SlowSnapshot() const;

  /// All-time appended count (retained or since overwritten).
  int64_t total_recorded() const;
  /// All-time slow count.
  int64_t total_slow() const;

  int capacity() const { return capacity_; }
  double slow_threshold_seconds() const { return slow_threshold_seconds_; }

 private:
  /// Oldest-first read of one ring given its all-time append count.
  static std::vector<RequestRecord> UnrollRing(
      const std::vector<RequestRecord>& ring, int64_t total, int capacity);

  const int capacity_;
  const double slow_threshold_seconds_;
  const int slow_capacity_;
  const Stopwatch clock_;  // completed_seconds epoch.

  mutable Mutex mutex_;
  std::vector<RequestRecord> ring_ DMVI_GUARDED_BY(mutex_);
  int64_t total_ DMVI_GUARDED_BY(mutex_) = 0;
  std::vector<RequestRecord> slow_ring_ DMVI_GUARDED_BY(mutex_);
  int64_t slow_total_ DMVI_GUARDED_BY(mutex_) = 0;
};

/// Renders records as a JSON array (oldest first), one object per record
/// with the RequestRecord fields — the payload of the /debug endpoints.
std::string FlightRecordsJson(const std::vector<RequestRecord>& records);

}  // namespace obs
}  // namespace deepmvi

#endif  // DEEPMVI_OBS_FLIGHT_RECORDER_H_
