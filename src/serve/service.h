#ifndef DEEPMVI_SERVE_SERVICE_H_
#define DEEPMVI_SERVE_SERVICE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "core/trained_deepmvi.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/quality_monitor.h"
#include "serve/response_cache.h"
#include "tensor/data_tensor.h"
#include "tensor/mask.h"

namespace deepmvi {
namespace serve {

/// The name the served model answers to on the wire (/healthz "models",
/// a request's "model", flight records). A trained DeepMVI answers only
/// the series universe it was fit on, so a service serves one model.
inline constexpr char kServedModelName[] = "default";

/// One imputation query: a dataset slice plus the availability mask whose
/// missing cells the served model should fill. The dataset is shared, not
/// copied — a replayed workload of N queries against one dataset must
/// hold O(dataset) memory, not N dense copies.
struct ImputationRequest {
  std::shared_ptr<const DataTensor> data;
  Mask mask;
  /// Correlation id stamped on every span this request produces (the HTTP
  /// layer echoes it as x-dmvi-request-id). Empty is fine: spans are then
  /// anonymous.
  std::string request_id;
};

/// The answer to one request. `status` is non-OK when no model is loaded,
/// on shape mismatches, or on internal failures; `imputed` is then empty.
struct ImputationResponse {
  Status status;
  Matrix imputed;
  /// Time spent inside Impute: admission, lookup, validation, and compute.
  double latency_seconds = 0.0;
  int64_t cells_imputed = 0;   // Missing cells filled.
  int64_t rows_touched = 0;    // Series rows with >= 1 filled cell.
  /// True when the degradation ladder answered with the cheap fallback
  /// imputer instead of the full model (overload admission control).
  bool degraded = false;
  /// The fallback that answered ("LinearInterp"); empty when the full
  /// model ran.
  std::string degrade_method;
  /// True when the response cache answered (bit-identical to recomputing;
  /// only the latency differs).
  bool cache_hit = false;
  /// Full-model Predict time; 0 on cache hits, fallback, and errors.
  double predict_seconds = 0.0;
};

/// Tuning knobs of the service.
struct ServiceConfig {
  /// Worker threads ImputeBatch fans over (<= 0: hardware concurrency).
  int threads = 0;
  /// Response cache budget in MB, keyed on (model load generation, data
  /// fingerprint, mask fingerprint). 0 disables caching — the default, so
  /// the determinism suites exercise the compute path and results never
  /// depend on cache state. Hits are bit-identical to recomputing (Predict is
  /// deterministic); they only change latency.
  double cache_mb = 0.0;
  /// Degradation ladder (0 disables a rung). The pressure an arriving
  /// request sees is the number of requests already in flight (not
  /// counting itself) plus whatever the pressure probe reports (dmvi_serve
  /// wires the HTTP accept queue in). At or above `degrade_watermark`, new
  /// requests are answered by LinearInterp instead of the model —
  /// accuracy traded for latency instead of stalling. At or above
  /// `shed_watermark`, new requests are rejected immediately with
  /// FailedPrecondition (the HTTP layer maps it to 503).
  int degrade_watermark = 0;
  int shed_watermark = 0;
  /// Optional metrics registry, borrowed (must outlive the service). It
  /// receives the serving counters (dmvi_*_total), the request-latency
  /// histogram, and the per-stage latency histograms (predict, cache
  /// probe, fallback); null makes the service record into a registry of
  /// its own. Per-request spans go to the process tracer
  /// (obs::GlobalTracer), like every other span in the tree.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional flight recorder, borrowed like the registry (null
  /// disables). Every completed request — including cache hits, degraded
  /// answers, and sheds — appends one RequestRecord; recording never
  /// touches response bytes, so the byte-identity bar holds with it on.
  /// This is the recorder's one wiring point: the /debug/requests and
  /// /debug/slow routes read it from here.
  obs::FlightRecorder* recorder = nullptr;
  /// Optional model-quality monitor, borrowed like the registry (null
  /// disables). Every validated request input is folded into the
  /// monitor's live distributions, and every Nth successful full-model
  /// predict triggers a masked self-scoring round on a side copy of the
  /// mask. Strictly read-only for serving: responses are cmp-identical
  /// with the monitor on or off. The /debug/quality, /healthz and
  /// /metrics routes read it from here.
  QualityMonitor* quality = nullptr;
};

/// The degradation ladder's rungs, in the order rising pressure walks
/// them. kOff means both watermarks are 0: every request gets the model.
enum class LadderRung { kOff, kFull, kDegrade, kShed };

/// The rung the ladder stands on at `pressure`: shedding beats degrading
/// beats the full model. Admission control and /healthz both read it.
LadderRung PickLadderRung(const ServiceConfig& config, int pressure);

/// Long-lived imputation service: owns the one served model and answers
/// each request on the calling thread. Requests share no compute, so
/// there is nothing to queue: the HTTP front-end calls Impute on its
/// worker, and ImputeBatch fans Impute over ParallelFor with
/// deterministic per-slot aggregation mirroring RunSuite
/// (src/eval/suite.cc) — results are bit-identical for any thread count
/// (Predict itself consumes no randomness). The service starts no thread.
///
/// Both entry points are thread-safe:
///  - Impute: one request, admitted through the degradation ladder.
///  - ImputeBatch: Impute over ParallelFor, responses in request order.
class ImputationService {
 public:
  explicit ImputationService(ServiceConfig config = {});
  ImputationService(const ImputationService&) = delete;
  ImputationService& operator=(const ImputationService&) = delete;

  const ServiceConfig& config() const { return config_; }

  /// The served model and the load generation it belongs to (1 for the
  /// first load, +1 per reload; 0 and a null model before any load).
  struct ServedModel {
    std::shared_ptr<const TrainedDeepMvi> model;
    int64_t generation = 0;
  };
  ServedModel served() const;

  /// Replaces the served model (a deployment update). A request holds the
  /// model it started with until it returns, so requests already running
  /// finish on the old weights, and the old model is freed when the last
  /// of them ends. Untrained models are FailedPrecondition.
  Status Swap(TrainedDeepMvi model);

  /// Loads a checkpoint (TrainedDeepMvi::Load) and swaps it in. A bad
  /// checkpoint returns its error and the current model keeps serving.
  Status Load(const std::string& path);

  /// Load accounting for /metrics and /debug/state.
  struct ReloadInfo {
    int64_t registrations = 0;  // Successful Swap/Load calls.
    int64_t reloads = 0;        // Those that replaced a served model.
    /// Seconds since the latest registration; -1 when none happened
    /// (0 would falsely read as "just loaded").
    double model_age_seconds = -1.0;
  };
  ReloadInfo reload_info() const;

  /// Answers one request on the calling thread. Admission control picks
  /// the ladder rung first: a shed request is answered FailedPrecondition
  /// at once, a degraded one by the fallback imputer.
  ImputationResponse Impute(const ImputationRequest& request);

  /// Answers a batch by fanning Impute over ParallelFor (config.threads);
  /// response i belongs to request i.
  std::vector<ImputationResponse> ImputeBatch(
      const std::vector<ImputationRequest>& requests);

  /// The response cache, or nullptr when cache_mb is 0. Exposed for stats
  /// reporting and tests.
  ResponseCache* response_cache() const { return cache_.get(); }

  /// Requests inside Impute right now (the service half of the overload
  /// pressure signal; /healthz reports it).
  int in_flight() const { return in_flight_.load(); }

  /// Extra backlog added to the watermark comparison in Impute — the HTTP
  /// front-end wires its accept-queue depth in so admission control sees
  /// connection pressure before those requests reach a worker. The probe
  /// must be thread-safe and must not call back into this service.
  void SetPressureProbe(std::function<int()> probe);

  /// in_flight() plus the pressure probe — the pressure the next arriving
  /// request would be admitted at (/healthz reports its ladder rung).
  int PressureDepth() const;

  /// The registry every serving metric is counted in: config.metrics when
  /// one is wired in, else the service's own. /metrics renders it.
  obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  /// What the pressure probe reports (0 without one).
  int ProbeDepth() const;

  /// Answers one admitted request (no request counters): takes the served
  /// model, validates, probes the cache, runs Predict. With `degrade`, the
  /// input is still validated against the model, but LinearInterp produces
  /// the answer (cache bypassed — fallback results must never alias model
  /// results). Exceptions become kInternal responses.
  ImputationResponse Process(const ImputationRequest& request, bool degrade);

  /// FingerprintData with a one-entry memo: the serving pattern shares one
  /// long-lived dataset across every request (workload replay, the HTTP
  /// front-end), so hashing O(series x times) bytes per request would make
  /// cache probes scale with dataset size instead of request size. The
  /// memo is keyed by the shared_ptr (liveness-checked, so a recycled
  /// address can't alias a dead dataset); a different dataset simply
  /// re-hashes.
  uint64_t MemoizedDataFingerprint(
      const std::shared_ptr<const DataTensor>& data);

  /// Appends the request's flight-recorder record (no-op without a
  /// recorder). `shed` marks admission-control rejections.
  void RecordFlight(const ImputationRequest& request,
                    const ImputationResponse& response, bool shed);

  const ServiceConfig config_;
  const Stopwatch clock_;
  mutable Mutex model_mutex_;
  std::shared_ptr<const TrainedDeepMvi> model_ DMVI_GUARDED_BY(model_mutex_);
  int64_t generation_ DMVI_GUARDED_BY(model_mutex_) = 0;
  double loaded_at_ DMVI_GUARDED_BY(model_mutex_) = 0.0;
  // Null when config_.metrics is wired in.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Instruments in metrics_, registered at construction so every family
  // is exported even while its count is zero.
  obs::Counter* requests_ = nullptr;
  obs::Counter* failures_ = nullptr;
  obs::Counter* degraded_ = nullptr;
  obs::Counter* shed_ = nullptr;
  obs::Counter* rows_served_ = nullptr;
  obs::Counter* cells_imputed_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Histogram* request_latency_ = nullptr;
  obs::Histogram* stage_predict_ = nullptr;
  obs::Histogram* stage_cache_probe_ = nullptr;
  obs::Histogram* stage_fallback_ = nullptr;
  std::unique_ptr<ResponseCache> cache_;  // Null when cache_mb is 0.
  Mutex fingerprint_mutex_;
  std::weak_ptr<const DataTensor> fingerprinted_data_
      DMVI_GUARDED_BY(fingerprint_mutex_);
  uint64_t fingerprint_value_ DMVI_GUARDED_BY(fingerprint_mutex_) = 0;

  std::atomic<int> in_flight_{0};
  mutable Mutex probe_mutex_;
  std::function<int()> pressure_probe_ DMVI_GUARDED_BY(probe_mutex_);
};

}  // namespace serve
}  // namespace deepmvi

#endif  // DEEPMVI_SERVE_SERVICE_H_
