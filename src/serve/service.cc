#include "serve/service.h"

#include <exception>
#include <utility>

#include "baselines/simple.h"
#include "common/parallel.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace deepmvi {
namespace serve {
namespace {

/// Series rows carrying at least one missing (= imputed) cell.
int64_t CountRowsTouched(const Mask& mask) {
  int64_t rows = 0;
  for (int r = 0; r < mask.rows(); ++r) {
    for (int t = 0; t < mask.cols(); ++t) {
      if (mask.missing(r, t)) {
        ++rows;
        break;
      }
    }
  }
  return rows;
}

}  // namespace

LadderRung PickLadderRung(const ServiceConfig& config, int pressure) {
  if (config.shed_watermark > 0 && pressure >= config.shed_watermark) {
    return LadderRung::kShed;
  }
  if (config.degrade_watermark > 0 && pressure >= config.degrade_watermark) {
    return LadderRung::kDegrade;
  }
  if (config.shed_watermark > 0 || config.degrade_watermark > 0) {
    return LadderRung::kFull;
  }
  return LadderRung::kOff;
}

ImputationService::ImputationService(ServiceConfig config)
    : config_(config) {
  if (config_.cache_mb > 0.0) {
    cache_ = std::make_unique<ResponseCache>(
        static_cast<int64_t>(config_.cache_mb * 1024.0 * 1024.0));
  }
  metrics_ = config_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  requests_ = metrics_->CounterNamed("dmvi_requests_total",
                                     "Completed requests, including failures.");
  failures_ = metrics_->CounterNamed("dmvi_failures_total",
                                     "Requests answered with a non-OK status.");
  degraded_ = metrics_->CounterNamed(
      "dmvi_degraded_total",
      "Requests answered by the degradation-ladder fallback imputer.");
  shed_ = metrics_->CounterNamed("dmvi_shed_total",
                                 "Requests rejected at admission (503).");
  rows_served_ = metrics_->CounterNamed(
      "dmvi_rows_served_total",
      "Series rows carrying at least one imputed cell.");
  cells_imputed_ =
      metrics_->CounterNamed("dmvi_cells_imputed_total", "Missing cells filled.");
  cache_hits_ =
      metrics_->CounterNamed("dmvi_cache_hits_total", "Response-cache hits.");
  cache_misses_ = metrics_->CounterNamed("dmvi_cache_misses_total",
                                         "Response-cache misses.");
  request_latency_ = metrics_->HistogramNamed(
      "dmvi_request_latency_seconds",
      "Request latency inside the service (admission through compute).");
  stage_predict_ = metrics_->HistogramNamed(
      "dmvi_stage_predict_seconds", "Full-model Predict time per request.");
  stage_cache_probe_ = metrics_->HistogramNamed(
      "dmvi_stage_cache_probe_seconds",
      "Response-cache lookup time per probed request.");
  stage_fallback_ = metrics_->HistogramNamed(
      "dmvi_stage_fallback_seconds",
      "Degraded-mode fallback imputer time per request.");
}

ImputationService::ServedModel ImputationService::served() const {
  MutexLock lock(&model_mutex_);
  return {model_, generation_};
}

Status ImputationService::Swap(TrainedDeepMvi model) {
  if (!model.trained()) {
    return Status::FailedPrecondition("cannot serve an untrained model");
  }
  auto holder = std::make_shared<const TrainedDeepMvi>(std::move(model));
  MutexLock lock(&model_mutex_);
  // The replaced model is freed here, or by the last request holding it.
  model_ = std::move(holder);
  ++generation_;
  loaded_at_ = clock_.ElapsedSeconds();
  return Status::OK();
}

Status ImputationService::Load(const std::string& path) {
  StatusOr<TrainedDeepMvi> model = TrainedDeepMvi::Load(path);
  if (!model.ok()) return model.status();
  return Swap(std::move(model).value());
}

ImputationService::ReloadInfo ImputationService::reload_info() const {
  MutexLock lock(&model_mutex_);
  ReloadInfo info;
  info.registrations = generation_;
  if (generation_ > 0) {
    info.reloads = generation_ - 1;
    info.model_age_seconds = clock_.ElapsedSeconds() - loaded_at_;
  }
  return info;
}

ImputationResponse ImputationService::Process(const ImputationRequest& request,
                                              bool degrade) {
  obs::ProfileLabelScope profile_label("service.process");
  obs::Span span = obs::GlobalSpan("service.process");
  if (span.active() && !request.request_id.empty()) {
    span.set_request_id(request.request_id);
  }
  ImputationResponse response;
  try {
    // Held until this request returns: a concurrent Swap cannot free the
    // weights it predicts with.
    const ServedModel served = this->served();
    if (served.model == nullptr) {
      response.status = Status::FailedPrecondition("no model is loaded");
      return response;
    }
    const TrainedDeepMvi& model = *served.model;
    if (request.data == nullptr) {
      response.status = Status::InvalidArgument("request carries no dataset");
      return response;
    }
    response.status = model.ValidateInput(*request.data, request.mask);
    if (!response.status.ok()) return response;

    // Quality monitoring folds the validated input into the model's live
    // distributions. Strictly observational: nothing below reads monitor
    // state, so responses are byte-identical with the monitor off.
    if (config_.quality != nullptr) {
      config_.quality->ObserveInput(model, served.generation, *request.data,
                                    request.mask);
    }

    if (degrade) {
      // Overloaded: answer with the cheap fallback imputer. The request
      // still went through the same lookup + validation, so error
      // behavior is identical; only the fill values differ. The cache is
      // bypassed in both directions — a fallback answer must never be
      // served later as a model answer or vice versa.
      {
        obs::Span fallback_span = obs::GlobalSpan("degrade.fallback");
        if (fallback_span.active()) {
          fallback_span.set_request_id(request.request_id);
        }
        Stopwatch fallback_watch;
        response.imputed =
            LinearInterpolationImputer().Impute(*request.data, request.mask);
        stage_fallback_->Observe(fallback_watch.ElapsedSeconds());
      }
      response.degraded = true;
      response.degrade_method = "LinearInterp";
      response.cells_imputed = request.mask.CountMissing();
      response.rows_touched = CountRowsTouched(request.mask);
      degraded_->Increment();
      return response;
    }

    // Cache probe: the load generation names one immutable set of
    // weights, so a hit is bit-identical to recomputing.
    uint64_t data_fp = 0, mask_fp = 0;
    if (cache_ != nullptr) {
      obs::Span probe_span = obs::GlobalSpan("cache.probe");
      if (probe_span.active()) probe_span.set_request_id(request.request_id);
      Stopwatch probe_watch;
      data_fp = MemoizedDataFingerprint(request.data);
      mask_fp = FingerprintMask(request.mask);
      const ResponseCache::ValuePtr hit =
          cache_->Get({served.generation, data_fp, mask_fp});
      stage_cache_probe_->Observe(probe_watch.ElapsedSeconds());
      if (probe_span.active()) {
        probe_span.AddArg("hit", hit != nullptr ? "true" : "false");
      }
      if (hit != nullptr) {
        cache_hits_->Increment();
        response.cache_hit = true;
        response.imputed = hit->imputed;
        response.cells_imputed = hit->cells_imputed;
        response.rows_touched = hit->rows_touched;
        return response;
      }
      cache_misses_->Increment();
    }

    {
      obs::Span predict_span = obs::GlobalSpan("model.predict");
      if (predict_span.active()) predict_span.set_request_id(request.request_id);
      Stopwatch predict_watch;
      response.imputed = model.Predict(*request.data, request.mask);
      response.predict_seconds = predict_watch.ElapsedSeconds();
      stage_predict_->Observe(response.predict_seconds);
    }
    response.cells_imputed = request.mask.CountMissing();
    response.rows_touched = CountRowsTouched(request.mask);
    if (cache_ != nullptr) {
      const int64_t bytes = static_cast<int64_t>(sizeof(CachedResponse)) +
                            response.imputed.size() *
                                static_cast<int64_t>(sizeof(double));
      cache_->Insert({served.generation, data_fp, mask_fp},
                     std::make_shared<const CachedResponse>(CachedResponse{
                         response.imputed, response.cells_imputed,
                         response.rows_touched}),
                     bytes);
    }
    // Masked self-scoring rides every Nth successful full-model predict
    // (cache hits, degraded answers, and errors returned above). Seeded
    // from the request fingerprints so a replayed request hides the same
    // cells; the response is already complete and is never touched.
    if (config_.quality != nullptr && config_.quality->SelfScoreDue()) {
      obs::Span score_span = obs::GlobalSpan("quality.selfscore");
      if (score_span.active()) score_span.set_request_id(request.request_id);
      const uint64_t seed =
          MemoizedDataFingerprint(request.data) ^
          (FingerprintMask(request.mask) * 0x9E3779B97F4A7C15ULL);
      config_.quality->SelfScore(model, served.generation, request.data,
                                 request.mask, seed, request.request_id);
    }
  } catch (const std::exception& e) {
    response.status = Status::Internal(e.what());
    response.imputed = Matrix();
  }
  return response;
}

uint64_t ImputationService::MemoizedDataFingerprint(
    const std::shared_ptr<const DataTensor>& data) {
  {
    MutexLock lock(&fingerprint_mutex_);
    // lock() proves the memoized dataset is still alive, so its address
    // cannot have been recycled for a different tensor.
    if (fingerprinted_data_.lock() == data) return fingerprint_value_;
  }
  const uint64_t fingerprint = FingerprintData(*data);
  MutexLock lock(&fingerprint_mutex_);
  fingerprinted_data_ = data;
  fingerprint_value_ = fingerprint;
  return fingerprint;
}

void ImputationService::RecordFlight(const ImputationRequest& request,
                                     const ImputationResponse& response,
                                     bool shed) {
  if (config_.recorder == nullptr) return;
  obs::RequestRecord record;
  record.request_id = request.request_id;
  record.model = kServedModelName;
  record.status = response.status.ToString();
  record.ok = response.status.ok();
  record.latency_seconds = response.latency_seconds;
  record.predict_seconds = response.predict_seconds;
  record.cells_imputed = response.cells_imputed;
  record.cache_hit = response.cache_hit;
  record.degraded = response.degraded;
  record.degrade_method = response.degrade_method;
  record.shed = shed;
  config_.recorder->Record(std::move(record));
}

ImputationResponse ImputationService::Impute(const ImputationRequest& request) {
  Stopwatch watch;
  // Admission control. fetch_add returns the requests already in flight,
  // so a request never counts itself and racing arrivals each see a
  // distinct count.
  const int ahead = in_flight_.fetch_add(1);
  const LadderRung rung = PickLadderRung(config_, ahead + ProbeDepth());
  ImputationResponse response;
  if (rung == LadderRung::kShed) {
    response.status = Status::FailedPrecondition(
        "overloaded: pressure depth crossed the shed watermark (" +
        std::to_string(config_.shed_watermark) + "); retry later");
    shed_->Increment();
  } else {
    response = Process(request, rung == LadderRung::kDegrade);
  }
  in_flight_.fetch_sub(1);
  response.latency_seconds = watch.ElapsedSeconds();
  requests_->Increment();
  if (!response.status.ok()) failures_->Increment();
  rows_served_->Increment(response.rows_touched);
  cells_imputed_->Increment(response.cells_imputed);
  // The request id becomes the latency bucket's exemplar, so /metrics
  // links slow buckets to replayable requests.
  request_latency_->ObserveWithExemplar(response.latency_seconds,
                                        request.request_id);
  RecordFlight(request, response, rung == LadderRung::kShed);
  return response;
}

std::vector<ImputationResponse> ImputationService::ImputeBatch(
    const std::vector<ImputationRequest>& requests) {
  // Pre-allocated slots: worker i writes response i only, so the aggregate
  // is identical to a serial run regardless of scheduling (the RunSuite
  // pattern).
  std::vector<ImputationResponse> responses(requests.size());
  ParallelFor(static_cast<int>(requests.size()), config_.threads,
              [&](int i) { responses[i] = Impute(requests[i]); });
  return responses;
}

void ImputationService::SetPressureProbe(std::function<int()> probe) {
  MutexLock lock(&probe_mutex_);
  pressure_probe_ = std::move(probe);
}

int ImputationService::ProbeDepth() const {
  std::function<int()> probe;
  {
    MutexLock lock(&probe_mutex_);
    probe = pressure_probe_;
  }
  // The probe runs outside probe_mutex_ — it may take its own locks (the
  // HTTP server's accept queue).
  return probe ? probe() : 0;
}

int ImputationService::PressureDepth() const {
  return in_flight() + ProbeDepth();
}

}  // namespace serve
}  // namespace deepmvi
