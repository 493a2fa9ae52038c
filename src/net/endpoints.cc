#include "net/endpoints.h"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <utility>

#include "common/json_escape.h"
#include "common/stopwatch.h"
#include "net/codec.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/workload.h"
#include "tensor/matmul_kernel.h"

namespace deepmvi {
namespace net {
namespace {

HttpMessage ErrorResponse(const Status& status) {
  return MakeResponse(HttpStatusFor(status), EncodeErrorJson(status),
                      "application/json");
}

HttpMessage HandleImpute(const ServingContext& ctx,
                         const HttpMessage& request) {
  const std::string& request_id = request.Header("x-request-id");
  obs::MetricsRegistry& metrics = ctx.service->metrics();
  obs::Histogram* stage_decode = metrics.HistogramNamed(
      "dmvi_stage_decode_seconds",
      "Impute request body decode time per request.");
  obs::Histogram* stage_encode = metrics.HistogramNamed(
      "dmvi_stage_encode_seconds",
      "Impute response body encode time per request.");

  Stopwatch decode_watch;
  StatusOr<ImputeApiRequest> decoded = [&] {
    obs::Span decode_span = obs::GlobalSpan("impute.decode");
    if (decode_span.active()) decode_span.set_request_id(request_id);
    return DecodeImputeRequest(request);
  }();
  stage_decode->Observe(decode_watch.ElapsedSeconds());
  if (!decoded.ok()) return ErrorResponse(decoded.status());
  const ImputeApiRequest& api = *decoded;

  serve::ImputationRequest impute;
  impute.model = api.model;
  impute.request_id = request_id;
  if (api.has_inline_data) {
    impute.data = std::make_shared<const DataTensor>(
        DataTensor::FromMatrix(api.inline_values));
    impute.mask = api.inline_mask;
  } else {
    if (ctx.data == nullptr) {
      return ErrorResponse(Status::FailedPrecondition(
          "no dataset is being served; send inline 'values'"));
    }
    impute.data = ctx.data;
    if (api.has_query) {
      // ApplyQuery would skip a row outside the mask and clip the block,
      // answering with the base imputation as if nothing were hidden.
      if (Status range = serve::CheckQueryInRange(
              api.query, ctx.data->num_series(), ctx.data->num_times());
          !range.ok()) {
        return ErrorResponse(range);
      }
      impute.mask = serve::ApplyQuery(ctx.base_mask, api.query);
    } else {
      impute.mask = ctx.base_mask;
    }
  }

  // Imputed right here on the HTTP worker: service.process nests under
  // this thread's http.handle span.
  serve::ImputationResponse response = ctx.service->Impute(impute);
  if (!response.status.ok()) return ErrorResponse(response.status);

  Stopwatch encode_watch;
  HttpMessage reply;
  {
    obs::Span encode_span = obs::GlobalSpan("impute.encode");
    if (encode_span.active()) encode_span.set_request_id(request_id);
    if (api.csv_response) {
      reply = MakeResponse(
          200, EncodeImputedCsv(impute.data->dims(), response.imputed),
          "text/csv");
    } else {
      reply = MakeResponse(200, EncodeImputedJson(response, impute.mask),
                           "application/json");
    }
  }
  stage_encode->Observe(encode_watch.ElapsedSeconds());
  // The degradation marker rides a header too so CSV responses (whose body
  // must stay byte-identical to the dataset format) still carry it.
  if (response.degraded) {
    reply.SetHeader("x-dmvi-degraded", response.degrade_method);
  }
  return reply;
}

/// Overall quality rung for /healthz and /debug/quality: "off" without a
/// monitor, "no-reference" when no observed model carries a training
/// profile (legacy checkpoints), else "ok"/"drifting" against the
/// context's PSI threshold.
const char* QualityStatus(const serve::QualitySnapshot& snapshot,
                          double drift_threshold, bool have_monitor) {
  if (!have_monitor) return "off";
  if (snapshot.max_drift_score < 0.0) return "no-reference";
  return snapshot.max_drift_score >= drift_threshold ? "drifting" : "ok";
}

HttpMessage HandleDebugQuality(const ServingContext& ctx) {
  const serve::QualityMonitor* monitor = ctx.service->config().quality;
  if (monitor == nullptr) {
    return ErrorResponse(
        Status::FailedPrecondition("no quality monitor is configured"));
  }
  const serve::QualitySnapshot snapshot = monitor->Snapshot();
  std::ostringstream os;
  os.precision(9);
  os << "{\n";
  os << "  \"drift_threshold\": " << ctx.drift_threshold << ",\n";
  os << "  \"quality\": \""
     << QualityStatus(snapshot, ctx.drift_threshold, true) << "\",\n";
  os << "  \"models\": [";
  bool first_model = true;
  for (const serve::ModelQualitySnapshot& model : snapshot.models) {
    os << (first_model ? "\n" : ",\n");
    first_model = false;
    const char* status = !model.has_reference
                             ? "no-reference"
                             : (model.drift_score >= ctx.drift_threshold
                                    ? "drifting"
                                    : "ok");
    os << "    {\"model\": \"" << EscapeJson(model.model) << "\",\n";
    os << "     \"status\": \"" << status << "\",\n";
    os << "     \"has_reference\": "
       << (model.has_reference ? "true" : "false") << ",\n";
    os << "     \"requests_observed\": " << model.requests_observed << ",\n";
    os << "     \"cells_observed\": " << model.cells_observed << ",\n";
    os << "     \"cells_missing\": " << model.cells_missing << ",\n";
    os << "     \"input_missing_rate\": " << model.input_missing_rate
       << ",\n";
    os << "     \"reference_missing_rate\": "
       << model.reference_missing_rate << ",\n";
    os << "     \"drift_score\": " << model.drift_score << ",\n";
    os << "     \"drift_ks\": " << model.drift_ks << ",\n";
    os << "     \"series_scored\": " << model.series_scored << ",\n";
    os << "     \"series\": [";
    bool first_series = true;
    for (const serve::SeriesDriftInfo& series : model.series) {
      os << (first_series ? "" : ", ") << "{\"series\": " << series.series
         << ", \"psi\": " << series.psi << ", \"ks\": " << series.ks
         << ", \"live_count\": " << series.live_count
         << ", \"ref_mean\": " << series.ref_mean
         << ", \"live_mean\": " << series.live_mean << ", \"scored\": "
         << (series.scored ? "true" : "false") << "}";
      first_series = false;
    }
    os << "],\n";
    os << "     \"selfscore\": {\"rounds\": " << model.selfscore_rounds
       << ", \"cells\": " << model.selfscore_cells
       << ", \"mae_mean\": " << model.selfscore_mae_mean
       << ", \"rmse_mean\": " << model.selfscore_rmse_mean
       << ", \"history\": [";
    bool first_record = true;
    for (const serve::SelfScoreRecord& record : model.selfscore_history) {
      os << (first_record ? "" : ", ") << "{\"request_id\": \""
         << EscapeJson(record.request_id) << "\", \"cells\": " << record.cells
         << ", \"mae\": " << record.mae << ", \"rmse\": " << record.rmse
         << ", \"at_seconds\": " << record.at_seconds << "}";
      first_record = false;
    }
    os << "]}}";
  }
  os << (first_model ? "]\n" : "\n  ]\n") << "}\n";
  return MakeResponse(200, os.str(), "application/json");
}

HttpMessage HandleHealthz(const ServingContext& ctx,
                          const HttpServer* server) {
  const serve::ServiceConfig& config = ctx.service->config();
  const int in_flight = ctx.service->in_flight();
  const int pending = server != nullptr ? server->pending_connections() : 0;
  // The rung the next arriving request would be admitted on.
  const char* degradation = "off";
  switch (serve::PickLadderRung(config, ctx.service->PressureDepth())) {
    case serve::LadderRung::kOff:
      break;
    case serve::LadderRung::kFull:
      degradation = "ready";
      break;
    case serve::LadderRung::kDegrade:
      degradation = "degrading";
      break;
    case serve::LadderRung::kShed:
      degradation = "shedding";
      break;
  }

  std::ostringstream os;
  os << "{\n  \"status\": \"ok\",\n  \"models\": [";
  bool first = true;
  for (const std::string& name : ctx.service->registry().Names()) {
    os << (first ? "" : ", ") << "\"" << EscapeJson(name) << "\"";
    first = false;
  }
  os << "],\n";
  os << "  \"num_series\": " << (ctx.data ? ctx.data->num_series() : 0)
     << ",\n";
  os << "  \"num_times\": " << (ctx.data ? ctx.data->num_times() : 0)
     << ",\n";
  os << "  \"in_flight\": " << in_flight << ",\n";
  os << "  \"pending_connections\": " << pending << ",\n";
  os << "  \"degrade_watermark\": " << config.degrade_watermark << ",\n";
  os << "  \"shed_watermark\": " << config.shed_watermark << ",\n";
  os << "  \"degradation\": \"" << degradation << "\",\n";
  // Model-quality rung: live drift against the training reference.
  const char* quality = "off";
  if (config.quality != nullptr) {
    quality = QualityStatus(config.quality->Snapshot(), ctx.drift_threshold,
                            true);
  }
  os << "  \"drift_threshold\": " << ctx.drift_threshold << ",\n";
  os << "  \"quality\": \"" << quality << "\"\n";
  os << "}\n";
  return MakeResponse(200, os.str(), "application/json");
}

/// Integer query parameter with a default and clamping — the /debug
/// routes take small operator-typed numbers, so out-of-range input snaps
/// to the nearest bound instead of failing the request.
int IntQueryParameter(const HttpMessage& request, const std::string& key,
                      int fallback, int lo, int hi) {
  const std::string text = QueryParameter(request.target, key);
  if (text.empty()) return fallback;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return fallback;
  if (value < lo) return lo;
  if (value > hi) return hi;
  return static_cast<int>(value);
}

HttpMessage HandleDebugProfile(const HttpMessage& request) {
  const int seconds = IntQueryParameter(request, "seconds", 2, 1, 30);
  const int hz = IntQueryParameter(request, "hz", obs::CpuProfiler::kDefaultHz,
                                   1, obs::CpuProfiler::kMaxHz);
  Status started = obs::CpuProfiler::Start(hz);
  if (!started.ok()) return ErrorResponse(started);
  // Blocking this worker for the window is the point: the endpoint is an
  // operator tool, and the remaining workers keep serving traffic — which
  // is exactly what the profile observes.
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  obs::ProfileResult profile = obs::CpuProfiler::Stop();
  HttpMessage reply =
      MakeResponse(200, std::move(profile.collapsed), "text/plain");
  // The window's vitals ride headers so the body stays pure collapsed
  // stacks (pipe it straight into flamegraph.pl).
  reply.SetHeader("x-dmvi-profile-samples", std::to_string(profile.samples));
  reply.SetHeader("x-dmvi-profile-dropped", std::to_string(profile.dropped));
  reply.SetHeader("x-dmvi-profile-hz", std::to_string(profile.hz));
  reply.SetHeader("x-dmvi-profile-seconds",
                  std::to_string(profile.duration_seconds));
  return reply;
}

HttpMessage HandleDebugRequests(const ServingContext& ctx, bool slow_only) {
  const obs::FlightRecorder* recorder = ctx.service->config().recorder;
  if (recorder == nullptr) {
    return ErrorResponse(
        Status::FailedPrecondition("no flight recorder is configured"));
  }
  std::ostringstream os;
  os.precision(9);
  os << "{\n  \"slow_threshold_seconds\": "
     << recorder->slow_threshold_seconds()
     << ",\n  \"capacity\": " << recorder->capacity()
     << ",\n  \"total_recorded\": " << recorder->total_recorded()
     << ",\n  \"total_slow\": " << recorder->total_slow()
     << ",\n  \"records\": "
     << obs::FlightRecordsJson(slow_only ? recorder->SlowSnapshot()
                                         : recorder->Snapshot())
     << "}\n";
  return MakeResponse(200, os.str(), "application/json");
}

/// Refreshes the dmvi_process_* gauges from /proc/self; registration is
/// idempotent, so the scrape and /debug/state paths share the names.
void RefreshProcessGauges(obs::MetricsRegistry& metrics,
                          const obs::ProcessStats& stats) {
  if (!stats.ok) return;
  metrics
      .GaugeNamed("dmvi_process_resident_bytes",
                  "Resident set size of the serving process.")
      ->Set(stats.rss_bytes);
  metrics
      .GaugeNamed("dmvi_process_cpu_seconds",
                  "User plus system CPU time consumed by the process.")
      ->Set(stats.cpu_seconds);
  metrics
      .GaugeNamed("dmvi_process_open_fds",
                  "Open file descriptors in the serving process.")
      ->Set(static_cast<double>(stats.open_fds));
}

HttpMessage HandleDebugState(const ServingContext& ctx) {
  const obs::ProcessStats stats = obs::ReadProcessStats();
  RefreshProcessGauges(ctx.service->metrics(), stats);
  std::ostringstream os;
  os.precision(9);
  os << "{\n";
  os << "  \"build_commit\": \"" << EscapeJson(ctx.build_commit) << "\",\n";
  os << "  \"uptime_seconds\": " << ctx.started.ElapsedSeconds() << ",\n";
  os << "  \"pid\": " << ::getpid() << ",\n";
  os << "  \"profiler_running\": "
     << (obs::CpuProfiler::IsRunning() ? "true" : "false") << ",\n";
  // The GEMM kernel set this CPU runs: "portable" explains a Predict
  // slower than on an AVX2 host.
  os << "  \"gemm_kernels\": \"" << internal::ActiveMatMulKernelSet().name
     << "\",\n";
  os << "  \"process_stats_ok\": " << (stats.ok ? "true" : "false") << ",\n";
  os << "  \"rss_bytes\": " << stats.rss_bytes << ",\n";
  os << "  \"cpu_seconds\": " << stats.cpu_seconds << ",\n";
  os << "  \"open_fds\": " << stats.open_fds << ",\n";
  const serve::ModelRegistry::ReloadInfo reloads =
      ctx.service->registry().reload_info();
  os << "  \"model_registrations\": " << reloads.registrations << ",\n";
  os << "  \"model_reloads\": " << reloads.reloads << ",\n";
  os << "  \"last_registered_model\": \"" << EscapeJson(reloads.last_model)
     << "\",\n";
  os << "  \"model_age_seconds\": " << reloads.model_age_seconds << "\n";
  os << "}\n";
  return MakeResponse(200, os.str(), "application/json");
}

HttpMessage HandleReload(const ServingContext& ctx,
                         const HttpMessage& request) {
  if (!ctx.reload) {
    return ErrorResponse(
        Status::FailedPrecondition("reload is not configured"));
  }
  std::string model = "default";
  std::string path;
  if (!request.body.empty()) {
    StatusOr<JsonValue> parsed = ParseJson(request.body);
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    if (!parsed->is_object()) {
      return ErrorResponse(
          Status::InvalidArgument("reload body must be a JSON object"));
    }
    if (parsed->at("model").is_string()) {
      model = parsed->at("model").string_value();
    }
    if (parsed->at("path").is_string()) {
      path = parsed->at("path").string_value();
    }
  }
  Status reloaded = ctx.reload(model, path);
  if (!reloaded.ok()) return ErrorResponse(reloaded);
  return MakeResponse(200,
                      "{\n  \"status\": \"ok\",\n  \"reloaded\": \"" +
                          EscapeJson(model) + "\"\n}\n",
                      "application/json");
}

}  // namespace

void RegisterServingEndpoints(HttpServer* server, ServingContext ctx) {
  DMVI_CHECK(ctx.service != nullptr) << "ServingContext without a service";
  server->Handle("POST", "/v1/impute", [ctx](const HttpMessage& request) {
    return HandleImpute(ctx, request);
  });
  server->Handle("GET", "/healthz", [ctx, server](const HttpMessage&) {
    return HandleHealthz(ctx, server);
  });
  server->Handle("GET", "/metrics", [ctx, server](const HttpMessage&) {
    // Prometheus text exposition: live pressure gauges and the other
    // scrape-time families, then the service's registry (serving
    // counters, latency and stage histograms, HTTP counters).
    obs::MetricsRegistry& metrics = ctx.service->metrics();
    std::ostringstream os;
    obs::AppendPrometheusGauge(
        os, "dmvi_in_flight_requests",
        "Impute requests being answered right now.",
        static_cast<double>(ctx.service->in_flight()));
    obs::AppendPrometheusGauge(
        os, "dmvi_pending_connections",
        "Accepted connections waiting for a free worker right now.",
        server != nullptr ? static_cast<double>(server->pending_connections())
                          : 0.0);
    obs::AppendPrometheusGauge(
        os, "dmvi_accept_queue_high_water",
        "Largest accept-queue depth observed since start (saturation "
        "headroom against max_pending_connections).",
        server != nullptr
            ? static_cast<double>(server->accept_queue_high_water())
            : 0.0);
    if (ctx.trace_sink != nullptr) {
      obs::AppendPrometheusCounter(
          os, "dmvi_trace_dropped_spans_total",
          "Spans dropped because the collecting trace sink was full.",
          ctx.trace_sink->dropped());
    }
    // Model deployment accounting: how often checkpoints were swapped in
    // and how stale the newest one is.
    const serve::ModelRegistry::ReloadInfo reloads =
        ctx.service->registry().reload_info();
    obs::AppendPrometheusCounter(
        os, "dmvi_model_reloads_total",
        "Registry re-registrations that swapped a live model.",
        reloads.reloads);
    obs::AppendPrometheusGauge(
        os, "dmvi_model_age_seconds",
        "Seconds since the most recent model (re)registration.",
        reloads.model_age_seconds);
    // Model-quality gauges refresh at scrape time like the process
    // gauges below. The drift gauge is registered only once a reference
    // profile exists — legacy profile-less checkpoints scrape without it.
    if (const serve::QualityMonitor* monitor = ctx.service->config().quality) {
      const serve::QualitySnapshot snapshot = monitor->Snapshot();
      int64_t cells = 0;
      int64_t missing = 0;
      for (const serve::ModelQualitySnapshot& model : snapshot.models) {
        cells += model.cells_observed;
        missing += model.cells_missing;
      }
      if (cells + missing > 0) {
        metrics
            .GaugeNamed("dmvi_model_input_missing_rate",
                        "Missing-cell fraction of live request inputs "
                        "across models.")
            ->Set(static_cast<double>(missing) /
                  static_cast<double>(cells + missing));
      }
      if (snapshot.max_drift_score >= 0.0) {
        metrics
            .GaugeNamed("dmvi_model_drift_score",
                        "Max PSI of live inputs vs the training reference "
                        "profile over models and series.")
            ->Set(snapshot.max_drift_score);
      }
    }
    // Self-observation gauges refresh at scrape time (procfs reads are
    // three file touches, not worth a poller thread).
    RefreshProcessGauges(metrics, obs::ReadProcessStats());
    os << metrics.PrometheusText();
    return MakeResponse(200, os.str(), "text/plain; version=0.0.4");
  });
  server->Handle("POST", "/admin/reload", [ctx](const HttpMessage& request) {
    return HandleReload(ctx, request);
  });
  server->Handle("GET", "/debug/profile", [](const HttpMessage& request) {
    return HandleDebugProfile(request);
  });
  server->Handle("GET", "/debug/requests", [ctx](const HttpMessage&) {
    return HandleDebugRequests(ctx, /*slow_only=*/false);
  });
  server->Handle("GET", "/debug/slow", [ctx](const HttpMessage&) {
    return HandleDebugRequests(ctx, /*slow_only=*/true);
  });
  server->Handle("GET", "/debug/state", [ctx](const HttpMessage&) {
    return HandleDebugState(ctx);
  });
  server->Handle("GET", "/debug/quality", [ctx](const HttpMessage&) {
    return HandleDebugQuality(ctx);
  });
}

}  // namespace net
}  // namespace deepmvi
