// dmvi_serve: load a DeepMVI checkpoint into the long-lived imputation
// service and replay a query workload against it — the serving half of the
// train-once/serve-many split (dmvi_train is the other half).
//
//   dmvi_serve --model model.dmvi --preset AirQ [--scale quick|full]
//              [--scenario MCAR] [--scenario-seed S] [--dataset-seed S]
//   dmvi_serve --model model.dmvi --input data.csv [--mask mask.csv]
//
// Workload (each query hides one block and asks the service to fill it):
//   --workload FILE            replay `row,t_start,block_len` lines
//   --synth N [--block B]      N random block queries (deterministic in
//                              --workload-seed)
// The replay answers the queries with ImputeBatch, --threads at a time.
// Service knobs: --threads, --cache-mb (response cache; 0 = off).
// Overload ladder: --degrade-watermark N answers a request with the cheap
// LinearInterp imputer once the pressure it arrives at (requests already
// in flight + HTTP connections waiting for a worker) reaches N;
// --shed-watermark M rejects with 503 at pressure M. 0 (default) disables
// a rung.
// Reports p50/p95/max latency and req/rows/cells per second, computed
// from the replay's own responses and wall clock.
//
// Network mode: --listen HOST:PORT starts the src/net HTTP front-end
// (POST /v1/impute, GET /healthz, GET /metrics — Prometheus text,
// POST /admin/reload) over the same service and blocks until
// SIGINT/SIGTERM. Each request is imputed on the HTTP worker that read
// it. --http-workers sets the connection pool width,
// --port-file writes the bound HOST:PORT (port 0 picks a free one) for
// scripts, and --reload-on-sighup makes SIGHUP warm-reload the checkpoint
// from --model without dropping connections. POST /admin/reload loads the
// body's "path", or --model's. Either way the service serves one model,
// as "default", and frees a replaced one when its last request ends.
// Bind/listen failures exit non-zero instead of aborting.
// Observability: --trace-out FILE exports Chrome trace-event JSON of the
// per-request span tree on shutdown (open in Perfetto); every response
// carries x-dmvi-request-id (client x-request-id honored); --log-level /
// --log-format control the structured access log. A flight recorder is
// always on: the last --flight-records requests (default 256) and those
// slower than --slow-ms (default 500) are answered live by GET
// /debug/requests and /debug/slow, GET /debug/profile?seconds=N serves
// on-demand CPU profiles as collapsed stacks, and GET /debug/state
// reports build hash + uptime + /proc gauges. A model-quality monitor is
// on by default (--quality off disables): live request inputs are scored
// for drift against the checkpoint's training reference profile
// (GET /debug/quality, /healthz "quality" rung vs --drift-threshold) and
// every --selfscore-every full predicts a few observed cells are hidden
// on a side mask, re-imputed, and scored (MAE/RMSE at /metrics).
// Each hook is wired once: the tracer is installed as the process tracer
// every span reads, and the recorder and monitor go into the service's
// config, where the HTTP routes read them too.
// Instrumentation never changes response bytes.
//
// --impute-csv PATH sends the dataset's own base mask through the service
// once and writes the completed matrix; for a checkpoint from dmvi_train
// with the same dataset flags this output is byte-identical to
// dmvi_train's --impute-csv (proving save/load exactness across
// processes).

#include <algorithm>
#include <cfloat>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "data/io.h"
#include "net/endpoints.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "serve/workload.h"
#include "tools/dataset_flags.h"

// Build provenance for GET /debug/state; the definition comes from
// tools/CMakeLists.txt (same configure-time plumbing as dmvi_eval).
#ifndef DMVI_GIT_COMMIT
#define DMVI_GIT_COMMIT "unknown"
#endif

namespace deepmvi {
namespace {

// Signal flags polled by the --listen loop. sig_atomic_t writes are the
// only thing a handler may do portably.
volatile std::sig_atomic_t g_sighup = 0;
volatile std::sig_atomic_t g_shutdown = 0;

void OnSighup(int) { g_sighup = 1; }
void OnShutdown(int) { g_shutdown = 1; }

int Run(int argc, char** argv) {
  std::string model_path, workload_path, impute_csv;
  std::string listen_address, port_file;
  std::string trace_out;
  obs::TraceLevel trace_level = obs::TraceLevel::kRequest;
  bool reload_on_sighup = false;
  int http_workers = 4;
  int flight_records = obs::FlightRecorder::kDefaultCapacity;
  double slow_ms = obs::FlightRecorder::kDefaultSlowThresholdSeconds * 1e3;
  bool quality_on = true;
  double drift_threshold = 0.2;
  serve::QualityMonitorOptions quality_options;
  tools::DatasetSpec dataset_spec;
  uint64_t workload_seed = 11;
  int synth = 0;
  int block = 10;
  serve::ServiceConfig service_config;
  bool missing_value = false, bad_value = false;
  for (int i = 1; i < argc; ++i) {
    if (tools::ParseDatasetFlag(argc, argv, &i, &dataset_spec,
                                &missing_value, &bad_value)) {
      if (bad_value) return 2;
      continue;
    }
    auto next = [&](const char* flag) {
      return tools::NextFlagValue(argc, argv, &i, flag, &missing_value);
    };
    const char* value = nullptr;
    if ((value = next("--model"))) {
      model_path = value;
    } else if ((value = next("--workload"))) {
      workload_path = value;
    } else if ((value = next("--synth"))) {
      if (!tools::ParseIntegerFlag("--synth", value, 0, INT_MAX, &synth)) {
        return 2;
      }
    } else if ((value = next("--block"))) {
      if (!tools::ParseIntegerFlag("--block", value, 1, INT_MAX, &block)) {
        return 2;
      }
    } else if ((value = next("--workload-seed"))) {
      if (!tools::ParseIntegerFlag("--workload-seed", value, 0, LLONG_MAX,
                                   &workload_seed)) {
        return 2;
      }
    } else if ((value = next("--impute-csv"))) {
      impute_csv = value;
    } else if ((value = next("--threads"))) {
      if (!tools::ParseIntegerFlag("--threads", value, 0, INT_MAX,
                                   &service_config.threads)) {
        return 2;
      }
    } else if ((value = next("--cache-mb"))) {
      if (!tools::ParseDoubleFlag("--cache-mb", value, 0.0, INT_MAX,
                                  &service_config.cache_mb)) {
        return 2;
      }
    } else if ((value = next("--degrade-watermark"))) {
      if (!tools::ParseIntegerFlag("--degrade-watermark", value, 0, INT_MAX,
                                   &service_config.degrade_watermark)) {
        return 2;
      }
    } else if ((value = next("--shed-watermark"))) {
      if (!tools::ParseIntegerFlag("--shed-watermark", value, 0, INT_MAX,
                                   &service_config.shed_watermark)) {
        return 2;
      }
    } else if ((value = next("--listen"))) {
      listen_address = value;
    } else if ((value = next("--http-workers"))) {
      if (!tools::ParseIntegerFlag("--http-workers", value, 1, INT_MAX,
                                   &http_workers)) {
        return 2;
      }
    } else if ((value = next("--port-file"))) {
      port_file = value;
    } else if ((value = next("--flight-records"))) {
      if (!tools::ParseIntegerFlag("--flight-records", value, 1, INT_MAX,
                                   &flight_records)) {
        return 2;
      }
    } else if ((value = next("--slow-ms"))) {
      if (!tools::ParseDoubleFlag("--slow-ms", value, 0.0, DBL_MAX,
                                  &slow_ms)) {
        return 2;
      }
    } else if ((value = next("--quality"))) {
      if (std::strcmp(value, "on") == 0) {
        quality_on = true;
      } else if (std::strcmp(value, "off") == 0) {
        quality_on = false;
      } else {
        std::fprintf(stderr, "--quality must be on or off\n");
        return 2;
      }
    } else if ((value = next("--drift-threshold"))) {
      if (!tools::ParseDoubleFlag("--drift-threshold", value, 0.0, DBL_MAX,
                                  &drift_threshold)) {
        return 2;
      }
    } else if ((value = next("--selfscore-every"))) {
      if (!tools::ParseIntegerFlag("--selfscore-every", value, 0, INT_MAX,
                                   &quality_options.selfscore_every)) {
        return 2;
      }
    } else if ((value = next("--selfscore-fraction"))) {
      if (!tools::ParseDoubleFlag("--selfscore-fraction", value, 0.0, 1.0,
                                  &quality_options.selfscore_fraction)) {
        return 2;
      }
    } else if ((value = next("--trace-out"))) {
      trace_out = value;
    } else if ((value = next("--trace-level"))) {
      if (std::strcmp(value, "request") == 0) {
        trace_level = obs::TraceLevel::kRequest;
      } else if (std::strcmp(value, "kernel") == 0) {
        trace_level = obs::TraceLevel::kKernel;
      } else {
        std::fprintf(stderr, "--trace-level must be request or kernel\n");
        return 2;
      }
    } else if ((value = next("--log-level"))) {
      if (!ParseLogSeverity(value, &MinLogSeverity())) {
        std::fprintf(stderr,
                     "--log-level must be debug, info, warning, or error\n");
        return 2;
      }
    } else if ((value = next("--log-format"))) {
      if (!ParseLogFormat(value, &GlobalLogFormat())) {
        std::fprintf(stderr, "--log-format must be plain, kv, or json\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--reload-on-sighup") == 0) {
      reload_on_sighup = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: dmvi_serve --model model.dmvi\n"
          "                  (--preset NAME [--scale quick|full]\n"
          "                   [--scenario MCAR] [--scenario-seed S]\n"
          "                   [--dataset-seed S] | --input data.csv\n"
          "                   [--mask mask.csv])\n"
          "                  [--workload FILE | --synth N [--block B]\n"
          "                   [--workload-seed S]]\n"
          "                  [--threads N] [--cache-mb MB]\n"
          "                  [--degrade-watermark N] [--shed-watermark N]\n"
          "                  [--impute-csv out.csv]\n"
          "                  [--listen HOST:PORT [--http-workers N]\n"
          "                   [--port-file PATH] [--reload-on-sighup]]\n"
          "                  [--flight-records N] [--slow-ms X]\n"
          "                  [--quality on|off] [--drift-threshold X]\n"
          "                  [--selfscore-every N] [--selfscore-fraction F]\n"
          "                  [--trace-out trace.json\n"
          "                   [--trace-level request|kernel]]\n"
          "                  [--log-level debug|info|warning|error]\n"
          "                  [--log-format plain|kv|json]\n");
      return 0;
    } else if (missing_value) {
      std::fprintf(stderr, "missing value for %s (see --help)\n", argv[i]);
      return 2;
    } else {
      std::fprintf(stderr, "unknown argument: %s (see --help)\n", argv[i]);
      return 2;
    }
  }
  if (model_path.empty()) {
    std::fprintf(stderr, "--model is required (see --help)\n");
    return 2;
  }

  // ---- Dataset + base mask (same construction as dmvi_train). ------------
  auto data = std::make_shared<DataTensor>();
  Mask mask;
  if (int exit_code =
          tools::BuildDatasetAndMask(dataset_spec, data.get(), &mask)) {
    return exit_code;
  }

  // ---- Observability: metrics always on, tracing behind --trace-out. -----
  // The registry is cheap (atomics + one mutex per scrape) and /metrics
  // needs the stage histograms, so it is wired unconditionally. The tracer
  // exists only when a trace file was requested; everywhere else pays one
  // branch. It is installed once, as the process tracer: every span, from
  // the HTTP request tree down to the matmul kernels, reads it there.
  obs::MetricsRegistry metrics;
  std::unique_ptr<obs::CollectingTraceSink> trace_sink;
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_out.empty()) {
    trace_sink = std::make_unique<obs::CollectingTraceSink>();
    tracer = std::make_unique<obs::Tracer>(trace_sink.get(), trace_level);
    obs::SetGlobalTracer(tracer.get());
  }
  service_config.metrics = &metrics;

  // Flight recorder: always on (bounded memory, one mutex-guarded slot
  // write per request), sized by --flight-records with --slow-ms as the
  // slow-ring threshold. /debug/requests and /debug/slow read it live
  // from the service's config.
  obs::FlightRecorder recorder(flight_records, slow_ms / 1e3);
  service_config.recorder = &recorder;

  // Model-quality monitor: on by default (--quality off for the
  // byte-identity comparisons; responses are cmp-equal either way).
  // Tracks live-input drift against the checkpoint's training reference
  // profile and runs masked self-scoring every --selfscore-every full
  // predicts; GET /debug/quality and the /healthz quality rung read it.
  std::unique_ptr<serve::QualityMonitor> quality;
  if (quality_on) {
    quality_options.metrics = &metrics;
    quality = std::make_unique<serve::QualityMonitor>(quality_options);
    service_config.quality = quality.get();
  }

  // ---- Bring the service up with the checkpoint. -------------------------
  serve::ImputationService service(service_config);
  Status loaded = service.Load(model_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error loading %s: %s\n", model_path.c_str(),
                 loaded.ToString().c_str());
    return 1;
  }
  const std::shared_ptr<const TrainedDeepMvi> model = service.served().model;
  std::printf("serving %s: %lld parameters, %d series, window %d\n",
              model_path.c_str(),
              static_cast<long long>(model->num_parameters()),
              model->num_series(), model->config().window);

  // ---- One-shot full imputation (cross-process exactness check). ---------
  if (!impute_csv.empty()) {
    serve::ImputationRequest request;
    request.data = data;
    request.mask = mask;
    serve::ImputationResponse response = service.Impute(request);
    if (!response.status.ok()) {
      std::fprintf(stderr, "imputation failed: %s\n",
                   response.status.ToString().c_str());
      return 1;
    }
    Status status = WriteDataTensor(
        DataTensor(data->dims(), std::move(response.imputed)), impute_csv);
    if (!status.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", impute_csv.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("wrote served imputation %s (%.2f ms)\n", impute_csv.c_str(),
                response.latency_seconds * 1e3);
  }

  // ---- Workload replay through ImputeBatch. --------------------------------
  std::vector<serve::WorkloadQuery> queries;
  if (!workload_path.empty()) {
    StatusOr<std::vector<serve::WorkloadQuery>> read = serve::ReadWorkload(
        workload_path, data->num_series(), data->num_times());
    if (!read.ok()) {
      std::fprintf(stderr, "%s\n", read.status().ToString().c_str());
      return 1;
    }
    queries = std::move(read).value();
  } else if (synth > 0) {
    queries = serve::SynthesizeWorkload(synth, block, data->num_series(),
                                        data->num_times(), workload_seed);
  }

  if (!queries.empty()) {
    std::vector<serve::ImputationRequest> requests;
    requests.reserve(queries.size());
    for (const serve::WorkloadQuery& query : queries) {
      requests.push_back(serve::MakeQueryRequest(data, mask, query));
    }
    // The report describes this call alone: its responses and its wall
    // clock, not checkpoint load or the one-shot --impute-csv request.
    Stopwatch wall;
    const std::vector<serve::ImputationResponse> responses =
        service.ImputeBatch(requests);
    const double seconds = wall.ElapsedSeconds();
    int failed = 0;
    int64_t rows = 0, cells = 0;
    std::vector<double> latencies;
    latencies.reserve(responses.size());
    for (const serve::ImputationResponse& response : responses) {
      if (!response.status.ok()) ++failed;
      rows += response.rows_touched;
      cells += response.cells_imputed;
      latencies.push_back(response.latency_seconds);
    }
    std::sort(latencies.begin(), latencies.end());
    const double per_second = seconds > 0.0 ? 1.0 / seconds : 0.0;
    std::printf(
        "replayed %zu queries (%d failed) in %.2fs: p50 %.2f ms, p95 %.2f ms, "
        "max %.2f ms | %.1f req/s, %.1f rows/s, %.0f cells/s\n",
        queries.size(), failed, seconds,
        obs::SortedPercentile(latencies, 0.50) * 1e3,
        obs::SortedPercentile(latencies, 0.95) * 1e3, latencies.back() * 1e3,
        static_cast<double>(queries.size()) * per_second,
        static_cast<double>(rows) * per_second,
        static_cast<double>(cells) * per_second);
    if (failed > 0) return 1;
  }

  // ---- Network front-end: serve the same queries over HTTP. --------------
  if (!listen_address.empty()) {
    net::ServerConfig server_config;
    if (Status parsed = net::ParseHostPort(listen_address, &server_config.host,
                                           &server_config.port);
        !parsed.ok()) {
      std::fprintf(stderr, "--listen: %s\n", parsed.ToString().c_str());
      return 2;
    }
    server_config.num_workers = http_workers;
    server_config.metrics = &metrics;

    net::HttpServer server(server_config);
    net::ServingContext context;
    context.service = &service;
    context.data = data;
    context.base_mask = mask;
    context.trace_sink = trace_sink.get();
    context.drift_threshold = drift_threshold;
    context.build_commit = DMVI_GIT_COMMIT;
    context.model_path = model_path;
    net::RegisterServingEndpoints(&server, context);
    // Admission control should see connection pressure before those
    // requests reach a worker: fold the accept-queue depth into the
    // watermark comparison.
    service.SetPressureProbe(
        [&server] { return server.pending_connections(); });

    if (Status started = server.Start(); !started.ok()) {
      std::fprintf(stderr, "cannot start server on %s: %s\n",
                   listen_address.c_str(), started.ToString().c_str());
      return 1;
    }
    std::printf("listening on %s (workers %d, cache %.0f MB)\n",
                server.address().c_str(), http_workers,
                service_config.cache_mb);
    std::fflush(stdout);
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     port_file.c_str());
        return 1;
      }
      out << server.address() << "\n";
    }

    std::signal(SIGINT, OnShutdown);
    std::signal(SIGTERM, OnShutdown);
    if (reload_on_sighup) std::signal(SIGHUP, OnSighup);

    while (!g_shutdown) {
      if (g_sighup) {
        g_sighup = 0;
        Status reloaded = service.Load(model_path);
        if (reloaded.ok()) {
          std::printf("SIGHUP: reloaded %s\n", model_path.c_str());
        } else {
          // Keep serving the old weights — a bad checkpoint on disk must
          // not take the service down.
          std::fprintf(stderr, "SIGHUP reload failed: %s\n",
                       reloaded.ToString().c_str());
        }
        std::fflush(stdout);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("shutting down: draining connections...\n");
    server.Stop();
    std::printf("served %lld requests\n",
                static_cast<long long>(server.requests_served()));
  }

  if (tracer != nullptr) {
    obs::SetGlobalTracer(nullptr);
    const std::vector<obs::SpanRecord> records = trace_sink->records();
    Status written = obs::WriteChromeTrace(records, trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "error writing trace: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace %s (%zu spans, %lld dropped)\n",
                trace_out.c_str(), records.size(),
                static_cast<long long>(trace_sink->dropped()));
  }
  return 0;
}

}  // namespace
}  // namespace deepmvi

int main(int argc, char** argv) { return deepmvi::Run(argc, argv); }
