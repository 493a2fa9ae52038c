#ifndef DEEPMVI_NET_ENDPOINTS_H_
#define DEEPMVI_NET_ENDPOINTS_H_

#include <memory>
#include <string>

#include "common/stopwatch.h"
#include "net/server.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "tensor/data_tensor.h"
#include "tensor/mask.h"

namespace deepmvi {
namespace net {

/// Everything the HTTP routes need to serve imputation traffic. The
/// dataset + base mask play the same role as in dmvi_serve's in-process
/// replay: query-mode requests hide one block on top of `base_mask` and
/// ask the service to fill it, so the network path and the in-process path
/// answer literally the same ImputationRequests.
///
/// Each serving hook has one owner. The routes record into and render
/// service->metrics(); they read the flight recorder and the quality
/// monitor from service->config() (no recorder answers /debug/requests
/// and /debug/slow with 503; no monitor answers /debug/quality with 503
/// and reports the /healthz quality rung as "off"); and the
/// impute.decode / impute.encode spans go to the process tracer
/// (obs::GlobalTracer).
struct ServingContext {
  serve::ImputationService* service = nullptr;
  std::shared_ptr<const DataTensor> data;
  Mask base_mask;
  /// The checkpoint POST /admin/reload loads (ImputationService::Load)
  /// when its body names no "path" or an empty one: dmvi_serve's --model.
  std::string model_path;
  /// Optional collecting sink behind the process tracer, so /metrics can
  /// export the dropped-span count (borrowed; null skips the metric).
  obs::CollectingTraceSink* trace_sink = nullptr;
  /// PSI above which the /healthz quality rung reports "drifting" (and
  /// /debug/quality marks the model). The conventional PSI reading:
  /// < 0.1 stable, > 0.25 drifted; the default splits the difference.
  double drift_threshold = 0.2;
  /// Build provenance for GET /debug/state ("unknown" when the binary was
  /// built outside a checkout).
  std::string build_commit = "unknown";
  /// Uptime epoch: default-constructed when the context is built, copied
  /// into the handlers — /debug/state reports seconds since then.
  Stopwatch started;
};

/// Registers the serving API on `server`:
///   POST /v1/impute    data path -> ImputationService::Impute, called on
///                      the HTTP worker that read the request (the same
///                      call in-process callers make). Responses answered
///                      by the degradation ladder carry an
///                      "x-dmvi-degraded" header naming the fallback
///                      imputer (JSON bodies additionally say "status":
///                      "degraded").
///   GET  /healthz      {"status":"ok", models, dataset shape, in-flight
///                      requests, pending connections, watermarks, and the
///                      current degradation state: off/ready/degrading/
///                      shedding}
///   GET  /metrics      Prometheus text exposition: live in-flight /
///                      pending-connections gauges and the other
///                      scrape-time families, then everything in
///                      service->metrics() (the dmvi_*_total serving
///                      counters, the request-latency histogram, stage
///                      histograms, HTTP counters)
///   POST /admin/reload warm checkpoint swap: service->Load of the body's
///                      "path", else ctx.model_path
///   GET  /debug/profile?seconds=N&hz=H   on-demand CPU profiling window:
///                      blocks for N seconds (default 2, max 30) sampling
///                      at H Hz (default 99), then answers with collapsed
///                      stacks (flamegraph.pl format); 503 while another
///                      window is open
///   GET  /debug/requests  flight-recorder ring as JSON (last N requests)
///   GET  /debug/slow      the slow-request ring (above the recorder's
///                      threshold), same shape
///   GET  /debug/state  build hash, uptime, pid, and /proc/self gauges
///                      (RSS, CPU seconds, open fds) — the same numbers
///                      exported as dmvi_process_* via /metrics — plus
///                      model reload accounting (count, age, name)
///   GET  /debug/quality  model-quality view: per-series PSI/KS drift
///                      breakdown against the checkpoint's
///                      training reference profile, live input missing
///                      rates, and the masked self-scoring history; 503
///                      without a monitor
/// `ctx` is copied into the handlers and `server` itself is captured by
/// the /healthz route (it reports the accept-queue depth); both the
/// service and the server must outlive the registered handlers.
void RegisterServingEndpoints(HttpServer* server, ServingContext ctx);

}  // namespace net
}  // namespace deepmvi

#endif  // DEEPMVI_NET_ENDPOINTS_H_
