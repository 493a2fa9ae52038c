// dmvi_loadgen: concurrent load generator for the dmvi_serve HTTP
// front-end — the measuring half of the network serving stack (dmvi_serve
// --listen is the serving half).
//
//   dmvi_loadgen --target HOST:PORT [--concurrency C]
//                (--synth N [--block B] [--workload-seed S] |
//                 --workload FILE)
//                [--rps R] [--impute-csv out.csv] [--reload-every N]
//                [--expect-degraded] [--max-p95-ms X]
//
// Queries are the same `row,t_start,block_len` block-hiding units
// dmvi_serve replays in-process (the dataset shape is discovered via GET
// /healthz, so synthesized workloads match the served dataset and a
// --workload line outside it exits 1 naming the line, as in dmvi_serve,
// before any query is sent). C client
// connections issue them concurrently over keep-alive; --rps > 0 paces
// dispatch open-loop against a fixed schedule (requests are sent when
// *scheduled*, late or not, so server slowdowns show up as latency rather
// than reduced load) while --rps 0 runs closed-loop at full speed.
//
// Reports p50/p95/max latency and request/row throughput, and exits
// non-zero when any request or mid-run reload failed.
//
// Overload mode: point --rps well past what the server sustains at a
// server started with --degrade-watermark/--shed-watermark, and the
// degradation ladder keeps every request answered — degraded responses
// (x-dmvi-degraded header) are counted separately from failures.
// --expect-degraded exits non-zero if the ladder never fired (the run
// didn't actually prove anything about overload), and --max-p95-ms X
// exits non-zero if p95 latency exceeded X — together they make "bounded
// p95, zero failed, degraded > 0 at N x sustainable load" a CI assertion.
//
// --impute-csv fetches the served dataset's base-mask imputation as
// text/csv and writes the body verbatim: byte-identical to dmvi_serve /
// dmvi_train --impute-csv output for the same checkpoint + dataset flags
// (the CI loopback smoke `cmp`s exactly this). --reload-every N posts
// /admin/reload every N queries mid-run, proving warm reloads drop zero
// requests.
//
// Observability hooks: --request-id-prefix P stamps request i with
// `x-request-id: P-i` and checks the echoed x-dmvi-request-id — the same
// IDs appear in the server's --trace-out file, so any client-side latency
// outlier can be looked up as a span tree. --check-server-counters scrapes
// GET /metrics (Prometheus text) before and after the run and asserts the
// server-side counter deltas match what this process observed exactly:
// requests_total grew by completed + shed, degraded_total by the
// x-dmvi-degraded count, shed_total by the 503 count. Every run scrapes
// /metrics before and after firing and prints the server-observed mean
// latency (admission + compute: the delta of the request-latency
// histogram's _sum over the delta of its _count) beside the client-observed
// mean (adds HTTP encode/transport) — the gap between them is the network
// front-end's cost. --fetch PATH [--fetch-out FILE] is a standalone mode:
// GET one path, write the body verbatim, exit — CI snapshots /metrics and
// pulls /debug/profile?seconds=N from a second process mid-run this way. --slow-ms X (with --request-id-prefix) reports every
// request over X ms, then fetches the server's /debug/slow flight-recorder
// ring and cross-checks it: each server-recorded slow request with our
// prefix must be one we completed, at a client latency >= the
// server-observed one.
//
// --check-quality quiet|drifted exercises the server's model-quality
// monitor end to end: fetch the served dataset's completed matrix as CSV,
// optionally apply the kDrift sensor-drift transform (--drift-rate sets
// the sawtooth amplitude in per-series stddev units), replay the workload
// as inline-values requests (the monitor observes the *request's*
// distribution, which query mode never shifts), then assert the
// /debug/quality verdict: "drifting" for a drifted replay, "ok" for a
// matched one. Exits non-zero on the wrong verdict, so CI proves the
// detector both fires and stays silent.

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "scenario/scenarios.h"
#include "serve/workload.h"
#include "tensor/matrix.h"
#include "tools/dataset_flags.h"

namespace deepmvi {
namespace {

struct LoadgenOptions {
  std::string host;
  int port = 0;
  int concurrency = 4;
  int synth = 64;
  int block = 10;
  uint64_t workload_seed = 11;
  std::string workload_path;
  double rps = 0.0;  // 0 = closed loop, full speed.
  std::string impute_csv;
  int reload_every = 0;  // 0 = never.
  bool expect_degraded = false;
  double max_p95_ms = 0.0;  // 0 = no bound.
  std::string request_id_prefix;  // empty = let the server mint IDs.
  bool check_server_counters = false;
  std::string fetch;           // non-empty = standalone GET mode.
  std::string fetch_out;       // body destination ("" = stdout).
  double slow_ms = 0.0;        // 0 = no slow-request reporting.
  /// "quiet" or "drifted": drift-detector end-to-end check mode. Replays
  /// the synthesized workload as inline-values requests built from the
  /// served dataset (optionally kDrift-transformed), then asserts the
  /// server's /debug/quality verdict.
  std::string check_quality;
  double drift_rate = 1.0;  // kDrift sawtooth amplitude (stddev units).
};

/// One worker's share of the run: latencies (seconds) for its completed
/// requests plus failure and reload counts.
struct WorkerResult {
  std::vector<double> latencies;
  int64_t rows = 0;
  int failed = 0;
  int reloads_failed = 0;
  int64_t degraded = 0;
  int64_t shed = 0;           // 503 responses (a subset of `failed`).
  int64_t id_mismatches = 0;  // x-dmvi-request-id did not echo ours.
  /// Client-observed latency per completed request id (only collected
  /// under --slow-ms, which requires --request-id-prefix): the data the
  /// /debug/slow cross-check needs.
  std::vector<std::pair<std::string, double>> latency_by_id;
};

std::string QueryBody(const serve::WorkloadQuery& query) {
  return "{\"model\": \"default\", \"query\": {\"row\": " +
         std::to_string(query.row) +
         ", \"t_start\": " + std::to_string(query.t_start) +
         ", \"block_len\": " + std::to_string(query.block_len) + "}}";
}

void RunWorker(const LoadgenOptions& options,
               const std::vector<serve::WorkloadQuery>& queries, int worker,
               const std::chrono::steady_clock::time_point& start,
               WorkerResult* result) {
  net::Client client(options.host, options.port);
  for (size_t i = worker; i < queries.size(); i += options.concurrency) {
    if (options.rps > 0.0) {
      // Open loop: request i is *scheduled* at i / rps seconds into the
      // run; sleep until then, never past it. A slow server makes us late
      // (latency grows) but does not reduce the offered load.
      const auto scheduled =
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(i / options.rps));
      std::this_thread::sleep_until(scheduled);
    }
    if (options.reload_every > 0 &&
        i % static_cast<size_t>(options.reload_every) == 0 && i > 0) {
      StatusOr<net::HttpMessage> reloaded =
          client.Post("/admin/reload", "{}", "application/json");
      if (!reloaded.ok() || reloaded->status_code != 200) {
        ++result->reloads_failed;
      }
    }
    net::HttpMessage request;
    request.method = "POST";
    request.target = "/v1/impute";
    request.body = QueryBody(queries[i]);
    request.SetHeader("content-type", "application/json");
    std::string request_id;
    if (!options.request_id_prefix.empty()) {
      // Deterministic per-query IDs (P-0, P-1, ...) that the server echoes
      // back and stamps onto every span of this request in --trace-out.
      request_id = options.request_id_prefix + "-" + std::to_string(i);
      request.SetHeader("x-request-id", request_id);
    }
    Stopwatch watch;
    StatusOr<net::HttpMessage> response = client.RoundTrip(request);
    const double latency = watch.ElapsedSeconds();
    if (!request_id.empty() && response.ok() &&
        response->Header("x-dmvi-request-id") != request_id) {
      ++result->id_mismatches;
    }
    if (!response.ok() || response->status_code != 200) {
      ++result->failed;
      if (response.ok() && response->status_code == 503) ++result->shed;
      continue;
    }
    result->latencies.push_back(latency);
    result->rows += 1;  // One block query touches one series row.
    if (response->HasHeader("x-dmvi-degraded")) ++result->degraded;
    if (options.slow_ms > 0.0 && !request_id.empty()) {
      result->latency_by_id.emplace_back(request_id, latency);
    }
  }
}

/// Parses a WriteDataTensor-format CSV body ('#'-prefixed dimension header
/// lines, then one comma-separated row of numbers per series) into a
/// Matrix. The loadgen keeps its own tiny parser because data/io.h reads
/// from paths, not strings, and the body never leaves memory here.
StatusOr<Matrix> ParseCsvBody(const std::string& body) {
  std::vector<std::vector<double>> rows;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    if (end > pos && body[pos] != '#') {
      std::vector<double> row;
      const char* cursor = body.c_str() + pos;
      const char* line_end = body.c_str() + end;
      while (cursor < line_end) {
        char* after = nullptr;
        row.push_back(std::strtod(cursor, &after));
        if (after == cursor) {
          return Status::InvalidArgument("unparseable CSV cell at byte " +
                                         std::to_string(cursor - body.c_str()));
        }
        cursor = after;
        if (cursor < line_end && *cursor == ',') ++cursor;
      }
      if (!rows.empty() && row.size() != rows.front().size()) {
        return Status::InvalidArgument("ragged CSV row " +
                                       std::to_string(rows.size()));
      }
      if (!row.empty()) rows.push_back(std::move(row));
    }
    pos = end + 1;
  }
  if (rows.empty()) return Status::InvalidArgument("CSV body holds no rows");
  Matrix values(static_cast<int>(rows.size()),
                static_cast<int>(rows.front().size()));
  for (int r = 0; r < values.rows(); ++r) {
    for (int t = 0; t < values.cols(); ++t) {
      values(r, t) = rows[static_cast<size_t>(r)][static_cast<size_t>(t)];
    }
  }
  return values;
}

/// Inline-values /v1/impute body: the full matrix rendered at %.17g with
/// `null` at the query's hidden block — a self-contained request whose
/// input distribution the server's quality monitor observes (unlike query
/// mode, which reads the server's own dataset and so can never drift).
std::string InlineQueryBody(const Matrix& values,
                            const serve::WorkloadQuery& query) {
  std::string body = "{\"model\": \"default\", \"values\": [";
  char cell[40];
  for (int r = 0; r < values.rows(); ++r) {
    body += r == 0 ? "[" : ", [";
    for (int t = 0; t < values.cols(); ++t) {
      if (t > 0) body += ", ";
      if (r == query.row && t >= query.t_start &&
          t < query.t_start + query.block_len) {
        body += "null";
      } else {
        std::snprintf(cell, sizeof(cell), "%.17g", values(r, t));
        body += cell;
      }
    }
    body += "]";
  }
  body += "]}";
  return body;
}

/// Fetches GET /metrics and returns the Prometheus text body.
StatusOr<std::string> ScrapeMetrics(net::Client* client) {
  StatusOr<net::HttpMessage> scraped = client->Get("/metrics");
  if (!scraped.ok()) return scraped.status();
  if (scraped->status_code != 200) {
    return Status::Internal("GET /metrics returned " +
                            std::to_string(scraped->status_code));
  }
  return std::move(scraped->body);
}

int Run(int argc, char** argv) {
  LoadgenOptions options;
  std::string target, port_file;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    const char* value = nullptr;
    if ((value = next("--target"))) {
      target = value;
    } else if ((value = next("--port-file"))) {
      port_file = value;
    } else if ((value = next("--concurrency"))) {
      if (!tools::ParseIntegerFlag("--concurrency", value, 1, INT_MAX,
                                   &options.concurrency)) {
        return 2;
      }
    } else if ((value = next("--synth"))) {
      if (!tools::ParseIntegerFlag("--synth", value, 0, INT_MAX,
                                   &options.synth)) {
        return 2;
      }
    } else if ((value = next("--block"))) {
      if (!tools::ParseIntegerFlag("--block", value, 1, INT_MAX,
                                   &options.block)) {
        return 2;
      }
    } else if ((value = next("--workload-seed"))) {
      if (!tools::ParseIntegerFlag("--workload-seed", value, 0, LLONG_MAX,
                                   &options.workload_seed)) {
        return 2;
      }
    } else if ((value = next("--workload"))) {
      options.workload_path = value;
    } else if ((value = next("--rps"))) {
      if (!tools::ParseDoubleFlag("--rps", value, 0.0, DBL_MAX,
                                  &options.rps)) {
        return 2;
      }
    } else if ((value = next("--impute-csv"))) {
      options.impute_csv = value;
    } else if ((value = next("--reload-every"))) {
      if (!tools::ParseIntegerFlag("--reload-every", value, 0, INT_MAX,
                                   &options.reload_every)) {
        return 2;
      }
    } else if ((value = next("--max-p95-ms"))) {
      if (!tools::ParseDoubleFlag("--max-p95-ms", value, 0.0, DBL_MAX,
                                  &options.max_p95_ms)) {
        return 2;
      }
    } else if ((value = next("--request-id-prefix"))) {
      options.request_id_prefix = value;
    } else if ((value = next("--fetch"))) {
      options.fetch = value;
    } else if ((value = next("--fetch-out"))) {
      options.fetch_out = value;
    } else if ((value = next("--slow-ms"))) {
      if (!tools::ParseDoubleFlag("--slow-ms", value, 0.0, DBL_MAX,
                                  &options.slow_ms)) {
        return 2;
      }
    } else if ((value = next("--check-quality"))) {
      options.check_quality = value;
      if (options.check_quality != "quiet" &&
          options.check_quality != "drifted") {
        std::fprintf(stderr, "--check-quality must be quiet or drifted\n");
        return 2;
      }
    } else if ((value = next("--drift-rate"))) {
      if (!tools::ParseDoubleFlag("--drift-rate", value, 0.0, DBL_MAX,
                                  &options.drift_rate)) {
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
    } else if (std::strcmp(argv[i], "--check-server-counters") == 0) {
      options.check_server_counters = true;
    } else if (std::strcmp(argv[i], "--expect-degraded") == 0) {
      options.expect_degraded = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: dmvi_loadgen (--target HOST:PORT | --port-file PATH)\n"
          "                    [--concurrency C] [--rps R]\n"
          "                    [--synth N [--block B] [--workload-seed S]\n"
          "                     | --workload FILE]\n"
          "                    [--impute-csv out.csv] [--reload-every N]\n"
          "                    [--expect-degraded] [--max-p95-ms X]\n"
          "                    [--request-id-prefix P]\n"
          "                    [--check-server-counters]\n"
          "                    [--slow-ms X]\n"
          "                    [--check-quality quiet|drifted "
          "[--drift-rate R]]\n"
          "                    [--fetch PATH [--fetch-out FILE]]\n"
          "                    [--log-level debug|info|warning|error]\n"
          "                    [--log-format plain|kv|json]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s (see --help)\n", argv[i]);
      return 2;
    }
  }
  if (target.empty() && !port_file.empty()) {
    // dmvi_serve --port-file writes "host:port" once bound.
    std::ifstream in(port_file);
    if (!in || !std::getline(in, target)) {
      std::fprintf(stderr, "cannot read target from %s\n", port_file.c_str());
      return 1;
    }
  }
  if (target.empty()) {
    std::fprintf(stderr, "--target or --port-file is required (see --help)\n");
    return 2;
  }
  if (Status parsed = net::ParseHostPort(target, &options.host, &options.port);
      !parsed.ok()) {
    std::fprintf(stderr, "--target: %s\n", parsed.ToString().c_str());
    return 2;
  }
  if (options.slow_ms > 0.0 && options.request_id_prefix.empty()) {
    std::fprintf(stderr,
                 "--slow-ms needs --request-id-prefix (the /debug/slow "
                 "cross-check matches requests by id)\n");
    return 2;
  }

  // ---- Standalone fetch: GET an arbitrary path and exit. ------------------
  // CI uses it to snapshot /metrics and pull /debug/profile?seconds=N
  // (which blocks server-side for the whole window) and the /debug/* JSON
  // from a second process while a loadgen run is in flight. Runs before
  // the /healthz shape probe, so that process generates no load of its
  // own. Non-200 is a failure.
  if (!options.fetch.empty()) {
    net::Client fetcher(options.host, options.port);
    StatusOr<net::HttpMessage> fetched = fetcher.Get(options.fetch);
    if (!fetched.ok()) {
      std::fprintf(stderr, "GET %s failed: %s\n", options.fetch.c_str(),
                   fetched.status().ToString().c_str());
      return 1;
    }
    if (fetched->status_code != 200) {
      std::fprintf(stderr, "GET %s returned %d: %s\n", options.fetch.c_str(),
                   fetched->status_code, fetched->body.c_str());
      return 1;
    }
    if (options.fetch_out.empty()) {
      std::fwrite(fetched->body.data(), 1, fetched->body.size(), stdout);
    } else {
      std::ofstream out(options.fetch_out, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     options.fetch_out.c_str());
        return 1;
      }
      out << fetched->body;
      std::printf("wrote %s (%zu bytes from %s)\n", options.fetch_out.c_str(),
                  fetched->body.size(), options.fetch.c_str());
    }
    return 0;
  }

  // ---- Discover the served dataset shape. ---------------------------------
  net::Client probe(options.host, options.port);
  StatusOr<net::HttpMessage> health = probe.Get("/healthz");
  if (!health.ok()) {
    std::fprintf(stderr, "cannot reach %s: %s\n", target.c_str(),
                 health.status().ToString().c_str());
    return 1;
  }
  StatusOr<net::JsonValue> health_doc = net::ParseJson(health->body);
  if (!health_doc.ok() || !health_doc->at("num_series").is_number()) {
    std::fprintf(stderr, "unexpected /healthz body: %s\n",
                 health->body.c_str());
    return 1;
  }
  const int num_series =
      static_cast<int>(health_doc->at("num_series").number_value());
  const int num_times =
      static_cast<int>(health_doc->at("num_times").number_value());
  if (num_series <= 0 || num_times <= 0) {
    std::fprintf(stderr, "server reports no served dataset (%d x %d)\n",
                 num_series, num_times);
    return 1;
  }

  // ---- One-shot base-mask imputation fetch (byte-identity anchor). --------
  if (!options.impute_csv.empty()) {
    StatusOr<net::HttpMessage> imputed =
        probe.Post("/v1/impute", "{\"model\": \"default\"}",
                   "application/json", "text/csv");
    if (!imputed.ok() || imputed->status_code != 200) {
      std::fprintf(stderr, "base imputation fetch failed: %s\n",
                   imputed.ok() ? imputed->body.c_str()
                                : imputed.status().ToString().c_str());
      return 1;
    }
    std::ofstream out(options.impute_csv, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   options.impute_csv.c_str());
      return 1;
    }
    out << imputed->body;
    std::printf("wrote served imputation %s (%zu bytes)\n",
                options.impute_csv.c_str(), imputed->body.size());
  }

  // ---- Workload. ----------------------------------------------------------
  std::vector<serve::WorkloadQuery> queries;
  if (!options.workload_path.empty()) {
    StatusOr<std::vector<serve::WorkloadQuery>> read =
        serve::ReadWorkload(options.workload_path, num_series, num_times);
    if (!read.ok()) {
      std::fprintf(stderr, "%s\n", read.status().ToString().c_str());
      return 1;
    }
    queries = std::move(read).value();
  } else if (options.synth > 0) {
    queries = serve::SynthesizeWorkload(options.synth, options.block,
                                        num_series, num_times,
                                        options.workload_seed);
  }
  if (queries.empty()) return 0;

  // ---- Drift-detector end-to-end check. -----------------------------------
  // Fetches the served dataset's completed matrix, optionally applies the
  // kDrift sensor-drift transform (deterministic per-series sawtooth), and
  // replays the workload as inline-values requests so the quality monitor
  // observes *this* distribution rather than the server's own dataset.
  // Afterwards the server's /debug/quality verdict must be "drifting"
  // (mode drifted) or "ok" (mode quiet) — both directions are asserted so
  // CI proves the detector fires AND stays silent on matched input.
  if (!options.check_quality.empty()) {
    StatusOr<net::HttpMessage> base =
        probe.Post("/v1/impute", "{\"model\": \"default\"}",
                   "application/json", "text/csv");
    if (!base.ok() || base->status_code != 200) {
      std::fprintf(stderr, "base imputation fetch failed: %s\n",
                   base.ok() ? base->body.c_str()
                             : base.status().ToString().c_str());
      return 1;
    }
    StatusOr<Matrix> parsed = ParseCsvBody(base->body);
    if (!parsed.ok()) {
      std::fprintf(stderr, "cannot parse served CSV: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    Matrix values = std::move(parsed).value();
    if (options.check_quality == "drifted") {
      ScenarioConfig drift;
      drift.kind = ScenarioKind::kDrift;
      drift.percent_incomplete = 1.0;
      drift.drift_rate = options.drift_rate;
      values = ApplyScenarioTransform(drift, values);
    }
    int sent = 0, check_failed = 0;
    for (const serve::WorkloadQuery& query : queries) {
      net::HttpMessage request;
      request.method = "POST";
      request.target = "/v1/impute";
      request.body = InlineQueryBody(values, query);
      request.SetHeader("content-type", "application/json");
      StatusOr<net::HttpMessage> response = probe.RoundTrip(request);
      ++sent;
      if (!response.ok() || response->status_code != 200) ++check_failed;
    }
    if (check_failed > 0) {
      std::fprintf(stderr, "quality check: %d of %d inline requests failed\n",
                   check_failed, sent);
      return 1;
    }
    StatusOr<net::HttpMessage> quality = probe.Get("/debug/quality");
    if (!quality.ok() || quality->status_code != 200) {
      std::fprintf(stderr, "GET /debug/quality failed: %s\n",
                   quality.ok() ? quality->body.c_str()
                                : quality.status().ToString().c_str());
      return 1;
    }
    StatusOr<net::JsonValue> doc = net::ParseJson(quality->body);
    if (!doc.ok() || !doc->at("quality").is_string()) {
      std::fprintf(stderr, "unexpected /debug/quality body: %s\n",
                   quality->body.c_str());
      return 1;
    }
    const std::string& verdict = doc->at("quality").string_value();
    double max_drift = -1.0;
    for (const net::JsonValue& model : doc->at("models").array_items()) {
      if (model.at("drift_score").is_number()) {
        max_drift = std::max(max_drift,
                             model.at("drift_score").number_value());
      }
    }
    const std::string expected =
        options.check_quality == "drifted" ? "drifting" : "ok";
    std::printf(
        "quality check (%s): %d inline requests, server verdict \"%s\", "
        "max drift score %.4f (threshold %.4f)\n",
        options.check_quality.c_str(), sent, verdict.c_str(), max_drift,
        doc->at("drift_threshold").number_value());
    if (verdict != expected) {
      std::fprintf(stderr,
                   "quality check: expected verdict \"%s\" for a %s "
                   "workload, server reports \"%s\"\n",
                   expected.c_str(), options.check_quality.c_str(),
                   verdict.c_str());
      return 1;
    }
    return 0;
  }

  // ---- Server baseline for the latency attribution and the counter
  // check (taken after the --impute-csv fetch so that one-shot request is
  // excluded from the deltas). ---------------------------------------------
  StatusOr<std::string> metrics_before = ScrapeMetrics(&probe);
  if (!metrics_before.ok()) {
    std::fprintf(stderr, "pre-run metrics scrape failed: %s\n",
                 metrics_before.status().ToString().c_str());
    return 1;
  }
  // Close the probe's keep-alive connection: left idle through the run it
  // would hold one of the server's blocking workers away from the load.
  // Client reconnects lazily, so the post-run fetches still work.
  probe = net::Client(options.host, options.port);

  // ---- Fire. --------------------------------------------------------------
  std::vector<WorkerResult> results(options.concurrency);
  Stopwatch wall;
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(options.concurrency);
    for (int w = 0; w < options.concurrency; ++w) {
      workers.emplace_back(RunWorker, std::cref(options), std::cref(queries),
                           w, std::cref(start), &results[w]);
    }
    for (std::thread& worker : workers) worker.join();
  }
  const double wall_seconds = wall.ElapsedSeconds();

  std::vector<double> latencies;
  std::map<std::string, double> latency_by_id;
  int64_t rows = 0, degraded = 0, shed = 0, id_mismatches = 0;
  int failed = 0, reloads_failed = 0;
  for (const WorkerResult& result : results) {
    latencies.insert(latencies.end(), result.latencies.begin(),
                     result.latencies.end());
    rows += result.rows;
    failed += result.failed;
    reloads_failed += result.reloads_failed;
    degraded += result.degraded;
    shed += result.shed;
    id_mismatches += result.id_mismatches;
    for (const auto& [id, latency] : result.latency_by_id) {
      latency_by_id[id] = latency;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50_ms = obs::SortedPercentile(latencies, 0.50) * 1e3;
  const double p95_ms = obs::SortedPercentile(latencies, 0.95) * 1e3;
  const double max_ms = latencies.empty() ? 0.0 : latencies.back() * 1e3;
  double mean_ms = 0.0;
  for (const double latency : latencies) mean_ms += latency * 1e3;
  if (!latencies.empty()) mean_ms /= static_cast<double>(latencies.size());
  const double rps = wall_seconds > 0.0
                         ? static_cast<double>(latencies.size()) / wall_seconds
                         : 0.0;
  const double rows_per_second =
      wall_seconds > 0.0 ? static_cast<double>(rows) / wall_seconds : 0.0;

  std::printf(
      "%zu queries over %d connections (%d failed of which %lld shed, "
      "%d reloads failed, %lld degraded) in %.2fs: p50 %.2f ms, p95 %.2f ms, "
      "max %.2f ms | %.1f req/s, %.1f rows/s\n",
      queries.size(), options.concurrency, failed,
      static_cast<long long>(shed), reloads_failed,
      static_cast<long long>(degraded), wall_seconds, p50_ms, p95_ms, max_ms,
      rps, rows_per_second);

  StatusOr<std::string> metrics_after = ScrapeMetrics(&probe);
  if (!metrics_after.ok()) {
    std::fprintf(stderr, "post-run metrics scrape failed: %s\n",
                 metrics_after.status().ToString().c_str());
    return 1;
  }

  // ---- Server-observed latency beside client-observed. --------------------
  // The server's histogram covers admission + compute; the client's
  // stopwatch additionally sees HTTP decode/encode and the loopback
  // transport — the gap between the two means is the front-end's cost.
  // _sum and _count are exact and their deltas cover only this run, so
  // the server mean carries no bucket error. The server side also counts
  // the requests the client saw fail (sheds, errors).
  auto server_delta = [&](const char* metric) {
    return obs::PrometheusValue(*metrics_after, metric) -
           obs::PrometheusValue(*metrics_before, metric);
  };
  const double server_count =
      server_delta("dmvi_request_latency_seconds_count");
  const double server_mean_ms =
      server_count > 0.0
          ? server_delta("dmvi_request_latency_seconds_sum") / server_count *
                1e3
          : -1.0;
  if (server_mean_ms >= 0.0) {
    std::printf(
        "latency attribution: server-observed mean %.2f ms (admission + "
        "compute) vs client-observed mean %.2f ms (adds HTTP + transport)\n",
        server_mean_ms, mean_ms);
  }
  if (!options.request_id_prefix.empty()) {
    std::printf("request IDs: %s-0..%s-%zu, %lld echo mismatches\n",
                options.request_id_prefix.c_str(),
                options.request_id_prefix.c_str(), queries.size() - 1,
                static_cast<long long>(id_mismatches));
  }

  // ---- Slow-request report + /debug/slow cross-check. ---------------------
  // The client stopwatch encloses the server's (it adds HTTP + transport),
  // so every request the server's flight recorder calls slow must show a
  // client latency at least as large — any violation means the recorder
  // and the client disagree about what happened, which is a bug.
  bool slow_ok = true;
  if (options.slow_ms > 0.0) {
    int64_t client_slow = 0;
    for (const auto& [id, latency] : latency_by_id) {
      if (latency * 1e3 >= options.slow_ms) {
        ++client_slow;
        std::printf("slow (client): %s %.2f ms\n", id.c_str(), latency * 1e3);
      }
    }
    std::printf("%lld of %zu requests over %.1f ms client-side\n",
                static_cast<long long>(client_slow), latency_by_id.size(),
                options.slow_ms);
    StatusOr<net::HttpMessage> slow = probe.Get("/debug/slow");
    if (!slow.ok() || slow->status_code != 200) {
      std::fprintf(stderr, "GET /debug/slow failed: %s\n",
                   slow.ok() ? slow->body.c_str()
                             : slow.status().ToString().c_str());
      slow_ok = false;
    } else {
      StatusOr<net::JsonValue> doc = net::ParseJson(slow->body);
      if (!doc.ok() || !doc->at("records").is_array()) {
        std::fprintf(stderr, "unexpected /debug/slow body: %s\n",
                     slow->body.c_str());
        slow_ok = false;
      } else {
        const std::string id_prefix = options.request_id_prefix + "-";
        for (const net::JsonValue& record : doc->at("records").array_items()) {
          const std::string& id = record.at("request_id").string_value();
          if (id.compare(0, id_prefix.size(), id_prefix) != 0) continue;
          const double server_latency =
              record.at("latency_seconds").number_value();
          std::printf("slow (server): %s %.2f ms\n", id.c_str(),
                      server_latency * 1e3);
          const auto it = latency_by_id.find(id);
          if (it == latency_by_id.end()) {
            std::fprintf(stderr,
                         "slow check: server recorded %s but this client "
                         "never completed it\n",
                         id.c_str());
            slow_ok = false;
          } else if (it->second + 1e-6 < server_latency) {
            std::fprintf(stderr,
                         "slow check: %s client latency %.3f ms below the "
                         "server-observed %.3f ms\n",
                         id.c_str(), it->second * 1e3, server_latency * 1e3);
            slow_ok = false;
          }
        }
        if (slow_ok) {
          std::printf(
              "slow check: every server-recorded slow request is accounted "
              "for client-side (threshold %.6f s)\n",
              doc->at("slow_threshold_seconds").number_value());
        }
      }
    }
  }

  // ---- Counter consistency: server deltas must equal what we observed. ----
  bool counters_ok = true;
  if (options.check_server_counters) {
    // Requests that never reached the service (connect/parse failures) are
    // invisible to its counters: expected requests delta is completions
    // plus sheds (a shed counts as a failed request server-side).
    struct Check {
      const char* metric;
      int64_t expected_delta;
    };
    const Check checks[] = {
        {"dmvi_requests_total",
         static_cast<int64_t>(latencies.size()) + shed},
        {"dmvi_degraded_total", degraded},
        {"dmvi_shed_total", shed},
    };
    for (const Check& check : checks) {
      const double before =
          obs::PrometheusValue(*metrics_before, check.metric);
      const double after = obs::PrometheusValue(*metrics_after, check.metric);
      if (before < 0.0 || after < 0.0) {
        std::fprintf(stderr, "counter check: %s missing from /metrics\n",
                     check.metric);
        counters_ok = false;
        continue;
      }
      const int64_t delta = static_cast<int64_t>(after - before);
      if (delta != check.expected_delta) {
        std::fprintf(stderr,
                     "counter check: %s grew by %lld, loadgen observed %lld\n",
                     check.metric, static_cast<long long>(delta),
                     static_cast<long long>(check.expected_delta));
        counters_ok = false;
      }
    }
    if (counters_ok) {
      std::printf(
          "counter check: server deltas match (requests %lld, degraded %lld, "
          "shed %lld)\n",
          static_cast<long long>(latencies.size()) + shed,
          static_cast<long long>(degraded), static_cast<long long>(shed));
    }
  }

  if (options.expect_degraded && degraded == 0) {
    std::fprintf(stderr,
                 "expected the degradation ladder to fire but no response "
                 "carried x-dmvi-degraded\n");
    return 1;
  }
  if (options.max_p95_ms > 0.0 && p95_ms > options.max_p95_ms) {
    std::fprintf(stderr, "p95 %.2f ms exceeds the bound of %.2f ms\n", p95_ms,
                 options.max_p95_ms);
    return 1;
  }
  if (id_mismatches > 0) {
    std::fprintf(stderr,
                 "%lld responses failed to echo the client x-request-id\n",
                 static_cast<long long>(id_mismatches));
    return 1;
  }
  if (!counters_ok || !slow_ok) return 1;
  return failed == 0 && reloads_failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace deepmvi

int main(int argc, char** argv) { return deepmvi::Run(argc, argv); }
