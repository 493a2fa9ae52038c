#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/deepmvi.h"
#include "data/io.h"
#include "data/presets.h"
#include "eval/metrics.h"
#include "http.h"
#include "layers.h"
#include "load.h"
#include "net/codec.h"
#include "obs/trace.h"
#include "scenario/scenarios.h"
#include "serve/service.h"
#include "serve/workload.h"
#include "speed.h"
#include "stats.h"
#include "storage/data_source.h"

namespace perfbench {

using deepmvi::DataTensor;
using deepmvi::DatasetScale;
using deepmvi::DeepMviConfig;
using deepmvi::DeepMviImputer;
using deepmvi::Mask;
using deepmvi::Matrix;
using deepmvi::Stopwatch;
using deepmvi::TrainedDeepMvi;

namespace {

// ---- Fixed workload parameters ----------------------------------------------

constexpr double kRequestTimeoutS = 5.0;  // Per request; net::Client has none.
constexpr int kMaxFailures = 20;          // Then stop loading a broken server.
constexpr int kHttpWorkers = 4;           // dmvi_serve's default.
constexpr int kConnections = 3;           // Fewer than workers: none waits.
constexpr int kSetupLaunches = 9;         // Server start-ups per run.
constexpr int kOfflineSetups = 7;         // Offline dataset + mask builds.
constexpr int kCheckpointFits = 8;        // Serve checkpoint trainings.
// The datasets are the presets as the tools build them by default
// (--dataset-seed 1), with the tools' default MCAR mask (--scenario-seed
// 7), so the serve checkpoint is the one behind the ROADMAP's serving
// numbers; the workload seed drives the request streams. The MAE moved
// with the mask (a 2-epoch checkpoint's by 15-18%, DeepMVI's on
// JanataHack by 5.7% quartile spread over ten masks) and with the
// generator seed (up to 1.8x), which would hide a real accuracy change;
// on fixed inputs it repeats exactly.
constexpr uint64_t kDatasetSeed = 1;
constexpr uint64_t kMaskSeed = 7;
// Open-loop requests per second. At 20 req/s (one due every 50 ms against
// ~30 ms of service) a slow phase of the host that cut the closed-loop
// rate ~1.7x made requests collide and raised p95 2.6x; 100 ms apart, one
// that cut it 1.4x raised p95 1.4x.
constexpr double kOpenRate = 10.0;
constexpr int kPoolSize = 48;             // Distinct requests, cycled through.
constexpr double kOpenShare = 0.65;       // Of --seconds; the rest is closed.
constexpr double kWarmupS = 1.0;
constexpr int kStoreSeries = 28;          // JanataHack SKUs per store.
// Consistency-check tolerances (relative). A check outside its tolerance
// is a failed operation, so the traced run exits non-zero.
constexpr double kStageSumTolerance = 0.25;
constexpr double kModuleSumTolerance = 0.15;

struct LayerMetricInfo {
  const char* name;
  const char* unit;
  const char* should_move;
};

// Every per-layer metric, in report order. A layer a workload does not
// exercise reads 0 there.
const LayerMetricInfo kLayerMetrics[] = {
    {"net.read_ms", "ms", "diagnostic; ~0 for serve-query's small requests"},
    {"net.decode_ms", "ms", "diagnostic; ~0 for serve-query's small requests"},
    {"net.encode_ms", "ms", "lat_p50_ms on serve-query"},
    {"net.write_ms", "ms", "lat_p50_ms on serve-query"},
    {"net.unattributed_ms", "ms", "~0 while connections < workers"},
    {"net.accept_high_water", "count", "failed share, lat_p95_ms if conns > workers"},
    {"serve.queue_wait_ms", "ms", "lat_p50_ms, rps on serve-query"},
    {"serve.linger_ms", "ms", "lat_p50_ms on serve-query"},
    {"serve.batch_size", "count", "rps on serve-query"},
    {"serve.predict_ms", "ms", "lat_p50_ms, rps on serve-query"},
    {"serve.other_ms", "ms", "lat_p50_ms on serve-query (small)"},
    {"core.predict_ms", "ms", "lat_p50_ms, rps on serve-query; offline cells/s"},
    {"core.chunks", "count", "count only"},
    {"core.tt_ms", "ms", "as core.predict_ms"},
    {"core.kr_ms", "ms", "impute_cells_per_s on offline; ~0 on AirQ"},
    {"core.fg_ms", "ms", "small everywhere"},
    {"core.head_ms", "ms", "core.predict_ms"},
    {"core.walk_ms", "ms", "core.predict_ms"},
    {"core.useful_share", "ratio", "bounds a target-windows-only decode"},
    {"core.tape_nodes", "count", "core.predict_ms"},
    {"tensor.gemm_ms", "ms", "core.tt_ms minus it = non-arithmetic time"},
    {"tensor.gemm_gflops", "GFLOP/s", "tensor.gemm_ms"},
    {"tensor.gemm_flops", "flop", "count only"},
    {"autodiff.forward_ms", "ms", "train_samples_per_s on offline"},
    {"autodiff.backward_ms", "ms", "train_samples_per_s on offline"},
    {"nn.adam_ms", "ms", "train_samples_per_s on offline (serial part)"},
    {"common.parallel_speedup", "ratio", "train_samples_per_s on offline"},
    {"storage.window_read_us", "us", "train_samples_per_s on offline (small)"},
    {"obs.trace_overhead_pct", "%", "none; sanity check"},
    {"loadgen.late_p95_ms", "ms", "diagnostic (generator lateness)"},
    {"check.stage_ratio", "ratio", "none; must be within 1 +- 0.25 (serve)"},
    {"check.module_ratio", "ratio", "none; must be within 1 +- 0.15"},
};

std::string Format(const char* format, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

/// Independent sub-seeds of the workload seed (SplitMix64 finalizer).
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The 10% MCAR mask the tools' preset path builds: every series loses
/// 10% of its steps in blocks of 10.
Mask McarMask(int num_series, int num_times, uint64_t seed) {
  deepmvi::ScenarioConfig scenario;
  scenario.kind = deepmvi::ScenarioKind::kMcar;
  scenario.percent_incomplete = 1.0;
  scenario.seed = seed;
  return deepmvi::GenerateScenario(scenario, num_series, num_times);
}

void AddMetric(RunResult* result, const std::string& name, double value,
               const std::string& unit, long long samples = 1) {
  result->metrics.push_back({name, value, unit, samples, value});
}

void AddMetric(RunResult* result, const std::string& name, double value,
               double raw, const std::string& unit, long long samples) {
  result->metrics.push_back({name, value, unit, samples, raw});
}

/// Emits every per-layer metric; those absent from `values` read 0.
void AddLayerMetrics(RunResult* result,
                     const std::map<std::string, double>& values) {
  for (const LayerMetricInfo& info : kLayerMetrics) {
    auto it = values.find(info.name);
    AddMetric(result, info.name, it == values.end() ? 0.0 : it->second,
              info.unit);
  }
}

/// Counts a consistency check as one operation, failed when `ok` is false.
void CountCheck(bool ok, RunResult* result) {
  result->attempted += 1;
  if (!ok) result->failed += 1;
}

/// Files the in-process replays' figures under their per-layer names and
/// reports the module-sum check; a check outside its tolerance, or a
/// replica that does not reproduce Predict bit for bit, is a failed
/// operation.
void AddInProcessLayers(const CoreStats& core, const GemmStats& gemm,
                        const TrainStepStats& steps,
                        std::map<std::string, double>* layer, RunResult* result) {
  (*layer)["core.predict_ms"] = core.predict_ms;
  (*layer)["core.chunks"] = core.chunks;
  (*layer)["core.tt_ms"] = core.tt_ms;
  (*layer)["core.kr_ms"] = core.kr_ms;
  (*layer)["core.fg_ms"] = core.fg_ms;
  (*layer)["core.head_ms"] = core.head_ms;
  (*layer)["core.walk_ms"] = core.walk_self_ms;
  (*layer)["core.useful_share"] = core.useful_share;
  (*layer)["core.tape_nodes"] = core.tape_nodes;
  (*layer)["tensor.gemm_ms"] = gemm.ms;
  (*layer)["tensor.gemm_gflops"] = gemm.gflops;
  (*layer)["tensor.gemm_flops"] = gemm.flops;
  (*layer)["autodiff.forward_ms"] = steps.forward_ms;
  (*layer)["autodiff.backward_ms"] = steps.backward_ms;
  (*layer)["nn.adam_ms"] = steps.adam_ms;
  (*layer)["storage.window_read_us"] = steps.window_read_us;
  const double modules =
      core.tt_ms + core.kr_ms + core.fg_ms + core.head_ms + core.walk_self_ms;
  const double ratio = modules / core.predict_mean_ms;
  const bool pass = std::fabs(ratio - 1.0) <= kModuleSumTolerance;
  (*layer)["check.module_ratio"] = ratio;
  result->report.push_back(Format(
      "check: module self times tt+kr+fg+head+walk %.3f ms vs mean Predict %.3f "
      "ms (core.predict_ms is their median), ratio %.3f (tolerance +-%.0f%%): %s; "
      "replica walk %s Predict",
      modules, core.predict_mean_ms, ratio, kModuleSumTolerance * 100,
      pass ? "PASS" : "FAIL",
      core.replica_exact ? "bit-identical to" : "DIFFERS from"));
  CountCheck(pass, result);
  CountCheck(core.replica_exact, result);
}

/// Writes the benchmark's own spans (kept in memory during the run) as
/// Chrome trace JSON into the work directory.
bool WriteBenchmarkSpans(const deepmvi::obs::CollectingTraceSink& sink,
                         const RunOptions& options, std::string* error) {
  const deepmvi::Status written = deepmvi::obs::WriteChromeTrace(
      sink.records(), options.work_dir + "/perfbench_trace.json");
  if (!written.ok()) *error = written.ToString();
  return written.ok();
}

// ---- Serve workloads ----------------------------------------------------------

struct ServeInputs {
  DataTensor truth;  // The complete preset.
  DataTensor data;   // data.csv as dmvi_serve reads it.
  Mask base;
  TrainedDeepMvi model;  // The checkpoint dmvi_serve loads.
  std::string checkpoint;
  std::string csv;
  double train_samples_per_s = 0.0;  // Of the median fit, corrected.
  double train_samples_per_s_raw = 0.0;
  long long train_samples = 0;
  // The request pool; stream request i is pool entry i % size.
  std::vector<std::string> wires;
  std::vector<std::string> expected_cells;  // Response tail, byte-exact.
  std::vector<long long> cells;             // Cells each request fills.
  std::vector<PredictInput> inputs;  // Predict input of each pool entry.
  double mae = 0.0;
  long long mae_cells = 0;
};

bool BuildServeInputs(const RunOptions& options, ServeInputs* in,
                      std::string* error) {
  in->truth = deepmvi::MakeDataset("AirQ", DatasetScale::kReduced, kDatasetSeed);
  const int num_series = in->truth.num_series();
  const int num_times = in->truth.num_times();
  in->base = McarMask(num_series, num_times, kMaskSeed);

  // dmvi_serve gets only generated files: the dataset with the masked
  // cells written as nan, and the checkpoint.
  in->csv = options.work_dir + "/data.csv";
  if (auto s = deepmvi::WriteDataTensor(in->truth, in->csv, &in->base); !s.ok()) {
    *error = s.ToString();
    return false;
  }
  Mask read_mask;
  auto read = deepmvi::ReadDataTensor(in->csv, &read_mask);
  if (!read.ok() || !(read_mask == in->base)) {
    *error = "data.csv does not round-trip";
    return false;
  }
  in->data = std::move(read).value();

  // The checkpoint: dmvi_train --max-epochs 2 --samples 32 on data.csv,
  // trained in-process (timed, as the workload's training throughput).
  DeepMviConfig config;
  config.max_epochs = 2;
  config.samples_per_epoch = 32;
  in->checkpoint = options.work_dir + "/model.dmvi";
  // Fits rotate over the CPUs, the thread pinned to each in turn; each is
  // corrected by the reference runs interleaved between its batches.
  std::vector<double> fit_seconds, fit_raw_seconds;
  const std::vector<int> cpus = AllowedCpus();
  long long samples_per_fit = 0;
  for (int f = 0; f < kCheckpointFits; ++f) {
    PinCurrentThread(cpus[f % cpus.size()]);
    DeepMviImputer imputer(config);
    TrainedDeepMvi trained;
    double fit_s = 0.0;
    {
      FitSpeedProbe probe;
      Stopwatch watch;
      trained = imputer.Fit(in->data, in->base);
      fit_s = watch.ElapsedSeconds() - probe.reference_seconds();
      fit_seconds.push_back(fit_s / probe.slowdown());
    }
    fit_raw_seconds.push_back(fit_s);
    samples_per_fit = static_cast<long long>(imputer.train_stats().epochs_run) *
                      config.samples_per_epoch;
    in->train_samples += samples_per_fit;
    if (f == 0) {
      if (auto s = trained.Save(in->checkpoint); !s.ok()) {
        *error = s.ToString();
        return false;
      }
    }
  }
  PinCurrentThread(-1);
  in->train_samples_per_s = samples_per_fit / Median(fit_seconds);
  in->train_samples_per_s_raw = samples_per_fit / Median(fit_raw_seconds);
  auto loaded = TrainedDeepMvi::Load(in->checkpoint);
  if (!loaded.ok()) {
    *error = loaded.status().ToString();
    return false;
  }
  in->model = std::move(loaded).value();

  // The request pool and each request's expected answer, computed
  // in-process with the same checkpoint on the same input. Blocks are
  // stratified: entry k hides a block of 1-8 steps in row k % rows, at a
  // seeded position inside its own stretch of that row, so every pool
  // covers the series evenly and its accuracy does not hinge on a few
  // unlucky blocks.
  deepmvi::Rng rng(SubSeed(options.seed, 2));
  const int per_row = (kPoolSize + num_series - 1) / num_series;
  const int stretch = num_times / per_row;
  double abs_error = 0.0;
  for (int k = 0; k < kPoolSize; ++k) {
    deepmvi::serve::WorkloadQuery q;
    q.block_len = 1 + rng.UniformInt(8);
    q.row = k % num_series;
    q.t_start = (k / num_series) * stretch +
                rng.UniformInt(stretch - q.block_len + 1);
    const std::string body =
        Format("{\"query\": {\"row\": %d, \"t_start\": %d, \"block_len\": %d}}",
               q.row, q.t_start, q.block_len);
    PredictInput input;
    input.data = &in->data;
    input.mask = deepmvi::serve::ApplyQuery(in->base, q);
    deepmvi::serve::ImputationResponse expected;
    expected.imputed = in->model.Predict(*input.data, input.mask);
    const std::string full = deepmvi::net::EncodeImputedJson(expected, input.mask);
    in->expected_cells.push_back(full.substr(full.find("\"cells\": [")));
    const long long missing = input.mask.CountMissing();
    in->cells.push_back(missing);
    abs_error += deepmvi::MaeOnMissing(expected.imputed, in->truth.values(),
                                       input.mask) * static_cast<double>(missing);
    in->mae_cells += missing;
    in->wires.push_back(MakeWire("POST", "/v1/impute", body));
    in->inputs.push_back(std::move(input));
  }
  in->mae = abs_error / static_cast<double>(in->mae_cells);
  return true;
}

/// Status 200, not degraded, and the imputed cells byte-identical to the
/// in-process Predict on the same checkpoint and input.
bool ResponseCorrect(const ServeInputs& in, const OpRecord& op) {
  if (!op.transport_ok || op.response.status != 200) return false;
  const std::string& body = op.response.body;
  const std::string& want = in.expected_cells[op.index % in.wires.size()];
  return body.rfind("{\n  \"status\": \"ok\"", 0) == 0 &&
         body.size() >= want.size() &&
         body.compare(body.size() - want.size(), want.size(), want) == 0;
}

/// Keep-alive connections to one server plus the send function the load
/// phases drive.
class LoadTarget {
 public:
  LoadTarget(int port, const ServeInputs& in) : in_(in) {
    for (int c = 0; c < kConnections; ++c) {
      connections_.push_back(std::make_unique<Connection>(port));
    }
  }

  Sender sender() {
    return [this](int c, int i, Response* response, double* sent_s) {
      if (failures_.load() > kMaxFailures) {
        *sent_s = NowSeconds();
        return false;
      }
      const bool ok = connections_[c]->RoundTrip(
          in_.wires[i % in_.wires.size()], kRequestTimeoutS, response, sent_s);
      if (!ok || response->status != 200) failures_.fetch_add(1);
      return ok;
    };
  }

  void Close() {
    for (auto& connection : connections_) connection->Close();
  }

 private:
  const ServeInputs& in_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::atomic<int> failures_{0};
};

struct ServePhases {
  PhaseResult open;
  PhaseResult closed;
  PromScrape before_open, after_open, after_closed;
  double peak_rss_mb = 0.0;
};

double OpenSeconds(double seconds) {
  // Enough samples that p95 has at least ten beyond it.
  return std::max(kOpenShare * seconds,
                  (LatencySample::MinSamplesFor(0.95) + 1) / kOpenRate);
}

bool Scrape(int port, PromScrape* out) {
  Response response;
  if (!FetchOnce(port, "/metrics", kRequestTimeoutS, &response) ||
      response.status != 200) {
    return false;
  }
  *out = ParsePrometheus(response.body);
  return true;
}

/// Warm-up, then the open-loop and closed-loop phases against a running
/// server; with `scrape`, /metrics is read around each phase on a fresh
/// connection that is closed again.
bool DrivePhases(const ServeInputs& in, ServerProcess* server, double open_s,
                 double closed_s, bool scrape, ServePhases* out,
                 std::string* error) {
  LoadTarget target(server->port(), in);
  RunClosedLoop(kWarmupS, kConnections, target.sender());
  if (scrape && !Scrape(server->port(), &out->before_open)) {
    *error = "cannot scrape /metrics";
    return false;
  }
  out->open = RunOpenLoop(kOpenRate, open_s, kConnections, target.sender());
  if (scrape && !Scrape(server->port(), &out->after_open)) {
    *error = "cannot scrape /metrics";
    return false;
  }
  if (closed_s > 0.0) {
    out->closed = RunClosedLoop(closed_s, kConnections, target.sender());
  }
  if (scrape && !Scrape(server->port(), &out->after_closed)) {
    *error = "cannot scrape /metrics";
    return false;
  }
  out->peak_rss_mb = server->PeakRssMb();
  target.Close();
  return true;
}

std::vector<std::string> ServerArgs(const ServeInputs& in) {
  return {"--model", in.checkpoint, "--input", in.csv, "--http-workers",
          std::to_string(kHttpWorkers)};
}

/// Counts ops, checks every output, and folds the failures into `result`.
LatencySample CheckPhase(const PhaseResult& phase, const ServeInputs& in,
                         RunResult* result) {
  LatencySample sample =
      LatenciesOf(phase, [&](const OpRecord& op) { return ResponseCorrect(in, op); });
  result->attempted += sample.attempted();
  result->failed += sample.failed();
  return sample;
}

/// One line per op (times in ms from the phase start), for looking at a
/// run's latency over time.
void WritePhaseCsv(const PhaseResult& phase, const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "index,connection,due_ms,sent_ms,done_ms,status\n");
  for (const OpRecord& op : phase.ops) {
    std::fprintf(out, "%d,%d,%.3f,%.3f,%.3f,%d\n", op.index, op.connection,
                 (op.due_s - phase.started_s) * 1e3,
                 (op.sent_s - phase.started_s) * 1e3,
                 (op.done_s - phase.started_s) * 1e3, op.response.status);
  }
  std::fclose(out);
}

double LatenessP95(const PhaseResult& phase) {
  LatencySample lateness;
  for (const OpRecord& op : phase.ops) lateness.AddCompleted(op.LatenessMs());
  return lateness.Quantile(0.95);
}

bool RunServe(const RunOptions& options, RunResult* result, std::string* error) {
  ServeInputs in;
  if (!BuildServeInputs(options, &in, error)) return false;
  const std::string log = options.work_dir + "/dmvi_serve.log";
  result->report.push_back(Format(
      "serve-query: AirQ %dx%d, 10%% MCAR base mask (%lld cells), request seed "
      "%llu; query requests, pool %d; dmvi_serve --http-workers %d, %d "
      "connections",
      in.data.num_series(), in.data.num_times(),
      static_cast<long long>(in.base.CountMissing()),
      static_cast<unsigned long long>(options.seed), kPoolSize, kHttpWorkers,
      kConnections));
  const double open_s = OpenSeconds(options.seconds);
  const double closed_s = std::max(1.0, options.seconds - open_s);
  const std::vector<std::string> args = ServerArgs(in);

  if (!options.trace) {
    // Set-up: each timed launch runs the server on one CPU, the next in
    // turn, right after the reference on that CPU (as offline's set-up
    // builds); /healthz is polled from another CPU. The server under load
    // is launched once more, on every CPU.
    ServerProcess server;
    std::vector<double> setup_s, setup_raw_s;
    const std::vector<int> cpus = AllowedCpus();
    for (int launch = 0; launch < kSetupLaunches; ++launch) {
      const int cpu = cpus[launch % cpus.size()];
      PinCurrentThread(cpu);
      const double slowdown = SlowdownHere(0.03);
      PinCurrentThread(cpus[(launch + 1) % cpus.size()]);
      const double s = server.Start(options.serve_binary, args, options.work_dir,
                                    log, 60.0, error, cpu);
      server.Stop();
      if (s < 0.0) return false;
      setup_raw_s.push_back(s);
      setup_s.push_back(s / slowdown);
    }
    PinCurrentThread(-1);
    if (server.Start(options.serve_binary, args, options.work_dir, log, 60.0,
                     error) < 0.0) {
      return false;
    }
    ServePhases phases;
    if (!DrivePhases(in, &server, open_s, closed_s, false, &phases, error)) {
      return false;
    }
    server.Stop();
    WritePhaseCsv(phases.open, options.work_dir + "/open_loop.csv");
    WritePhaseCsv(phases.closed, options.work_dir + "/closed_loop.csv");
    const LatencySample open = CheckPhase(phases.open, in, result);
    const LatencySample closed = CheckPhase(phases.closed, in, result);
    long long closed_ok = 0, closed_cells = 0;
    for (const OpRecord& op : phases.closed.ops) {
      if (!ResponseCorrect(in, op)) continue;
      ++closed_ok;
      closed_cells += in.cells[op.index % in.cells.size()];
    }
    const double closed_elapsed = phases.closed.ended_s - phases.closed.started_s;
    const double timeout_ms = kRequestTimeoutS * 1e3;
    auto capped = [timeout_ms](double v) { return std::min(v, timeout_ms); };
    AddMetric(result, "lat_p50_ms", capped(open.Median()), "ms", open.attempted());
    AddMetric(result, "lat_p95_ms", capped(open.Quantile(0.95)), "ms",
              open.attempted());
    AddMetric(result, "rps", closed_ok / closed_elapsed, "req/s", closed_ok);
    AddMetric(result, "train_samples_per_s", in.train_samples_per_s,
              in.train_samples_per_s_raw, "samples/s", in.train_samples);
    AddMetric(result, "impute_cells_per_s", closed_cells / closed_elapsed,
              "cells/s", closed_cells);
    AddMetric(result, "mae", in.mae, "data_units", in.mae_cells);
    AddMetric(result, "setup_s", Median(setup_s), Median(setup_raw_s), "s",
              kSetupLaunches);
    AddMetric(result, "peak_rss_mb", phases.peak_rss_mb, "MiB", 1);
    result->report.push_back(Format(
        "open loop %.0f req/s for %.1f s: %d sent, %d beyond p95, generator "
        "lateness p95 %.3f ms; closed loop %.1f s: %d sent",
        kOpenRate, open_s, open.attempted(), open.SamplesBeyond(0.95),
        LatenessP95(phases.open), closed_elapsed, closed.attempted()));
    return true;
  }

  // ---- Traced run: per-layer figures. ----------------------------------------
  std::map<std::string, double> layer;
  // Untraced reference for the tracing overhead, then the traced server.
  double untraced_p50 = 0.0;
  {
    ServerProcess server;
    if (server.Start(options.serve_binary, args, options.work_dir, log, 60.0,
                     error) < 0.0) {
      return false;
    }
    ServePhases phases;
    if (!DrivePhases(in, &server, open_s / 2, 0.0, false, &phases, error)) {
      return false;
    }
    untraced_p50 = CheckPhase(phases.open, in, result).Median();
  }
  std::vector<std::string> traced_args = args;
  traced_args.insert(traced_args.end(),
                     {"--trace-out", options.work_dir + "/dmvi_serve_trace.json"});
  ServerProcess server;
  if (server.Start(options.serve_binary, traced_args, options.work_dir, log, 60.0,
                   error) < 0.0) {
    return false;
  }
  ServePhases phases;
  if (!DrivePhases(in, &server, open_s / 2, closed_s / 2, true, &phases, error)) {
    return false;
  }
  server.Stop();
  const LatencySample open = CheckPhase(phases.open, in, result);
  CheckPhase(phases.closed, in, result);
  LatencySample service;  // Client send -> receive.
  double service_sum = 0.0;
  for (const OpRecord& op : phases.open.ops) {
    service.AddCompleted(op.ServiceMs());
    service_sum += op.ServiceMs();
  }
  const PromScrape& a = phases.before_open;
  const PromScrape& b = phases.after_open;
  const PromScrape& c = phases.after_closed;
  const double read = HistogramMeanMs(a, b, "dmvi_stage_http_read_seconds");
  const double handle = HistogramMeanMs(a, b, "dmvi_stage_http_handle_seconds");
  const double write = HistogramMeanMs(a, b, "dmvi_stage_http_write_seconds");
  const double decode = HistogramMeanMs(a, b, "dmvi_stage_decode_seconds");
  const double encode = HistogramMeanMs(a, b, "dmvi_stage_encode_seconds");
  const double queue = HistogramMeanMs(a, b, "dmvi_stage_queue_wait_seconds");
  const double predict = HistogramMeanMs(a, b, "dmvi_stage_predict_seconds");
  layer["net.read_ms"] = read;
  layer["net.decode_ms"] = decode;
  layer["net.encode_ms"] = encode;
  layer["net.write_ms"] = write;
  layer["net.unattributed_ms"] =
      service_sum / service.attempted() - (read + handle + write);
  layer["net.accept_high_water"] = c.count("dmvi_accept_queue_high_water")
                                       ? c.at("dmvi_accept_queue_high_water")
                                       : 0.0;
  layer["serve.queue_wait_ms"] = queue;
  layer["serve.linger_ms"] =
      HistogramMeanMs(a, b, "dmvi_stage_batch_assemble_seconds");
  const double batches = PromDelta(b, c, "dmvi_batches_total");
  layer["serve.batch_size"] =
      batches > 0 ? PromDelta(b, c, "dmvi_requests_total") / batches : 0.0;
  layer["serve.predict_ms"] = predict;
  layer["serve.other_ms"] = handle - decode - queue - predict - encode;
  layer["loadgen.late_p95_ms"] = LatenessP95(phases.open);
  layer["obs.trace_overhead_pct"] = (open.Median() / untraced_p50 - 1.0) * 100.0;
  const double stage_ratio = (read + handle + write) / service.Median();
  const bool stage_pass = std::fabs(stage_ratio - 1.0) <= kStageSumTolerance;
  layer["check.stage_ratio"] = stage_ratio;
  result->report.push_back(Format(
      "check: server stages read+handle+write %.3f ms vs client median "
      "send->receive %.3f ms, ratio %.3f (tolerance +-%.0f%%): %s",
      read + handle + write, service.Median(), stage_ratio,
      kStageSumTolerance * 100, stage_pass ? "PASS" : "FAIL"));
  CountCheck(stage_pass, result);

  // In-process replays on the workload's own inputs.
  deepmvi::obs::CollectingTraceSink sink;
  deepmvi::obs::Tracer tracer(&sink);
  ModelInternals internals;
  if (auto s = LoadInternals(in.checkpoint, in.model, &internals); !s.ok()) {
    *error = s.ToString();
    return false;
  }
  const std::vector<PredictInput> core_inputs(
      in.inputs.begin(), in.inputs.begin() + std::min<size_t>(16, in.inputs.size()));
  const CoreStats core = MeasureCore(in.model, internals, core_inputs, 3, &tracer,
                                     &sink);
  const GemmStats gemm = MeasureGemm(in.model, in.inputs[0], 5);
  const TrainStepStats steps = MeasureTrainSteps(
      &internals, in.data, in.base, 64, SubSeed(options.seed, 3), &tracer);
  DeepMviConfig config;
  config.max_epochs = 2;
  config.samples_per_epoch = 32;
  std::vector<double> fit_s[2];
  for (int rep = 0; rep < 3; ++rep) {
    for (int threads : {1, 2}) {
      config.num_threads = threads;
      DeepMviImputer imputer(config);
      Stopwatch watch;
      imputer.Fit(in.data, in.base);
      fit_s[threads - 1].push_back(watch.ElapsedSeconds());
    }
  }
  layer["common.parallel_speedup"] = Median(fit_s[0]) / Median(fit_s[1]);
  AddInProcessLayers(core, gemm, steps, &layer, result);
  AddLayerMetrics(result, layer);
  return WriteBenchmarkSpans(sink, options, error);
}

// ---- Offline workload -----------------------------------------------------------

bool RunOffline(const RunOptions& options, RunResult* result,
                std::string* error) {
  // Set-up: the dataset and its mask, built several times for a median.
  std::vector<double> setup_s;
  DataTensor truth;
  Mask mask;
  std::vector<double> setup_raw_s;
  const std::vector<int> cpus = AllowedCpus();
  for (int i = 0; i < kOfflineSetups; ++i) {
    PinCurrentThread(cpus[i % cpus.size()]);
    const double slowdown = SlowdownHere(0.03);
    Stopwatch watch;
    truth = deepmvi::MakeDataset("JanataHack", DatasetScale::kFull, kDatasetSeed);
    mask = McarMask(truth.num_series(), truth.num_times(), kMaskSeed);
    setup_raw_s.push_back(watch.ElapsedSeconds());
    setup_s.push_back(setup_raw_s.back() / slowdown);
  }
  PinCurrentThread(-1);
  const long long missing = mask.CountMissing();
  result->report.push_back(Format(
      "offline: JanataHack %dx%d (%d dims), 10%% MCAR (%lld cells), mask seed %llu, "
      "call-order seed %llu; Fit and Predict on 1 thread",
      truth.num_series(), truth.num_times(), truth.num_dims(), missing,
      static_cast<unsigned long long>(kMaskSeed),
      static_cast<unsigned long long>(options.seed)));

  // One training thread: the reference runs between batches then share
  // the training's CPU, so the correction tracks it (with 2 threads it did
  // not); the traced run reports the 2-thread speed-up. One fit: with two,
  // peak_rss_mb read 23.6 or 25.9 MiB from run to run.
  DeepMviConfig config;
  config.num_threads = 1;
  DeepMviImputer imputer(config);
  TrainedDeepMvi model;
  double fit_s = 0.0, fit_slowdown = 1.0;
  {
    FitSpeedProbe probe;
    Stopwatch fit_watch;
    model = imputer.Fit(truth, mask);
    fit_s = fit_watch.ElapsedSeconds() - probe.reference_seconds();
    fit_slowdown = probe.slowdown();
  }
  const long long trained = static_cast<long long>(imputer.train_stats().epochs_run) *
                            config.samples_per_epoch;

  // Per-store requests: one PredictCells call per store's missing cells,
  // against the same mask, so each must equal Predict at those cells. The
  // workload seed orders each pass's calls.
  const int stores = truth.num_series() / kStoreSeries;
  std::vector<std::vector<deepmvi::CellIndex>> store_cells(stores);
  for (const deepmvi::CellIndex& cell : mask.MissingIndices()) {
    store_cells[std::min(cell.series / kStoreSeries, stores - 1)].push_back(cell);
  }
  deepmvi::storage::InMemoryDataSource source(&truth);

  if (!options.trace) {
    // Passes of one Predict plus one round of per-store calls, each pass
    // pinned to the next CPU in turn and corrected by that CPU's slowdown;
    // medians over passes.
    Matrix first;
    std::vector<double> predict_s, predict_raw_s, pass_rates, pass_raw_rates;
    std::vector<double> slowdowns;
    LatencySample calls, raw_calls;
    deepmvi::Rng call_order_rng(SubSeed(options.seed, 1));
    std::vector<int> order(stores);
    for (int s = 0; s < stores; ++s) order[s] = s;
    const double budget_end = NowSeconds() + std::max(0.0, options.seconds - fit_s);
    const int min_passes = std::max<int>(
        (LatencySample::MinSamplesFor(0.95) + stores - 1) / stores, cpus.size());
    for (int pass = 0; pass < min_passes || NowSeconds() < budget_end; ++pass) {
      // The pass's slowdown: reference runs interleaved with its calls on
      // the same thread, so both see the same CPU at the same time.
      PinCurrentThread(cpus[pass % cpus.size()]);
      std::vector<double> reference_ms = {SlowdownHere(0.01) * kReferenceMs};
      Stopwatch predict_watch;
      Matrix out = model.Predict(truth, mask);
      const double predict_raw = predict_watch.ElapsedSeconds();
      if (pass == 0) first = std::move(out);
      const bool same = pass == 0 || std::equal(out.data(), out.data() + out.size(),
                                                first.data());
      if (!same) result->correct = false;
      double pass_busy_s = 0.0;
      std::vector<double> pass_ms;
      std::vector<bool> pass_exact;
      call_order_rng.Shuffle(order);
      for (int s : order) {
        reference_ms.push_back(TimeReferenceMs());
        const double t0 = NowSeconds();
        auto predicted = model.PredictCells(source, mask, store_cells[s]);
        const double ms = (NowSeconds() - t0) * 1e3;
        pass_busy_s += ms * 1e-3;
        bool exact = predicted.ok();
        for (size_t i = 0; exact && i < store_cells[s].size(); ++i) {
          const deepmvi::CellIndex& cell = store_cells[s][i];
          exact = (*predicted)[i] == first(cell.series, cell.time);
        }
        pass_ms.push_back(ms);
        pass_exact.push_back(exact);
      }
      reference_ms.push_back(TimeReferenceMs());
      const double slowdown = Median(reference_ms) / kReferenceMs;
      slowdowns.push_back(slowdown);
      predict_raw_s.push_back(predict_raw);
      predict_s.push_back(predict_raw / slowdown);
      for (size_t c = 0; c < pass_ms.size(); ++c) {
        if (pass_exact[c]) {
          calls.AddCompleted(pass_ms[c] / slowdown);
          raw_calls.AddCompleted(pass_ms[c]);
        } else {
          calls.AddFailed();
          raw_calls.AddFailed();
        }
      }
      // Calls per second of call time (the reference runs in between are
      // not the program's).
      pass_raw_rates.push_back(stores / pass_busy_s);
      pass_rates.push_back(pass_raw_rates.back() * slowdown);
    }
    PinCurrentThread(-1);
    result->attempted = calls.attempted() + static_cast<long long>(predict_s.size()) + 1;
    result->failed = calls.failed() + (result->correct ? 0 : 1);
    const double median_predict_s = Median(predict_s);
    const double timeout_ms = kRequestTimeoutS * 1e3;
    auto capped = [timeout_ms](double v) { return std::min(v, timeout_ms); };
    AddMetric(result, "lat_p50_ms", capped(calls.Median()),
              capped(raw_calls.Median()), "ms", calls.attempted());
    AddMetric(result, "lat_p95_ms", capped(calls.Quantile(0.95)),
              capped(raw_calls.Quantile(0.95)), "ms", calls.attempted());
    AddMetric(result, "rps", Median(pass_rates), Median(pass_raw_rates), "req/s",
              calls.attempted());
    AddMetric(result, "train_samples_per_s", trained / fit_s * fit_slowdown,
              trained / fit_s, "samples/s", trained);
    AddMetric(result, "impute_cells_per_s", missing / median_predict_s,
              missing / Median(predict_raw_s), "cells/s",
              static_cast<long long>(predict_s.size()));
    AddMetric(result, "mae", deepmvi::MaeOnMissing(first, truth.values(), mask),
              "data_units", missing);
    AddMetric(result, "setup_s", Median(setup_s), Median(setup_raw_s), "s",
              kOfflineSetups);
    AddMetric(result, "peak_rss_mb", ReadPeakRssMb("self"), "MiB", 1);
    result->report.push_back(Format(
        "Fit %.2f s (%d epochs); %zu Predict calls, median %.1f ms; %d "
        "per-store PredictCells calls, %d beyond p95",
        fit_s, imputer.train_stats().epochs_run, predict_s.size(),
        median_predict_s * 1e3, calls.attempted(), calls.SamplesBeyond(0.95)));
    result->report.push_back(Format(
        "machine slowdown of the passes: median %.3f (min %.3f, max %.3f); "
        "times divided, rates multiplied by it; raw column = measured",
        Median(slowdowns),
        *std::min_element(slowdowns.begin(), slowdowns.end()),
        *std::max_element(slowdowns.begin(), slowdowns.end())));
    return true;
  }

  // ---- Traced run. --------------------------------------------------------------
  std::map<std::string, double> layer;
  config.num_threads = 2;
  DeepMviImputer parallel(config);
  Stopwatch parallel_watch;
  parallel.Fit(truth, mask);
  layer["common.parallel_speedup"] = fit_s / parallel_watch.ElapsedSeconds();
  const std::string checkpoint = options.work_dir + "/offline.dmvi";
  ModelInternals internals;
  if (auto s = model.Save(checkpoint); !s.ok()) {
    *error = s.ToString();
    return false;
  }
  if (auto s = LoadInternals(checkpoint, model, &internals); !s.ok()) {
    *error = s.ToString();
    return false;
  }
  deepmvi::obs::CollectingTraceSink sink;
  deepmvi::obs::Tracer tracer(&sink);
  PredictInput input;
  input.data = &truth;
  input.mask = mask;
  const CoreStats core = MeasureCore(model, internals, {input}, 5, &tracer, &sink);
  const GemmStats gemm = MeasureGemm(model, input, 3);
  const TrainStepStats steps =
      MeasureTrainSteps(&internals, truth, mask, 256, SubSeed(options.seed, 3),
                        &tracer);
  result->attempted = 1;
  layer["obs.trace_overhead_pct"] =
      (core.walk_ms / core.predict_mean_ms - 1.0) * 100.0;
  AddInProcessLayers(core, gemm, steps, &layer, result);
  AddLayerMetrics(result, layer);
  return WriteBenchmarkSpans(sink, options, error);
}

}  // namespace

RunResult RunWorkload(const RunOptions& options, std::string* error) {
  RunResult result;
  bool ok = false;
  if (options.workload == "serve-query") {
    ok = RunServe(options, &result, error);
  } else if (options.workload == "offline") {
    ok = RunOffline(options, &result, error);
  } else {
    *error = "unknown workload '" + options.workload + "'";
  }
  if (!ok && error->empty()) *error = "run failed";
  if (result.failed > 0) result.correct = false;
  return result;
}

const char* ShouldMove(const std::string& per_layer_metric) {
  for (const LayerMetricInfo& info : kLayerMetrics) {
    if (per_layer_metric == info.name) return info.should_move;
  }
  return "";
}

}  // namespace perfbench
