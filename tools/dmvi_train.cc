// dmvi_train: fit a DeepMVI model once and save it as a checkpoint, the
// training half of the train-once/serve-many split (dmvi_serve is the
// other half).
//
//   dmvi_train --preset AirQ [--scale quick|full] [--scenario MCAR]
//              [--scenario-seed S] --output model.dmvi
//   dmvi_train --input data.csv [--mask mask.csv] --output model.dmvi
//   dmvi_train --data-dir DIR [--cache-mb N | --in-core] --output model.dmvi
//
// --data-dir trains from a chunked store written by dmvi_shard (the mask
// comes from DIR/mask.csv): training streams value windows through a
// --cache-mb-bounded chunk cache, so peak residency stays far below the
// dense tensor and the checkpoint is byte-identical to in-core training
// on the same data. --in-core instead materializes the store into a dense
// tensor and runs the historical in-core path — the reference side of the
// CI `cmp` that enforces that identity.
//
// Model knobs: --seed, --max-epochs, --samples, --window, --filters,
// --heads. Training runs on one thread. Before anything trains, a numeric
// flag whose value is not a whole integer exits 2 and names the flag, and
// so does a model knob outside its field's range in
// DeepMviConfig::Validate, the check Fit and Load run too. With --impute-csv PATH the freshly trained model also
// imputes the training dataset in-process and writes the result — CI
// compares it byte-for-byte against dmvi_serve's output for the same
// checkpoint to prove the save/load path is exact.
//
// Presets have no missing values of their own, so a scenario mask
// (default MCAR, seed 7) supplies the training missing pattern; CSV
// inputs use their inline nan/empty cells plus an optional --mask file.
//
// --profile-out FILE samples the fit with the obs CPU profiler (at
// --profile-hz, default 99) and writes collapsed stacks — feed the file to
// flamegraph.pl or speedscope. Profiling, like tracing, never changes the
// checkpoint bytes.

#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/deepmvi.h"
#include "data/io.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "storage/chunk_cache.h"
#include "storage/chunk_store.h"
#include "storage/data_source.h"
#include "tools/dataset_flags.h"

namespace deepmvi {
namespace {

int Run(int argc, char** argv) {
  std::string output = "model.dmvi", impute_csv, data_dir, trace_out;
  std::string profile_out;
  int profile_hz = obs::CpuProfiler::kDefaultHz;
  obs::TraceLevel trace_level = obs::TraceLevel::kKernel;
  tools::DatasetSpec dataset_spec;
  DeepMviConfig config;
  int cache_mb = 256;
  bool in_core = false;
  bool missing_value = false, bad_value = false;
  // The model's int flags take any int: DeepMviConfig::Validate bounds
  // them once parsing is done.
  const std::pair<const char*, int*> model_flags[] = {
      {"--max-epochs", &config.max_epochs},
      {"--samples", &config.samples_per_epoch},
      {"--window", &config.window},
      {"--filters", &config.filters},
      {"--heads", &config.num_heads}};
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
    const std::pair<const char*, int*>* model_flag = nullptr;
    for (const auto& flag : model_flags) {
      if ((value = next(flag.first))) {
        model_flag = &flag;
        break;
      }
    }
    if (model_flag != nullptr) {
      if (!tools::ParseIntegerFlag(model_flag->first, value, INT_MIN, INT_MAX,
                                   model_flag->second)) {
        return 2;
      }
    } else if ((value = next("--output"))) {
      output = value;
    } else if ((value = next("--data-dir"))) {
      data_dir = value;
    } else if ((value = next("--cache-mb"))) {
      if (!tools::ParseIntegerFlag("--cache-mb", value, 0, INT_MAX,
                                   &cache_mb)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--in-core") == 0) {
      in_core = true;
    } else if ((value = next("--impute-csv"))) {
      impute_csv = value;
    } else if ((value = next("--seed"))) {
      if (!tools::ParseIntegerFlag("--seed", value, 0, LLONG_MAX,
                                   &config.seed)) {
        return 2;
      }
    } else if ((value = next("--profile-out"))) {
      profile_out = value;
    } else if ((value = next("--profile-hz"))) {
      if (!tools::ParseIntegerFlag("--profile-hz", value, 1, INT_MAX,
                                   &profile_hz)) {
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
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: dmvi_train (--preset NAME [--scale quick|full]\n"
          "                   [--scenario MCAR] [--scenario-seed S]\n"
          "                   [--dataset-seed S] | --input data.csv\n"
          "                   [--mask mask.csv] | --data-dir DIR\n"
          "                   [--cache-mb N | --in-core])\n"
          "                  [--output model.dmvi] [--impute-csv out.csv]\n"
          "                  [--seed N] [--max-epochs N] [--samples N]\n"
          "                  [--window W] [--filters P] [--heads H]\n"
          "                  [--profile-out stacks.txt [--profile-hz N]]\n"
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
  if (Status valid = config.Validate(); !valid.ok()) {
    std::fprintf(stderr, "%s (see --help)\n", valid.message().c_str());
    return 2;
  }

  // ---- Assemble the training dataset and mask. ---------------------------
  DataTensor data;
  Mask mask;
  storage::ChunkedSeriesStore store;
  bool chunked = false;
  if (!data_dir.empty()) {
    if (!dataset_spec.preset.empty() || !dataset_spec.input.empty() ||
        !dataset_spec.mask_path.empty()) {
      std::fprintf(stderr,
                   "--data-dir conflicts with --preset/--input/--mask (the "
                   "store's mask.csv is the training mask)\n");
      return 2;
    }
    StatusOr<storage::ChunkedSeriesStore> opened =
        storage::ChunkedSeriesStore::Open(data_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "error opening store %s: %s\n", data_dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    store = std::move(opened).value();
    StatusOr<Mask> mask_or =
        ReadMask(data_dir + "/" + storage::kMaskFileName);
    if (!mask_or.ok()) {
      std::fprintf(stderr, "error reading store mask: %s\n",
                   mask_or.status().ToString().c_str());
      return 1;
    }
    mask = std::move(mask_or).value();
    if (mask.rows() != store.num_series() || mask.cols() != store.num_times()) {
      std::fprintf(stderr, "store mask shape %dx%d does not match store %dx%d\n",
                   mask.rows(), mask.cols(), store.num_series(),
                   store.num_times());
      return 1;
    }
    if (in_core) {
      // Reference path: materialize the dense tensor and train in-core.
      StatusOr<DataTensor> tensor = store.ReadTensor();
      if (!tensor.ok()) {
        std::fprintf(stderr, "error materializing store: %s\n",
                     tensor.status().ToString().c_str());
        return 1;
      }
      data = std::move(tensor).value();
    } else {
      chunked = true;
    }
  } else if (int exit_code =
                 tools::BuildDatasetAndMask(dataset_spec, &data, &mask)) {
    return exit_code;
  }
  if (mask.CountMissing() == 0) {
    std::fprintf(stderr,
                 "training mask has no missing cells; nothing to learn from\n");
    return 1;
  }
  if (chunked && !impute_csv.empty()) {
    std::fprintf(stderr,
                 "--impute-csv needs the dense tensor; combine --data-dir "
                 "with --in-core\n");
    return 2;
  }

  // ---- Tracing: training spans (epochs, batches, kernels) via the
  // process-global tracer; kernel level is the default here because the
  // blocked MatMul and storage chunk loads are what a training trace is
  // for. Tracing never touches the numerics — the checkpoint is
  // byte-identical either way.
  std::unique_ptr<obs::CollectingTraceSink> trace_sink;
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_out.empty()) {
    trace_sink = std::make_unique<obs::CollectingTraceSink>();
    tracer = std::make_unique<obs::Tracer>(trace_sink.get(), trace_level);
    obs::SetGlobalTracer(tracer.get());
  }

  // ---- Profiling: sample the fit and write collapsed stacks. Like
  // tracing, the profiler only observes — the checkpoint is byte-identical
  // with or without --profile-out (CI cmp-enforces this).
  if (!profile_out.empty()) {
    if (Status started = obs::CpuProfiler::Start(profile_hz); !started.ok()) {
      std::fprintf(stderr, "cannot start profiler: %s\n",
                   started.ToString().c_str());
      return 1;
    }
  }

  // ---- Fit and checkpoint. ------------------------------------------------
  std::printf("fitting DeepMVI on %d series x %d steps (%.2f%% missing)%s\n",
              mask.rows(), mask.cols(), 100.0 * mask.MissingFraction(),
              chunked ? " from chunked store" : "");
  DeepMviImputer imputer(config);
  Stopwatch watch;
  TrainedDeepMvi model;
  if (chunked) {
    storage::ChunkCache cache(static_cast<int64_t>(cache_mb) << 20);
    storage::ChunkedDataSource source(&store, &cache);
    StatusOr<TrainedDeepMvi> trained = imputer.Fit(source, mask);
    if (!trained.ok()) {
      std::fprintf(stderr, "training failed: %s\n",
                   trained.status().ToString().c_str());
      return 1;
    }
    model = std::move(trained).value();
    const storage::ChunkCache::Stats cs = cache.stats();
    std::printf(
        "chunk cache: %lld hits, %lld misses, %lld evictions, peak %.1f MiB "
        "(budget %d MiB)\n",
        static_cast<long long>(cs.hits), static_cast<long long>(cs.misses),
        static_cast<long long>(cs.evictions),
        static_cast<double>(cs.peak_bytes) / (1024.0 * 1024.0), cache_mb);
  } else {
    model = imputer.Fit(data, mask);
  }
  const double fit_seconds = watch.ElapsedSeconds();
  if (!profile_out.empty()) {
    const obs::ProfileResult profile = obs::CpuProfiler::Stop();
    std::ofstream out(profile_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", profile_out.c_str());
      return 1;
    }
    out << profile.collapsed;
    std::printf(
        "wrote profile %s (%lld samples at %d Hz over %.2fs, %lld dropped)\n",
        profile_out.c_str(), static_cast<long long>(profile.samples),
        profile.hz, profile.duration_seconds,
        static_cast<long long>(profile.dropped));
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
  const auto& stats = imputer.train_stats();
  std::printf(
      "fit in %.2fs: %d epochs, window %d, best validation loss %.6f, "
      "%lld parameters\n",
      fit_seconds, stats.epochs_run, stats.window_used,
      stats.best_validation_loss,
      static_cast<long long>(model.num_parameters()));

  Status saved = model.Save(output);
  if (!saved.ok()) {
    std::fprintf(stderr, "error writing %s: %s\n", output.c_str(),
                 saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote checkpoint %s\n", output.c_str());

  if (!impute_csv.empty()) {
    Matrix imputed = model.Predict(data, mask);
    Status status =
        WriteDataTensor(DataTensor(data.dims(), std::move(imputed)), impute_csv);
    if (!status.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", impute_csv.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("wrote in-process imputation %s\n", impute_csv.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace deepmvi

int main(int argc, char** argv) { return deepmvi::Run(argc, argv); }
