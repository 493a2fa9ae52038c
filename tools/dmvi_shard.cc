// dmvi_shard: convert a dataset into the chunked time-block store format
// (src/storage) that dmvi_train / dmvi_bench_suite can train from with
// bounded memory (--data-dir).
//
//   dmvi_shard --input data.csv [--mask mask.csv] --out-dir DIR
//   dmvi_shard --preset AirQ [--scale quick|full] [--scenario MCAR]
//              [--scenario-seed S] [--dataset-seed S] --out-dir DIR
//   dmvi_shard --synth-series N --synth-length T [--synth-seed S]
//              [--scenario MCAR] [--scenario-seed S] --out-dir DIR
//
// Chunk geometry: --series-per-chunk (default 64) x --times-per-chunk
// (default 4096). The output directory holds manifest.dmvs + chunks.bin
// (see storage/chunk_store.h) plus mask.csv with the training
// availability mask.
//
// CSV inputs stream row by row (data/io CsvSeriesReader -> chunk writer),
// so files larger than RAM convert fine: peak memory is one series-group
// buffer (series_per_chunk x num_times doubles), never the full matrix.
// Presets and synthetic datasets are generated in-core first (their
// generators are), then written through the same streaming writer.

#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "storage/chunk_store.h"
#include "tools/dataset_flags.h"

namespace deepmvi {
namespace {

std::string MaskPath(const std::string& dir) {
  return dir + "/" + storage::kMaskFileName;
}

/// Streams a CSV into the store, writing mask.csv row by row alongside.
/// `extra_mask` (from --mask) is AND-combined per row when present.
int ShardCsv(const std::string& input, const std::string& extra_mask_path,
             const std::string& out_dir, const storage::ChunkStoreOptions& options) {
  Mask extra_mask;
  bool have_extra = false;
  if (!extra_mask_path.empty()) {
    StatusOr<Mask> loaded = ReadMask(extra_mask_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error reading %s: %s\n", extra_mask_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    extra_mask = std::move(loaded).value();
    have_extra = true;
  }

  StatusOr<CsvSeriesReader> reader = CsvSeriesReader::Open(input);
  if (!reader.ok()) {
    std::fprintf(stderr, "error opening %s: %s\n", input.c_str(),
                 reader.status().ToString().c_str());
    return 1;
  }
  StatusOr<std::unique_ptr<storage::ChunkedSeriesStoreWriter>> writer =
      storage::ChunkedSeriesStoreWriter::Create(out_dir, options);
  if (!writer.ok()) {
    std::fprintf(stderr, "%s\n", writer.status().ToString().c_str());
    return 1;
  }
  std::ofstream mask_out(MaskPath(out_dir));
  if (!mask_out) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 MaskPath(out_dir).c_str());
    return 1;
  }

  std::vector<double> values;
  std::vector<uint8_t> missing;
  while (true) {
    StatusOr<bool> more = reader->NextRow(&values, &missing);
    if (!more.ok()) {
      std::fprintf(stderr, "error reading %s: %s\n", input.c_str(),
                   more.status().ToString().c_str());
      return 1;
    }
    if (!*more) break;
    const int row = reader->rows_read() - 1;
    if (have_extra && (extra_mask.rows() <= row ||
                       extra_mask.cols() != static_cast<int>(values.size()))) {
      std::fprintf(stderr, "mask shape does not match %s\n", input.c_str());
      return 1;
    }
    Status appended = (*writer)->AppendRow(values);
    if (!appended.ok()) {
      std::fprintf(stderr, "%s\n", appended.ToString().c_str());
      return 1;
    }
    for (size_t t = 0; t < values.size(); ++t) {
      if (t > 0) mask_out << ",";
      const bool available =
          missing[t] == 0 &&
          (!have_extra || extra_mask.available(row, static_cast<int>(t)));
      mask_out << (available ? 1 : 0);
    }
    mask_out << "\n";
  }
  if (reader->rows_read() == 0) {
    std::fprintf(stderr, "no data rows in %s\n", input.c_str());
    return 1;
  }
  if (have_extra && extra_mask.rows() != reader->rows_read()) {
    std::fprintf(stderr, "mask has %d rows, %s has %d\n", extra_mask.rows(),
                 input.c_str(), reader->rows_read());
    return 1;
  }
  mask_out.close();
  if (!mask_out) {
    std::fprintf(stderr, "write failed for %s\n", MaskPath(out_dir).c_str());
    return 1;
  }
  Status finished = (*writer)->Finish(reader->dims());
  if (!finished.ok()) {
    std::fprintf(stderr, "%s\n", finished.ToString().c_str());
    return 1;
  }
  std::printf("sharded %s: %d series x %d steps\n", input.c_str(),
              reader->rows_read(), reader->num_cols());
  return 0;
}

int Run(int argc, char** argv) {
  tools::DatasetSpec dataset_spec;
  std::string out_dir;
  storage::ChunkStoreOptions options;
  int synth_series = 0, synth_length = 0;
  uint64_t synth_seed = 1;
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
    if ((value = next("--out-dir"))) {
      out_dir = value;
    } else if ((value = next("--series-per-chunk"))) {
      if (!tools::ParseIntegerFlag("--series-per-chunk", value, 1, INT_MAX,
                                   &options.series_per_chunk)) {
        return 2;
      }
    } else if ((value = next("--times-per-chunk"))) {
      if (!tools::ParseIntegerFlag("--times-per-chunk", value, 1, INT_MAX,
                                   &options.times_per_chunk)) {
        return 2;
      }
    } else if ((value = next("--synth-series"))) {
      if (!tools::ParseIntegerFlag("--synth-series", value, 1, INT_MAX,
                                   &synth_series)) {
        return 2;
      }
    } else if ((value = next("--synth-length"))) {
      if (!tools::ParseIntegerFlag("--synth-length", value, 1, INT_MAX,
                                   &synth_length)) {
        return 2;
      }
    } else if ((value = next("--synth-seed"))) {
      if (!tools::ParseIntegerFlag("--synth-seed", value, 0, LLONG_MAX,
                                   &synth_seed)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: dmvi_shard (--input data.csv [--mask mask.csv]\n"
          "                   | --preset NAME [--scale quick|full]\n"
          "                   | --synth-series N --synth-length T\n"
          "                     [--synth-seed S])\n"
          "                  [--scenario MCAR] [--scenario-seed S]\n"
          "                  [--dataset-seed S] --out-dir DIR\n"
          "                  [--series-per-chunk N] [--times-per-chunk N]\n");
      return 0;
    } else if (missing_value) {
      std::fprintf(stderr, "missing value for %s (see --help)\n", argv[i]);
      return 2;
    } else {
      std::fprintf(stderr, "unknown argument: %s (see --help)\n", argv[i]);
      return 2;
    }
  }
  if (out_dir.empty()) {
    std::fprintf(stderr, "--out-dir is required (see --help)\n");
    return 2;
  }
  const bool synth = synth_series > 0 || synth_length > 0;
  const int source_count = (!dataset_spec.preset.empty() ? 1 : 0) +
                           (!dataset_spec.input.empty() ? 1 : 0) +
                           (synth ? 1 : 0);
  if (source_count != 1) {
    std::fprintf(stderr,
                 "exactly one of --input / --preset / --synth-series is "
                 "required (see --help)\n");
    return 2;
  }

  Stopwatch watch;
  if (!dataset_spec.input.empty()) {
    const int exit_code =
        ShardCsv(dataset_spec.input, dataset_spec.mask_path, out_dir, options);
    if (exit_code != 0) return exit_code;
  } else {
    // Preset or synthetic: generate in-core, then write through the same
    // streaming writer; the training mask is the scenario's.
    DataTensor data;
    if (!dataset_spec.preset.empty()) {
      Mask unused;
      if (int exit_code =
              tools::BuildDatasetAndMask(dataset_spec, &data, &unused)) {
        return exit_code;
      }
    } else {
      if (synth_series <= 0 || synth_length <= 0) {
        std::fprintf(stderr,
                     "--synth-series and --synth-length must both be > 0\n");
        return 2;
      }
      SyntheticConfig config;
      config.num_series = synth_series;
      config.length = synth_length;
      config.seed = synth_seed;
      data = DataTensor::FromMatrix(GenerateSeriesMatrix(config));
    }
    StatusOr<ScenarioKind> kind = ParseScenarioKind(dataset_spec.scenario_name);
    if (!kind.ok()) {
      std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
      return 2;
    }
    ScenarioConfig scenario;
    scenario.kind = *kind;
    scenario.percent_incomplete = 1.0;
    scenario.seed = dataset_spec.scenario_seed;
    Mask mask = GenerateScenario(scenario, data.num_series(), data.num_times());

    Status written = storage::ChunkedSeriesStore::WriteTensor(data, out_dir,
                                                              options);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    written = WriteMask(mask, MaskPath(out_dir));
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("sharded %d series x %d steps (%.2f%% missing)\n",
                data.num_series(), data.num_times(),
                100.0 * mask.MissingFraction());
  }

  StatusOr<storage::ChunkedSeriesStore> store =
      storage::ChunkedSeriesStore::Open(out_dir);
  if (!store.ok()) {
    std::fprintf(stderr, "store verification failed: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "wrote %s in %.2fs: %d x %d chunks of %d series x %d steps\n",
      out_dir.c_str(), watch.ElapsedSeconds(), store->num_row_groups(),
      store->num_time_blocks(), store->series_per_chunk(),
      store->times_per_chunk());
  return 0;
}

}  // namespace
}  // namespace deepmvi

int main(int argc, char** argv) { return deepmvi::Run(argc, argv); }
