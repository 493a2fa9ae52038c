// dmvi_bench_suite: batch experiment-suite runner.
//
//   dmvi_bench_suite [--datasets AirQ,Meteo] [--imputers Mean,DeepMVI]
//                    [--scenarios MCAR,Blackout,MNAR] [--quick|--full]
//                    [--threads N] [--out DIR] [--seed S] [--name NAME]
//
// Fans the (dataset x scenario x imputer) grid out over worker threads via
// eval/suite.h and writes DIR/NAME.json and DIR/NAME.csv (defaults:
// bench_results/suite.{json,csv}). Every cell is independently seeded, so
// the output is identical for any --threads value. Imputer names are the
// benchmark names of bench/bench_common.h; dataset names are the Table 1
// presets; scenario names are MCAR, MissDisj, MissOver, Blackout,
// MissPoint, MultiBlackout, MNAR, Drift. The default grid covers the
// production scenario set (MCAR, Blackout, MultiBlackout, MNAR, Drift);
// with --quick it is the 40-cell grid of the ACCURACY.json baseline that
// bench_diff gates. A usage error (an unknown argument or scenario name, a
// non-integer --threads, --seed or --cache-mb) exits 2, a failed cell
// exits 1.

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/deepmvi.h"
#include "data/io.h"
#include "eval/suite.h"
#include "storage/chunk_cache.h"
#include "storage/chunk_store.h"
#include "storage/data_source.h"
#include "tools/dataset_flags.h"

namespace deepmvi {
namespace {

/// Out-of-core cells: trains DeepMVI from a chunked store directory for
/// every scenario of the run and appends the scored cells to the suite
/// (dataset name "store:<dir>"). Training and scoring stream chunks
/// through a cache_mb-bounded ChunkCache; the dense tensor is never
/// materialized.
void AppendStoreCells(const std::string& data_dir, int cache_mb,
                      const bench::BenchOptions& options,
                      const std::vector<ScenarioConfig>& scenarios,
                      SuiteResult* suite) {
  // Any store-level failure becomes one failed cell per scenario: the
  // (possibly hours-long) in-core grid that already ran must still be
  // written out, and the suite's nonzero exit on failed cells reports
  // the problem.
  auto fail_all = [&](const Status& status) {
    std::fprintf(stderr, "store %s: %s\n", data_dir.c_str(),
                 status.ToString().c_str());
    for (const ScenarioConfig& scenario : scenarios) {
      SuiteCell cell;
      cell.dataset = "store:" + data_dir;
      cell.imputer = "DeepMVI";
      cell.scenario = scenario;
      cell.scenario_name = ScenarioName(scenario.kind);
      cell.error = status.ToString();
      suite->cells.push_back(std::move(cell));
    }
  };

  StatusOr<storage::ChunkedSeriesStore> store =
      storage::ChunkedSeriesStore::Open(data_dir);
  if (!store.ok()) return fail_all(store.status());
  // A store without a mask.csv is scored against an all-available base;
  // a mask that exists but fails to read or fit is an error — silently
  // falling back would score the store's missing-cell placeholders as
  // ground truth.
  Mask base_mask(store->num_series(), store->num_times());
  const std::string mask_path = data_dir + "/" + storage::kMaskFileName;
  if (std::filesystem::exists(mask_path)) {
    StatusOr<Mask> mask_or = ReadMask(mask_path);
    if (!mask_or.ok()) return fail_all(mask_or.status());
    base_mask = std::move(mask_or).value();
    if (base_mask.rows() != store->num_series() ||
        base_mask.cols() != store->num_times()) {
      return fail_all(Status::InvalidArgument(
          "mask shape " + std::to_string(base_mask.rows()) + "x" +
          std::to_string(base_mask.cols()) + " does not match store " +
          std::to_string(store->num_series()) + "x" +
          std::to_string(store->num_times())));
    }
  }
  storage::ChunkCache cache(static_cast<int64_t>(cache_mb) << 20);
  storage::ChunkedDataSource source(&store.value(), &cache);

  DeepMviConfig config = bench::DeepMviBenchConfig(options);
  SourceImputeFn impute =
      [&config](const storage::DataSource& src, const Mask& train_mask,
                const std::vector<CellIndex>& cells)
      -> StatusOr<std::vector<double>> {
    DeepMviImputer imputer(config);
    StatusOr<TrainedDeepMvi> trained = imputer.Fit(src, train_mask);
    if (!trained.ok()) return trained.status();
    return trained->PredictCells(src, train_mask, cells);
  };

  for (const ScenarioConfig& scenario : scenarios) {
    SuiteCell cell;
    cell.dataset = "store:" + data_dir;
    cell.imputer = "DeepMVI";
    cell.scenario = scenario;
    cell.scenario_name = ScenarioName(scenario.kind);
    StatusOr<ExperimentResult> result =
        RunStoreExperiment(source, base_mask, scenario, "DeepMVI", impute);
    if (result.ok()) {
      cell.result = std::move(result).value();
      cell.ok = true;
    } else {
      cell.error = result.status().ToString();
    }
    suite->cells.push_back(std::move(cell));
  }
  const storage::ChunkCache::Stats cs = cache.stats();
  std::printf(
      "store cells: %lld chunk hits, %lld misses, %lld evictions, peak "
      "%.1f MiB (budget %d MiB)\n",
      static_cast<long long>(cs.hits), static_cast<long long>(cs.misses),
      static_cast<long long>(cs.evictions),
      static_cast<double>(cs.peak_bytes) / (1024.0 * 1024.0), cache_mb);
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int Run(int argc, char** argv) {
  bench::BenchOptions options;
  std::vector<std::string> datasets = {"AirQ", "Meteo"};
  std::vector<std::string> imputers = {"Mean", "LinearInterp", "SVDImp",
                                       "CDRec"};
  std::vector<std::string> scenario_names = {"MCAR", "Blackout",
                                             "MultiBlackout", "MNAR", "Drift"};
  std::string name = "suite";
  std::string data_dir;
  int cache_mb = 256;
  uint64_t seed = 1;
  // A usage error exits 2; exit 1 is reserved for failed cells.
  for (int i = 1; i < argc; ++i) {
    if (bench::ParseSharedOption(argc, argv, &i, &options)) continue;
    if (std::strcmp(argv[i], "--datasets") == 0 && i + 1 < argc) {
      datasets = SplitCommas(argv[++i]);
    } else if (std::strcmp(argv[i], "--imputers") == 0 && i + 1 < argc) {
      imputers = SplitCommas(argv[++i]);
    } else if (std::strcmp(argv[i], "--scenarios") == 0 && i + 1 < argc) {
      scenario_names = SplitCommas(argv[++i]);
    } else if (std::strcmp(argv[i], "--name") == 0 && i + 1 < argc) {
      name = argv[++i];
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-mb") == 0 && i + 1 < argc) {
      if (!tools::ParseIntegerFlag("--cache-mb", argv[++i], 0, INT_MAX,
                                   &cache_mb)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!tools::ParseIntegerFlag("--seed", argv[++i], 0, LLONG_MAX, &seed)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: dmvi_bench_suite [--datasets A,B] [--imputers I,J]\n"
          "                        [--scenarios MCAR,Blackout] [--quick|--full]\n"
          "                        [--threads N] [--out DIR] [--seed S]\n"
          "                        [--name NAME]\n"
          "                        [--data-dir STORE [--cache-mb N]]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s (see --help)\n", argv[i]);
      return 2;
    }
  }

  SuiteSpec spec;
  spec.datasets = datasets;
  spec.imputers = imputers;
  for (const std::string& scenario_name : scenario_names) {
    StatusOr<ScenarioKind> kind = ParseScenarioKind(scenario_name);
    if (!kind.ok()) {
      std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
      return 2;
    }
    ScenarioConfig config;
    config.kind = *kind;
    config.percent_incomplete = 1.0;
    config.seed = seed;
    spec.scenarios.push_back(config);
  }
  spec.factory =
      [&options](const std::string& imputer_name) -> std::unique_ptr<Imputer> {
    // MakeImputer aborts on unknown names; report them as failed cells.
    if (!bench::IsImputerName(imputer_name)) return nullptr;
    return bench::MakeImputer(imputer_name, options);
  };
  spec.scale = options.dataset_scale();
  spec.dataset_seed = seed;
  spec.threads = options.threads;
  spec.progress = [](int done, int total) {
    std::fprintf(stderr, "\r[%d/%d] experiments done", done, total);
    if (done == total) std::fprintf(stderr, "\n");
  };

  SuiteResult suite = RunSuite(spec);
  if (!data_dir.empty()) {
    AppendStoreCells(data_dir, cache_mb, options, spec.scenarios, &suite);
  }

  std::printf("%s\n", SuiteToTable(suite).ToAscii().c_str());
  std::printf("ran %zu experiments on %d threads in %.2fs (%lld failed)\n",
              suite.cells.size(), suite.threads_used, suite.wall_seconds,
              static_cast<long long>(suite.num_failed()));

  std::error_code ec;
  std::filesystem::create_directories(options.output_dir, ec);
  const std::string json_path = options.output_dir + "/" + name + ".json";
  const std::string csv_path = options.output_dir + "/" + name + ".csv";
  Status status = WriteSuiteJson(suite, json_path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  status = WriteSuiteCsv(suite, csv_path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s and %s\n", json_path.c_str(), csv_path.c_str());
  return suite.num_failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace deepmvi

int main(int argc, char** argv) { return deepmvi::Run(argc, argv); }
