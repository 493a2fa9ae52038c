#ifndef DEEPMVI_EVAL_SUITE_H_
#define DEEPMVI_EVAL_SUITE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/table_printer.h"
#include "data/imputer.h"
#include "data/presets.h"
#include "eval/runner.h"
#include "scenario/scenarios.h"

namespace deepmvi {

/// Creates an imputer from its benchmark name ("Mean", "DeepMVI", ...).
/// Injected into RunSuite so the eval layer stays independent of the
/// concrete algorithm layers (core, deep, baselines); callers typically
/// pass bench::MakeImputer or a lambda over their own methods. Must be
/// thread-safe: workers invoke it concurrently, one fresh imputer per cell.
using ImputerFactory =
    std::function<std::unique_ptr<Imputer>(const std::string& name)>;

/// A (dataset x scenario x imputer) experiment grid, the batch unit of the
/// Sec 5 benchmark protocol.
struct SuiteSpec {
  std::vector<std::string> datasets;  // Preset names (data/presets.h).
  std::vector<ScenarioConfig> scenarios;
  std::vector<std::string> imputers;  // Names understood by `factory`.
  ImputerFactory factory;
  DatasetScale scale = DatasetScale::kReduced;
  /// Seed for dataset generation; scenario masks use each ScenarioConfig's
  /// own seed, so every cell is reproducible in isolation.
  uint64_t dataset_seed = 1;
  /// Worker threads (<= 0 means hardware concurrency, 1 forces serial).
  int threads = 0;
  /// Optional progress sink, called once per finished cell with (done,
  /// total). Invocations are serialized; the callback itself need not lock.
  std::function<void(int done, int total)> progress;
};

/// One grid point together with its outcome. `ok` is false when the
/// factory rejected the imputer name or the experiment threw; `error` then
/// holds the reason and `result` is default-initialized.
struct SuiteCell {
  std::string dataset;
  std::string imputer;
  ScenarioConfig scenario;
  std::string scenario_name;
  ExperimentResult result;
  bool ok = false;
  std::string error;
};

/// All cells of a suite run, in deterministic grid order (dataset-major,
/// then scenario, then imputer) regardless of worker interleaving.
struct SuiteResult {
  std::vector<SuiteCell> cells;
  double wall_seconds = 0.0;
  /// EffectiveThreads() of the run, stamped into the JSON as provenance
  /// (cell metrics do not depend on it).
  int threads_used = 1;
  /// Git commit the suite binary was configured from ("unknown" outside a
  /// checkout); provenance for the JSON, ACCURACY.json included.
  std::string git_commit;

  int64_t num_failed() const;
};

/// The commit hash stamped into this build at CMake configure time.
const char* BuildGitCommit();

/// Runs every cell of the grid, fanned out over ParallelFor workers. Each
/// worker builds its own dataset and imputer and writes into its own
/// pre-allocated result slot, so the aggregate is identical to a serial
/// run (threads == 1) cell for cell.
SuiteResult RunSuite(const SuiteSpec& spec);

/// Machine-readable renderings: a JSON document and a CSV table (for
/// plotting). The JSON writes one cell object per line, each carrying its
/// dataset, scenario and imputer: bench_diff's line scanner, which gates
/// a run against ACCURACY.json, depends on that layout.
std::string SuiteToJson(const SuiteResult& suite);
TablePrinter SuiteToTable(const SuiteResult& suite);
Status WriteSuiteJson(const SuiteResult& suite, const std::string& path);
Status WriteSuiteCsv(const SuiteResult& suite, const std::string& path);

/// Parses a scenario name as printed by ScenarioName ("MCAR", "MissDisj",
/// "MissOver", "Blackout", "MissPoint") back into its kind.
StatusOr<ScenarioKind> ParseScenarioKind(const std::string& name);

}  // namespace deepmvi

#endif  // DEEPMVI_EVAL_SUITE_H_
