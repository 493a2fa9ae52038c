#include "eval/suite.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <sstream>

#include "common/json_escape.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/stopwatch.h"

namespace deepmvi {
namespace {

/// JSON has no literal for non-finite doubles; emit null so the document
/// stays parseable even if a metric diverged.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

const char* BuildGitCommit() {
#ifdef DMVI_GIT_COMMIT
  return DMVI_GIT_COMMIT;
#else
  return "unknown";
#endif
}

int64_t SuiteResult::num_failed() const {
  int64_t failed = 0;
  for (const SuiteCell& cell : cells) {
    if (!cell.ok) ++failed;
  }
  return failed;
}

SuiteResult RunSuite(const SuiteSpec& spec) {
  DMVI_CHECK(spec.factory) << "SuiteSpec.factory must be set";

  SuiteResult suite;
  // Lay the grid out up front in deterministic dataset-major order; each
  // worker then fills exactly one pre-allocated slot, which makes the
  // concurrent aggregation race-free and the output order independent of
  // scheduling.
  for (const std::string& dataset : spec.datasets) {
    for (const ScenarioConfig& scenario : spec.scenarios) {
      for (const std::string& imputer : spec.imputers) {
        SuiteCell cell;
        cell.dataset = dataset;
        cell.imputer = imputer;
        cell.scenario = scenario;
        cell.scenario_name = ScenarioName(scenario.kind);
        suite.cells.push_back(std::move(cell));
      }
    }
  }

  const int total = static_cast<int>(suite.cells.size());
  suite.threads_used = EffectiveThreads(total, spec.threads);
  suite.git_commit = BuildGitCommit();

  Mutex progress_mutex;
  int done = 0;

  Stopwatch watch;
  ParallelFor(total, spec.threads, [&](int i) {
    SuiteCell& cell = suite.cells[i];
    try {
      if (!IsDatasetName(cell.dataset)) {
        cell.error = "unknown dataset: " + cell.dataset;
      } else {
        std::unique_ptr<Imputer> imputer = spec.factory(cell.imputer);
        if (imputer == nullptr) {
          cell.error = "unknown imputer: " + cell.imputer;
        } else {
          DataTensor data =
              MakeDataset(cell.dataset, spec.scale, spec.dataset_seed);
          cell.result = RunExperiment(data, cell.scenario, *imputer);
          cell.ok = true;
        }
      }
    } catch (const std::exception& e) {
      cell.error = e.what();
    }
    if (spec.progress) {
      MutexLock lock(&progress_mutex);
      spec.progress(++done, total);
    }
  });
  suite.wall_seconds = watch.ElapsedSeconds();
  return suite;
}

std::string SuiteToJson(const SuiteResult& suite) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"git_commit\": \"" << EscapeJson(suite.git_commit) << "\",\n";
  os << "  \"wall_seconds\": " << JsonNumber(suite.wall_seconds) << ",\n";
  os << "  \"effective_threads\": " << suite.threads_used << ",\n";
  os << "  \"num_cells\": " << suite.cells.size() << ",\n";
  os << "  \"num_failed\": " << suite.num_failed() << ",\n";
  os << "  \"cells\": [";
  for (size_t i = 0; i < suite.cells.size(); ++i) {
    const SuiteCell& cell = suite.cells[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"dataset\": \"" << EscapeJson(cell.dataset) << "\", "
       << "\"scenario\": \"" << EscapeJson(cell.scenario_name) << "\", "
       << "\"imputer\": \"" << EscapeJson(cell.imputer) << "\", "
       << "\"ok\": " << (cell.ok ? "true" : "false");
    if (cell.ok) {
      os << ", \"mae\": " << JsonNumber(cell.result.mae)
         << ", \"rmse\": " << JsonNumber(cell.result.rmse)
         << ", \"analytics_gain\": " << JsonNumber(cell.result.analytics_gain)
         << ", \"runtime_seconds\": " << JsonNumber(cell.result.runtime_seconds)
         << ", \"missing_cells\": " << cell.result.missing_cells;
    } else {
      os << ", \"error\": \"" << EscapeJson(cell.error) << "\"";
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

TablePrinter SuiteToTable(const SuiteResult& suite) {
  TablePrinter table({"dataset", "scenario", "imputer", "ok", "mae", "rmse",
                      "analytics_gain", "runtime_seconds", "missing_cells"});
  for (const SuiteCell& cell : suite.cells) {
    if (cell.ok) {
      table.AddRow({cell.dataset, cell.scenario_name, cell.imputer, "1",
                    TablePrinter::FormatDouble(cell.result.mae),
                    TablePrinter::FormatDouble(cell.result.rmse),
                    TablePrinter::FormatDouble(cell.result.analytics_gain),
                    TablePrinter::FormatDouble(cell.result.runtime_seconds),
                    std::to_string(cell.result.missing_cells)});
    } else {
      table.AddRow({cell.dataset, cell.scenario_name, cell.imputer, "0",
                    cell.error, "", "", "", ""});
    }
  }
  return table;
}

Status WriteSuiteJson(const SuiteResult& suite, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << SuiteToJson(suite);
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Status WriteSuiteCsv(const SuiteResult& suite, const std::string& path) {
  return SuiteToTable(suite).WriteCsv(path);
}

StatusOr<ScenarioKind> ParseScenarioKind(const std::string& name) {
  if (name == "MCAR") return ScenarioKind::kMcar;
  if (name == "MissDisj") return ScenarioKind::kMissDisj;
  if (name == "MissOver") return ScenarioKind::kMissOver;
  if (name == "Blackout") return ScenarioKind::kBlackout;
  if (name == "MissPoint") return ScenarioKind::kMissPoint;
  if (name == "MultiBlackout") return ScenarioKind::kMultiBlackout;
  if (name == "MNAR") return ScenarioKind::kMnar;
  if (name == "Drift") return ScenarioKind::kDrift;
  return Status::InvalidArgument("unknown scenario: " + name);
}

}  // namespace deepmvi
