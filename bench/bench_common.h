#ifndef DEEPMVI_BENCH_BENCH_COMMON_H_
#define DEEPMVI_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "core/deepmvi_config.h"
#include "data/imputer.h"
#include "data/presets.h"
#include "eval/runner.h"
#include "scenario/scenarios.h"

namespace deepmvi {
namespace bench {

/// Command-line options shared by every bench binary.
///   --full   paper-scale datasets and training budgets
///   --quick  smoke-test budgets (CI)
///   --out DIR  CSV output directory (default "bench_results")
///   --threads N  parallel experiment workers (default: hardware)
struct BenchOptions {
  enum class Profile { kQuick, kDefault, kFull };
  Profile profile = Profile::kDefault;
  std::string output_dir = "bench_results";
  int threads = 0;  // 0 = hardware concurrency.

  DatasetScale dataset_scale() const {
    return profile == Profile::kFull ? DatasetScale::kFull
                                     : DatasetScale::kReduced;
  }
};

/// Parses a figure bench's command line, which takes only the shared
/// options above. An unknown argument, a missing value or a non-integer
/// --threads prints a usage error and exits the process with status 2.
BenchOptions ParseOptions(int argc, char** argv);

/// Reads the shared option at argv[*i] into `options`, moving *i past its
/// value, for binaries that take options of their own too. Returns false
/// when argv[*i] is not a shared option. A missing value or a non-integer
/// --threads prints a usage error and exits with status 2.
bool ParseSharedOption(int argc, char** argv, int* i, BenchOptions* options);

/// Creates an imputer by benchmark name with budgets matched to the
/// selected profile. Known names: Mean, LinearInterp, SVDImp, SoftImpute,
/// SVT, CDRec, TRMF, DynaMMO, STMVL, TKCM, BRITS, GPVAE, Transformer,
/// MRNN, DeepMVI,
/// DeepMVI1D, DeepMVI-NoTT, DeepMVI-NoContext, DeepMVI-NoKR, DeepMVI-NoFG.
std::unique_ptr<Imputer> MakeImputer(const std::string& name,
                                     const BenchOptions& options);

/// The DeepMVI training budget MakeImputer("DeepMVI", ...) uses for the
/// selected profile; exported so the out-of-core suite path (which calls
/// Fit on a DataSource instead of going through the Imputer interface)
/// trains with the same budget as the in-core cells.
DeepMviConfig DeepMviBenchConfig(const BenchOptions& options);

/// True if `name` is accepted by MakeImputer (which aborts on unknown
/// names — check first when the name comes from user input).
bool IsImputerName(const std::string& name);

/// One experiment job of a bench grid.
struct Job {
  std::string dataset;
  std::string imputer;
  ScenarioConfig scenario;
  /// Free-form key identifying the grid point (e.g. "x=50").
  std::string point;
  ExperimentResult result;  // Filled by RunJobs.
};

/// Runs all jobs in parallel (dataset generation + imputation per job) and
/// fills their results. Jobs are independent and individually seeded, so
/// the output is identical to a serial run.
void RunJobs(std::vector<Job>& jobs, const BenchOptions& options);

/// Prints the table to stdout and writes CSV to options.output_dir/name.csv.
void EmitTable(const TablePrinter& table, const std::string& name,
               const BenchOptions& options);

}  // namespace bench
}  // namespace deepmvi

#endif  // DEEPMVI_BENCH_BENCH_COMMON_H_
