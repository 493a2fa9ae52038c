#include "bench/bench_common.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "baselines/dynammo.h"
#include "baselines/matrix_completion.h"
#include "baselines/simple.h"
#include "baselines/stmvl.h"
#include "baselines/tkcm.h"
#include "baselines/trmf.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "core/deepmvi.h"
#include "deep/brits.h"
#include "deep/gpvae.h"
#include "deep/mrnn.h"
#include "deep/transformer_imputer.h"
#include "tools/dataset_flags.h"

namespace deepmvi {
namespace bench {

namespace {

[[noreturn]] void ExitWithUsageError(const char* program,
                                     const std::string& message) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s [--quick|--full] [--out DIR] [--threads N]\n",
               program, message.c_str(), program);
  std::exit(2);
}

}  // namespace

bool ParseSharedOption(int argc, char** argv, int* i, BenchOptions* options) {
  const char* arg = argv[*i];
  if (std::strcmp(arg, "--full") == 0) {
    options->profile = BenchOptions::Profile::kFull;
    return true;
  }
  if (std::strcmp(arg, "--quick") == 0) {
    options->profile = BenchOptions::Profile::kQuick;
    return true;
  }
  const bool out = std::strcmp(arg, "--out") == 0;
  if (!out && std::strcmp(arg, "--threads") != 0) return false;
  if (*i + 1 >= argc) {
    ExitWithUsageError(argv[0], std::string(arg) + " needs a value");
  }
  const char* value = argv[++*i];
  if (out) {
    options->output_dir = value;
    return true;
  }
  long long threads = 0;
  if (!tools::ParseInteger(value, INT_MIN, INT_MAX, &threads)) {
    ExitWithUsageError(argv[0],
                       std::string("--threads must be an integer: ") + value);
  }
  options->threads = static_cast<int>(threads);
  return true;
}

BenchOptions ParseOptions(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    if (!ParseSharedOption(argc, argv, &i, &options)) {
      ExitWithUsageError(argv[0], std::string("unknown argument: ") + argv[i]);
    }
  }
  return options;
}

namespace {

bool IsQuick(const BenchOptions& options) {
  return options.profile == BenchOptions::Profile::kQuick;
}
bool IsFull(const BenchOptions& options) {
  return options.profile == BenchOptions::Profile::kFull;
}

// Single registry of benchmark imputer names: both MakeImputer and
// IsImputerName resolve against this table, so the two cannot drift.
using ImputerFactoryFn = std::unique_ptr<Imputer> (*)(const BenchOptions&);
struct NamedImputerFactory {
  const char* name;
  ImputerFactoryFn make;
};

const NamedImputerFactory kImputerFactories[] = {
    {"Mean",
     [](const BenchOptions&) -> std::unique_ptr<Imputer> {
       return std::make_unique<MeanImputer>();
     }},
    {"LinearInterp",
     [](const BenchOptions&) -> std::unique_ptr<Imputer> {
       return std::make_unique<LinearInterpolationImputer>();
     }},
    {"SVDImp",
     [](const BenchOptions&) -> std::unique_ptr<Imputer> {
       return std::make_unique<SvdImputer>();
     }},
    {"SoftImpute",
     [](const BenchOptions&) -> std::unique_ptr<Imputer> {
       return std::make_unique<SoftImputer>();
     }},
    {"SVT",
     [](const BenchOptions&) -> std::unique_ptr<Imputer> {
       return std::make_unique<SvtImputer>();
     }},
    {"CDRec",
     [](const BenchOptions&) -> std::unique_ptr<Imputer> {
       return std::make_unique<CdRecImputer>();
     }},
    {"TRMF",
     [](const BenchOptions& options) -> std::unique_ptr<Imputer> {
       TrmfImputer::Config config;
       if (IsQuick(options)) config.outer_iterations = 4;
       return std::make_unique<TrmfImputer>(config);
     }},
    {"DynaMMO",
     [](const BenchOptions& options) -> std::unique_ptr<Imputer> {
       DynammoImputer::Config config;
       if (IsQuick(options)) config.em_iterations = 3;
       return std::make_unique<DynammoImputer>(config);
     }},
    {"STMVL",
     [](const BenchOptions&) -> std::unique_ptr<Imputer> {
       return std::make_unique<StmvlImputer>();
     }},
    {"TKCM",
     [](const BenchOptions&) -> std::unique_ptr<Imputer> {
       return std::make_unique<TkcmImputer>();
     }},
    {"MRNN",
     [](const BenchOptions& options) -> std::unique_ptr<Imputer> {
       MrnnImputer::Config config;
       config.max_epochs = IsQuick(options) ? 2 : (IsFull(options) ? 20 : 8);
       return std::make_unique<MrnnImputer>(config);
     }},
    {"BRITS",
     [](const BenchOptions& options) -> std::unique_ptr<Imputer> {
       BritsImputer::Config config;
       config.max_epochs = IsQuick(options) ? 2 : (IsFull(options) ? 30 : 10);
       config.hidden_dim = IsQuick(options) ? 16 : 64;
       return std::make_unique<BritsImputer>(config);
     }},
    {"GPVAE",
     [](const BenchOptions& options) -> std::unique_ptr<Imputer> {
       GpVaeImputer::Config config;
       config.max_epochs = IsQuick(options) ? 2 : (IsFull(options) ? 40 : 20);
       return std::make_unique<GpVaeImputer>(config);
     }},
    {"Transformer",
     [](const BenchOptions& options) -> std::unique_ptr<Imputer> {
       TransformerImputer::Config config;
       config.max_epochs = IsQuick(options) ? 2 : (IsFull(options) ? 30 : 12);
       config.samples_per_epoch =
           IsQuick(options) ? 8 : (IsFull(options) ? 48 : 24);
       return std::make_unique<TransformerImputer>(config);
     }},
    {"DeepMVI",
     [](const BenchOptions& options) -> std::unique_ptr<Imputer> {
       return std::make_unique<DeepMviImputer>(DeepMviBenchConfig(options));
     }},
    {"DeepMVI1D",
     [](const BenchOptions& options) -> std::unique_ptr<Imputer> {
       DeepMviConfig config = DeepMviBenchConfig(options);
       config.flatten_multidim = true;
       return std::make_unique<DeepMviImputer>(config);
     }},
    {"DeepMVI-NoTT",
     [](const BenchOptions& options) -> std::unique_ptr<Imputer> {
       DeepMviConfig config = DeepMviBenchConfig(options);
       config.use_temporal_transformer = false;
       return std::make_unique<DeepMviImputer>(config);
     }},
    {"DeepMVI-NoContext",
     [](const BenchOptions& options) -> std::unique_ptr<Imputer> {
       DeepMviConfig config = DeepMviBenchConfig(options);
       config.use_context_window = false;
       return std::make_unique<DeepMviImputer>(config);
     }},
    {"DeepMVI-NoKR",
     [](const BenchOptions& options) -> std::unique_ptr<Imputer> {
       DeepMviConfig config = DeepMviBenchConfig(options);
       config.use_kernel_regression = false;
       return std::make_unique<DeepMviImputer>(config);
     }},
    {"DeepMVI-NoFG",
     [](const BenchOptions& options) -> std::unique_ptr<Imputer> {
       DeepMviConfig config = DeepMviBenchConfig(options);
       config.use_fine_grained = false;
       return std::make_unique<DeepMviImputer>(config);
     }},
};

const NamedImputerFactory* FindImputerFactory(const std::string& name) {
  for (const NamedImputerFactory& entry : kImputerFactories) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

}  // namespace

DeepMviConfig DeepMviBenchConfig(const BenchOptions& options) {
  const bool quick = IsQuick(options);
  DeepMviConfig config;
  config.max_epochs = quick ? 2 : 30;
  config.samples_per_epoch = quick ? 16 : 128;
  config.batch_size = 4;
  config.patience = quick ? 1 : 4;
  return config;
}

bool IsImputerName(const std::string& name) {
  return FindImputerFactory(name) != nullptr;
}

std::unique_ptr<Imputer> MakeImputer(const std::string& name,
                                     const BenchOptions& options) {
  const NamedImputerFactory* factory = FindImputerFactory(name);
  if (factory == nullptr) {
    DMVI_LOG(Fatal) << "Unknown imputer name: " << name;
    return nullptr;
  }
  return factory->make(options);
}

void RunJobs(std::vector<Job>& jobs, const BenchOptions& options) {
  ParallelFor(static_cast<int>(jobs.size()), options.threads, [&](int i) {
    Job& job = jobs[i];
    DataTensor data = MakeDataset(job.dataset, options.dataset_scale(),
                                  /*seed=*/1);
    std::unique_ptr<Imputer> imputer = MakeImputer(job.imputer, options);
    job.result = RunExperiment(data, job.scenario, *imputer);
  });
}

void EmitTable(const TablePrinter& table, const std::string& name,
               const BenchOptions& options) {
  std::printf("%s\n", table.ToAscii().c_str());
  std::error_code ec;
  std::filesystem::create_directories(options.output_dir, ec);
  const std::string path = options.output_dir + "/" + name + ".csv";
  Status status = table.WriteCsv(path);
  if (!status.ok()) {
    DMVI_LOG(Warning) << "could not write " << path << ": " << status.ToString();
  } else {
    std::printf("wrote %s\n\n", path.c_str());
  }
}

}  // namespace bench
}  // namespace deepmvi
