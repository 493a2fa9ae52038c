#ifndef DEEPMVI_TOOLS_DATASET_FLAGS_H_
#define DEEPMVI_TOOLS_DATASET_FLAGS_H_

// Shared dataset/mask assembly for dmvi_train and dmvi_serve, and the
// checked integer and floating-point parsers for tool and figure-bench
// flags.
//
// The two tools must reconstruct the *same* dataset and base mask from the
// same flags: dmvi_serve's output is compared byte-for-byte against
// dmvi_train's (the cross-process save/load exactness check in CI), so any
// drift between two copies of this logic would surface as a confusing
// `cmp` failure. Keeping it in one place makes drift impossible.

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "data/io.h"
#include "data/presets.h"
#include "eval/suite.h"
#include "scenario/scenarios.h"

namespace deepmvi {
namespace tools {

/// Flags describing how to obtain a dataset and its base availability
/// mask: either a Table 1 preset plus a scenario mask (presets ship
/// complete, so missing cells are simulated), or a CSV whose inline
/// nan/empty cells — optionally AND-combined with a 0/1 mask file — mark
/// the missing data.
struct DatasetSpec {
  std::string preset;
  std::string input;
  std::string mask_path;
  std::string scenario_name = "MCAR";
  DatasetScale scale = DatasetScale::kReduced;
  uint64_t dataset_seed = 1;
  uint64_t scenario_seed = 7;
};

/// When argv[*i] equals `flag`, returns its value and advances *i; when
/// the flag matches but no value follows, sets *missing_value (so callers
/// can say "missing value for --x" instead of "unknown argument").
/// Returns nullptr otherwise. Shared by every flag loop in the tools.
inline const char* NextFlagValue(int argc, char** argv, int* i,
                                 const char* flag, bool* missing_value) {
  if (std::strcmp(argv[*i], flag) != 0) return nullptr;
  if (*i + 1 >= argc) {
    *missing_value = true;
    return nullptr;
  }
  return argv[++*i];
}

/// Parses `text` as a whole decimal integer in [lo, hi]; false for empty
/// text, trailing characters, overflow or a value out of range.
inline bool ParseInteger(const char* text, long long lo, long long hi,
                         long long* out) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    return false;
  }
  *out = value;
  return true;
}

/// ParseInteger for `value`, the value of `flag`, stored into *out. A
/// malformed or out-of-range value prints "FLAG must be an integer in
/// [lo, hi]: VALUE" to stderr and returns false; the caller exits 2, as
/// for any usage error.
template <typename T>
bool ParseIntegerFlag(const char* flag, const char* value, long long lo,
                      long long hi, T* out) {
  long long parsed = 0;
  if (!ParseInteger(value, lo, hi, &parsed)) {
    std::fprintf(stderr, "%s must be an integer in [%lld, %lld]: %s\n", flag,
                 lo, hi, value);
    return false;
  }
  *out = static_cast<T>(parsed);
  return true;
}

/// Parses `value`, the value of `flag`, as a whole finite decimal number
/// in [lo, hi] into *out. Empty text, trailing characters, overflow,
/// inf/nan or a value out of range print "FLAG must be a number in
/// [lo, hi]: VALUE" to stderr and return false; the caller exits 2.
inline bool ParseDoubleFlag(const char* flag, const char* value, double lo,
                            double hi, double* out) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE ||
      !std::isfinite(parsed) || parsed < lo || parsed > hi) {
    std::fprintf(stderr, "%s must be a number in [%.15g, %.15g]: %s\n",
                 flag, lo, hi, value);
    return false;
  }
  *out = parsed;
  return true;
}

/// Consumes argv[*i] (and its value, advancing *i) when it is one of the
/// dataset flags: --preset, --input, --mask, --scenario, --scenario-seed,
/// --dataset-seed, --scale, --full. Returns true when consumed. A
/// recognized flag whose value is missing sets *missing_value and returns
/// false so the caller can report it precisely; one whose value is
/// malformed (a seed that is not an integer, a scale other than quick or
/// full) is reported to stderr, sets *bad_value and is consumed, and the
/// caller exits 2.
inline bool ParseDatasetFlag(int argc, char** argv, int* i, DatasetSpec* spec,
                             bool* missing_value, bool* bad_value) {
  auto next = [&](const char* flag) {
    return NextFlagValue(argc, argv, i, flag, missing_value);
  };
  const char* value = nullptr;
  if ((value = next("--preset"))) {
    spec->preset = value;
  } else if ((value = next("--input"))) {
    spec->input = value;
  } else if ((value = next("--mask"))) {
    spec->mask_path = value;
  } else if ((value = next("--scenario"))) {
    spec->scenario_name = value;
  } else if ((value = next("--scenario-seed"))) {
    *bad_value = !ParseIntegerFlag("--scenario-seed", value, 0, LLONG_MAX,
                                   &spec->scenario_seed);
  } else if ((value = next("--dataset-seed"))) {
    *bad_value = !ParseIntegerFlag("--dataset-seed", value, 0, LLONG_MAX,
                                   &spec->dataset_seed);
  } else if ((value = next("--scale"))) {
    if (std::strcmp(value, "full") == 0) {
      spec->scale = DatasetScale::kFull;
    } else if (std::strcmp(value, "quick") == 0) {
      spec->scale = DatasetScale::kReduced;
    } else {
      std::fprintf(stderr, "--scale must be quick or full: %s\n", value);
      *bad_value = true;
    }
  } else if (std::strcmp(argv[*i], "--full") == 0) {
    spec->scale = DatasetScale::kFull;
  } else {
    return false;
  }
  return true;
}

/// Materializes the dataset and base mask described by `spec`, printing
/// diagnostics to stderr on failure. Returns 0 on success, else the
/// process exit code (2 for usage errors, 1 for I/O errors).
inline int BuildDatasetAndMask(const DatasetSpec& spec, DataTensor* data,
                               Mask* mask) {
  if (spec.preset.empty() == spec.input.empty()) {
    std::fprintf(stderr, "exactly one of --preset / --input is required\n");
    return 2;
  }
  if (!spec.preset.empty()) {
    if (!IsDatasetName(spec.preset)) {
      std::fprintf(stderr, "unknown preset '%s'\n", spec.preset.c_str());
      return 2;
    }
    *data = MakeDataset(spec.preset, spec.scale, spec.dataset_seed);
    StatusOr<ScenarioKind> kind = ParseScenarioKind(spec.scenario_name);
    if (!kind.ok()) {
      std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
      return 2;
    }
    ScenarioConfig scenario;
    scenario.kind = *kind;
    scenario.percent_incomplete = 1.0;
    scenario.seed = spec.scenario_seed;
    *mask = GenerateScenario(scenario, data->num_series(), data->num_times());
  } else {
    Mask inline_mask;
    StatusOr<DataTensor> loaded = ReadDataTensor(spec.input, &inline_mask);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error reading %s: %s\n", spec.input.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    *data = std::move(loaded).value();
    *mask = inline_mask;
    if (!spec.mask_path.empty()) {
      StatusOr<Mask> extra = ReadMask(spec.mask_path);
      if (!extra.ok()) {
        std::fprintf(stderr, "error reading %s: %s\n", spec.mask_path.c_str(),
                     extra.status().ToString().c_str());
        return 1;
      }
      if (extra->rows() != data->num_series() ||
          extra->cols() != data->num_times()) {
        std::fprintf(stderr, "mask shape %dx%d does not match data %dx%d\n",
                     extra->rows(), extra->cols(), data->num_series(),
                     data->num_times());
        return 1;
      }
      *mask = mask->And(*extra);
    }
  }
  return 0;
}

}  // namespace tools
}  // namespace deepmvi

#endif  // DEEPMVI_TOOLS_DATASET_FLAGS_H_
