#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's workloads. Each run builds its inputs from the seed,
// drives the program under test, checks every output, and returns its
// metrics: the end-to-end set when untraced, the per-layer set when
// traced.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string serve_binary;  // dmvi_serve built from this checkout.
  std::string work_dir;      // Scratch files of this run.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long long samples = 1;  // Observations behind the value.
  /// The value before the machine-speed correction (speed.h); equal to
  /// `value` for metrics that are not times or rates.
  double raw = 0.0;
};

struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable report lines (inputs, phases, checks).
  std::vector<std::string> report;
};

/// Runs one workload; `error` is set (and the result meaningless) when the
/// run could not be carried out at all.
RunResult RunWorkload(const RunOptions& options, std::string* error);

/// The end-to-end metric each per-layer metric should move, for the
/// traced report.
const char* ShouldMove(const std::string& per_layer_metric);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
