// perfbench_run: runs one workload of the repository benchmark and
// prints its metrics; the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {"value",
//    "unit"}}}
// Usually started by perfbench/run.py, which builds it first:
//   perfbench_run --workload serve-query --seed 1 --seconds 50 --trace 0
//                    --serve-bin path/to/dmvi_serve --work-dir DIR
// Exit status: 0 when every operation succeeded and every output matched,
// 1 when some failed (the JSON says which), 2 when the run could not be
// carried out (no JSON is printed then).

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: perfbench_run --workload NAME --seed N "
               "--seconds S --trace 0|1 --serve-bin PATH --work-dir DIR\n",
               message);
  return 2;
}

/// Shortest text that reads back to exactly `value`.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    return buffer;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--serve-bin") {
      options.serve_binary = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || options.serve_binary.empty() || options.work_dir.empty() ||
      options.seconds <= 0.0) {
    return Usage("--workload, --serve-bin, --work-dir and --seconds > 0 are required");
  }
  ::mkdir(options.work_dir.c_str(), 0755);

  std::string error;
  const perfbench::RunResult result = perfbench::RunWorkload(options, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(),
                 error.c_str());
    return 2;
  }
  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
  std::printf("%-26s %14s %14s  %-10s %9s%s\n", "metric", "value", "raw", "unit",
              "samples", options.trace ? "  should move" : "");
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("%-26s %14.6g %14.6g  %-10s %9lld%s%s\n", m.name.c_str(), m.value,
                m.raw, m.unit.c_str(), m.samples, options.trace ? "  " : "",
                options.trace ? perfbench::ShouldMove(m.name) : "");
  }
  std::printf("attempted %lld, failed %lld, outputs %s\n", result.attempted,
              result.failed, result.correct ? "correct" : "INCORRECT");

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
