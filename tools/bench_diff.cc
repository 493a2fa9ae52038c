// bench_diff: the accuracy gate. Compares the cells of a suite JSON file
// (as written by eval/suite.h's WriteSuiteJson) against a baseline; CI
// runs it on ACCURACY.json and a fresh `dmvi_bench_suite --quick` run.
//
//   bench_diff BASELINE.json CURRENT.json
//
// Every baseline cell must be present and ok in the current file, with mae
// and rmse each within 1% of the baseline value, in either direction. A
// current cell absent from the baseline fails too, so the grid can neither
// shrink nor grow unnoticed. runtime_seconds is not compared: it is
// information, and perfbench owns performance. The summary line counts the
// cells whose mae and rmse both match the baseline bit for bit.
// Exit codes: 0 clean, 1 a cell failed the gate, 2 usage/parse error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace deepmvi {
namespace {

/// Two-sided relative band on mae and rmse. Wide enough to absorb last-bit
/// drift between compilers and images, narrow enough to fail a 5% change.
constexpr double kBand = 0.01;

/// The command that rewrites the baseline from the current tree.
constexpr char kRegenerate[] =
    "./build/tools/dmvi_bench_suite --quick --out bench_results "
    "--name ci_suite && cp bench_results/ci_suite.json ACCURACY.json";

struct BenchCell {
  bool ok = false;
  double mae = NAN;
  double rmse = NAN;
};

using BenchFile = std::map<std::string, BenchCell>;  // key: ds|scenario|imp

/// Value of `"key": <...>` inside one JSON object line; empty when absent.
std::string FindField(const std::string& object, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = object.find(needle);
  if (at == std::string::npos) return "";
  size_t begin = at + needle.size();
  while (begin < object.size() && object[begin] == ' ') ++begin;
  size_t end = begin;
  if (begin < object.size() && object[begin] == '"') {
    end = object.find('"', begin + 1);
    if (end == std::string::npos) return "";
    return object.substr(begin + 1, end - begin - 1);
  }
  while (end < object.size() && object[end] != ',' && object[end] != '}') ++end;
  return object.substr(begin, end - begin);
}

/// Absent and null metrics parse as NaN, which no band contains.
double ParseNumber(const std::string& text) {
  if (text.empty() || text == "null") return NAN;
  return std::strtod(text.c_str(), nullptr);
}

/// Parses the cells array of a suite JSON file. The writer emits one cell
/// object per line, which keeps this scanner trivial: every line holding a
/// "dataset" field is one cell.
bool LoadBenchFile(const std::string& path, BenchFile* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    const std::string dataset = FindField(line, "dataset");
    if (dataset.empty()) continue;
    const std::string scenario = FindField(line, "scenario");
    const std::string imputer = FindField(line, "imputer");
    if (scenario.empty() || imputer.empty()) continue;
    BenchCell cell;
    cell.ok = FindField(line, "ok") == "true";
    cell.mae = ParseNumber(FindField(line, "mae"));
    cell.rmse = ParseNumber(FindField(line, "rmse"));
    (*out)[dataset + "|" + scenario + "|" + imputer] = cell;
  }
  if (out->empty()) {
    std::fprintf(stderr, "bench_diff: no cells found in %s\n", path.c_str());
    return false;
  }
  return true;
}

bool InBand(double base, double cur) {
  return std::fabs(cur - base) <= kBand * std::fabs(base);
}

std::string FormatDelta(const char* metric, double base, double cur) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %.6g -> %.6g (%+.2f%%)", metric, base,
                cur, (cur / base - 1.0) * 100.0);
  return buf;
}

int Run(int argc, char** argv) {
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: bench_diff BASELINE.json CURRENT.json\n"
          "fails (exit 1) unless every cell of both files is ok, present in\n"
          "both, and within %g%% of the baseline in mae and rmse\n",
          kBand * 100.0);
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown argument: %s (see --help)\n", argv[i]);
      return 2;
    }
    paths.push_back(argv[i]);
  }
  if (paths.size() != 2) {
    std::fprintf(stderr, "bench_diff: need BASELINE.json and CURRENT.json\n");
    return 2;
  }
  const std::string& baseline_path = paths[0];
  const std::string& current_path = paths[1];

  BenchFile baseline, current;
  if (!LoadBenchFile(baseline_path, &baseline) ||
      !LoadBenchFile(current_path, &current)) {
    return 2;
  }

  std::vector<std::string> failures;
  int compared = 0, exact = 0;
  for (const auto& [key, base] : baseline) {
    const auto it = current.find(key);
    if (it == current.end()) {
      failures.push_back(key + ": missing from current file");
      continue;
    }
    const BenchCell& cur = it->second;
    if (!cur.ok || !base.ok) {
      failures.push_back(key + ": not ok in " +
                         (cur.ok ? "baseline" : "current file"));
      continue;
    }
    ++compared;
    if (cur.mae == base.mae && cur.rmse == base.rmse) ++exact;
    if (!InBand(base.mae, cur.mae)) {
      failures.push_back(key + ": " + FormatDelta("mae", base.mae, cur.mae));
    }
    if (!InBand(base.rmse, cur.rmse)) {
      failures.push_back(key + ": " +
                         FormatDelta("rmse", base.rmse, cur.rmse));
    }
  }
  for (const auto& entry : current) {
    if (baseline.count(entry.first) == 0) {
      failures.push_back(entry.first + ": not in baseline");
    }
  }

  std::printf("compared %d cells of %s against %s: %d bit-exact in mae and "
              "rmse\n",
              compared, current_path.c_str(), baseline_path.c_str(), exact);
  if (failures.empty()) {
    std::printf("every cell within %g%% of the baseline\n", kBand * 100.0);
    return 0;
  }
  std::printf("%zu failure(s):\n", failures.size());
  for (const std::string& f : failures) std::printf("  %s\n", f.c_str());
  std::printf("if the change is intended, regenerate the baseline:\n  %s\n",
              kRegenerate);
  return 1;
}

}  // namespace
}  // namespace deepmvi

int main(int argc, char** argv) { return deepmvi::Run(argc, argv); }
