#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// 1-based nearest rank of quantile q among n samples.
int NearestRank(double q, int n) {
  const int rank = static_cast<int>(std::ceil(q * n - 1e-9));
  return std::clamp(rank, 1, n);
}

}  // namespace

void LatencySample::AddFailed() { values_.push_back(kInf); }

int LatencySample::failed() const {
  return static_cast<int>(
      std::count(values_.begin(), values_.end(), kInf));
}

double LatencySample::Quantile(double q) const {
  if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> sorted = values_;
  const int rank = NearestRank(q, static_cast<int>(sorted.size()));
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

int LatencySample::SamplesBeyond(double q) const {
  const int n = attempted();
  return n == 0 ? 0 : n - NearestRank(q, n);
}

int LatencySample::MinSamplesFor(double q, int min_beyond) {
  int n = 1;
  while (n - NearestRank(q, n) < min_beyond) ++n;
  return n;
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

PromScrape ParsePrometheus(const std::string& text) {
  PromScrape out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    // The value follows the last space (label values here never hold one).
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    const std::string value_text = line.substr(space + 1);
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str()) continue;
    out[line.substr(0, space)] = value;
  }
  return out;
}

double PromDelta(const PromScrape& before, const PromScrape& after,
                 const std::string& series) {
  auto read = [&series](const PromScrape& scrape) {
    auto it = scrape.find(series);
    return it == scrape.end() ? 0.0 : it->second;
  };
  return read(after) - read(before);
}

double HistogramMeanMs(const PromScrape& before, const PromScrape& after,
                       const std::string& name) {
  const double count = HistogramCount(before, after, name);
  if (count <= 0.0) return 0.0;
  return PromDelta(before, after, name + "_sum") / count * 1e3;
}

double HistogramCount(const PromScrape& before, const PromScrape& after,
                      const std::string& name) {
  return PromDelta(before, after, name + "_count");
}

}  // namespace perfbench
