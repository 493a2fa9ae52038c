#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Sample statistics and /metrics differencing for the benchmark.

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Latencies of one phase. A failed operation (error, mismatch, timeout)
/// is kept as +infinity, so it sorts above every completed one and counts
/// as over every latency limit.
class LatencySample {
 public:
  void AddCompleted(double ms) { values_.push_back(ms); }
  void AddFailed();

  int attempted() const { return static_cast<int>(values_.size()); }
  int failed() const;

  /// Nearest-rank quantile q in (0, 1] (+infinity when it lands on a
  /// failed operation, NaN on an empty sample).
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  /// Samples strictly above the nearest-rank q-quantile's rank.
  int SamplesBeyond(double q) const;
  /// True when at least `min_beyond` samples lie beyond the q-quantile,
  /// the rule every reported percentile must meet.
  bool Supports(double q, int min_beyond = 10) const {
    return SamplesBeyond(q) >= min_beyond;
  }
  /// Fewest samples for which Supports(q, min_beyond) holds.
  static int MinSamplesFor(double q, int min_beyond = 10);

 private:
  std::vector<double> values_;
};

/// Median of `values` (NaN when empty); the mean of the two middle values
/// for an even count.
double Median(std::vector<double> values);

/// One Prometheus text exposition, flattened to "series -> value" where a
/// series is the metric name plus its label set exactly as printed
/// ("dmvi_stage_decode_seconds_sum", "x_bucket{le=\"0.5\"}").
using PromScrape = std::map<std::string, double>;

/// Parses Prometheus text format; comment and malformed lines are skipped.
PromScrape ParsePrometheus(const std::string& text);

/// after[series] - before[series]; a series absent from a scrape reads 0.
double PromDelta(const PromScrape& before, const PromScrape& after,
                 const std::string& series);

/// Mean observation of histogram `name` between two scrapes, in
/// milliseconds: Δ`name`_sum / Δ`name`_count x 1e3 (0 when nothing was
/// observed in between).
double HistogramMeanMs(const PromScrape& before, const PromScrape& after,
                       const std::string& name);

/// Observations of histogram `name` between two scrapes (Δ_count).
double HistogramCount(const PromScrape& before, const PromScrape& after,
                      const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
