#include "obs/histogram.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.h"

namespace deepmvi {
namespace obs {
namespace {

/// The bucket bounds, computed once. pow() at every Observe would put a
/// libm call on the request hot path.
const std::array<double, Histogram::kNumBounds>& Bounds() {
  static const std::array<double, Histogram::kNumBounds> bounds = [] {
    std::array<double, Histogram::kNumBounds> b{};
    for (int i = 0; i < Histogram::kNumBounds; ++i) {
      b[static_cast<size_t>(i)] =
          1e-6 * std::pow(std::sqrt(2.0), static_cast<double>(i));
    }
    return b;
  }();
  return bounds;
}

}  // namespace

double Histogram::UpperBound(int i) {
  DMVI_CHECK_GE(i, 0);
  DMVI_CHECK_LT(i, kNumBounds);
  return Bounds()[static_cast<size_t>(i)];
}

double Histogram::LowerBound(int i) {
  DMVI_CHECK_GE(i, 0);
  DMVI_CHECK_LE(i, kNumBounds);
  return i == 0 ? 0.0 : Bounds()[static_cast<size_t>(i - 1)];
}

int Histogram::BucketIndex(double value) {
  const auto& bounds = Bounds();
  // First bound >= value (le semantics); NaN and negatives land in the
  // first bucket, values beyond the last bound in the overflow bucket.
  if (!(value > bounds[0])) return 0;
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  return static_cast<int>(it - bounds.begin());
}

void Histogram::Observe(double value) {
  MutexLock lock(&mutex_);
  ObserveLocked(value, nullptr);
}

void Histogram::ObserveWithExemplar(double value,
                                    const std::string& exemplar_label) {
  MutexLock lock(&mutex_);
  ObserveLocked(value, exemplar_label.empty() ? nullptr : &exemplar_label);
}

void Histogram::ObserveLocked(double value,
                              const std::string* exemplar_label) {
  if (std::isnan(value)) value = 0.0;
  const int bucket = BucketIndex(value);
  ++counts_[static_cast<size_t>(bucket)];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (exemplar_label != nullptr) {
    if (exemplar_labels_.empty()) {
      exemplar_labels_.resize(static_cast<size_t>(kNumBounds) + 1);
      exemplar_values_.resize(static_cast<size_t>(kNumBounds) + 1, 0.0);
    }
    exemplar_labels_[static_cast<size_t>(bucket)] = *exemplar_label;
    exemplar_values_[static_cast<size_t>(bucket)] = value;
  }
}

void Histogram::Merge(const HistogramSnapshot& other) {
  MutexLock lock(&mutex_);
  DMVI_CHECK_EQ(static_cast<int>(other.counts.size()), kNumBounds + 1);
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts[i];
  if (other.count > 0) {
    if (count_ == 0) {
      min_ = other.min;
      max_ = other.max;
    } else {
      min_ = std::min(min_, other.min);
      max_ = std::max(max_, other.max);
    }
  }
  count_ += other.count;
  sum_ += other.sum;
  if (!other.exemplar_labels.empty()) {
    if (exemplar_labels_.empty()) {
      exemplar_labels_.resize(static_cast<size_t>(kNumBounds) + 1);
      exemplar_values_.resize(static_cast<size_t>(kNumBounds) + 1, 0.0);
    }
    for (size_t b = 0; b < exemplar_labels_.size() &&
                       b < other.exemplar_labels.size();
         ++b) {
      if (!other.exemplar_labels[b].empty()) {
        exemplar_labels_[b] = other.exemplar_labels[b];
        exemplar_values_[b] = other.exemplar_values[b];
      }
    }
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  MutexLock lock(&mutex_);
  HistogramSnapshot snap;
  snap.counts = counts_;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  snap.exemplar_labels = exemplar_labels_;
  snap.exemplar_values = exemplar_values_;
  return snap;
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The same rank convention as SortedPercentile: interpolate
  // between the order statistics floor(pos) and ceil(pos).
  const double pos = q * static_cast<double>(count - 1);
  const int64_t lo_rank = static_cast<int64_t>(std::floor(pos));
  const int64_t hi_rank = static_cast<int64_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo_rank);

  // Estimate one order statistic: find its bucket by cumulative count and
  // place it proportionally between the bucket bounds (midpoint of its
  // own slice), clamped to the exact observed range.
  auto order_stat = [this](int64_t rank) {
    int64_t before = 0;
    for (size_t b = 0; b < counts.size(); ++b) {
      const int64_t in_bucket = counts[b];
      if (in_bucket == 0) continue;
      if (rank < before + in_bucket) {
        const int bucket = static_cast<int>(b);
        const double lo = std::max(Histogram::LowerBound(bucket), min);
        const double hi =
            bucket < Histogram::kNumBounds
                ? std::min(Histogram::UpperBound(bucket), max)
                : max;
        const double slice =
            (static_cast<double>(rank - before) + 0.5) /
            static_cast<double>(in_bucket);
        return lo + (hi - lo) * slice;
      }
      before += in_bucket;
    }
    return max;  // rank == count - 1 rounding fallthrough.
  };

  const double lo_value = order_stat(lo_rank);
  const double hi_value = hi_rank == lo_rank ? lo_value : order_stat(hi_rank);
  return lo_value + (hi_value - lo_value) * frac;
}

double SortedPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = static_cast<size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace obs
}  // namespace deepmvi
