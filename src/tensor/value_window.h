#ifndef DEEPMVI_TENSOR_VALUE_WINDOW_H_
#define DEEPMVI_TENSOR_VALUE_WINDOW_H_

#include <utility>

#include "tensor/data_tensor.h"
#include "tensor/matrix.h"

namespace deepmvi {

/// Read-only window onto a series-major value matrix covering the absolute
/// time range [t_begin, t_end) for every series. Callers index it with
/// absolute (series, time) coordinates, exactly like the full matrix it
/// stands in for.
///
/// A window reads its values either as they are, or z-scored on read with
/// per-series stats: (raw - mean[r]) / stddev[r], the one place that
/// expression lives (DataTensor::Normalized reads through it too), so a
/// normalized read is bit-identical to the same cell of the normalized
/// tensor without anyone holding that copy.
///
/// Two flavors share this type so the training forward pass has a single
/// code path for in-core and out-of-core data:
///  - a zero-copy *view* of a full num_series x num_times matrix (implicit
///    conversion from `const Matrix&` reads those values as they are), and
///  - an *owned slab* of num_series x len values starting at time t0,
///    assembled from store chunks by a WindowedSampleReader.
///
/// A window does not own the matrix it views or the stats it reads with:
/// it is a call-scoped parameter type (like string_view), not a storage
/// type.
class ValueWindow {
 public:
  ValueWindow() = default;

  /// Zero-copy view of a full matrix, read as it is; time 0 of the matrix
  /// is absolute time 0. Implicit so `Forward(..., values, ...)` call sites
  /// compile with a Matrix.
  ValueWindow(const Matrix& full) : external_(&full) {}  // NOLINT

  /// Zero-copy view of a full matrix of raw values, z-scored on read with
  /// `stats` (one entry per row).
  ValueWindow(const Matrix& full, const DataTensor::NormalizationStats& stats)
      : external_(&full),
        mean_(stats.mean.data()),
        stddev_(stats.stddev.data()) {}

  /// Owning slab of raw values whose column 0 is absolute time `t0`,
  /// z-scored on read with `stats` (one entry per row).
  static ValueWindow OwnedSlab(Matrix slab, int t0,
                               const DataTensor::NormalizationStats& stats) {
    ValueWindow out;
    out.owned_ = std::move(slab);
    out.t0_ = t0;
    out.mean_ = stats.mean.data();
    out.stddev_ = stats.stddev.data();
    return out;
  }

  ValueWindow(ValueWindow&&) = default;
  ValueWindow& operator=(ValueWindow&&) = default;
  ValueWindow(const ValueWindow&) = default;
  ValueWindow& operator=(const ValueWindow&) = default;

  /// Value of series `r` at absolute time `t`; t must lie in
  /// [t_begin(), t_end()).
  double operator()(int r, int t) const {
    const double raw = mat()(r, t - t0_);
    return mean_ == nullptr ? raw : (raw - mean_[r]) / stddev_[r];
  }

  int num_series() const { return mat().rows(); }
  int t_begin() const { return t0_; }
  int t_end() const { return t0_ + mat().cols(); }

 private:
  const Matrix& mat() const { return external_ != nullptr ? *external_ : owned_; }

  Matrix owned_;
  const Matrix* external_ = nullptr;
  int t0_ = 0;
  // Per-series z-score stats; null reads values as they are.
  const double* mean_ = nullptr;
  const double* stddev_ = nullptr;
};

}  // namespace deepmvi

#endif  // DEEPMVI_TENSOR_VALUE_WINDOW_H_
