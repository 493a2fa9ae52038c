#include "storage/data_source.h"

#include <utility>

#include "storage/windowed_reader.h"

namespace deepmvi {
namespace storage {
namespace {

Status CheckStatsCover(const DataTensor::NormalizationStats& stats,
                       int num_series) {
  if (static_cast<int>(stats.mean.size()) != num_series ||
      static_cast<int>(stats.stddev.size()) != num_series) {
    return Status::InvalidArgument(
        "normalization stats cover " + std::to_string(stats.mean.size()) +
        " series, source has " + std::to_string(num_series));
  }
  return Status::OK();
}

/// Zero-copy reader over the caller's in-core values: every Read returns a
/// full view z-scored on read, which trivially covers any requested
/// stripe.
class InMemoryWindowReader : public WindowReader {
 public:
  InMemoryWindowReader(const Matrix* values,
                       DataTensor::NormalizationStats stats)
      : values_(values), stats_(std::move(stats)) {}

  StatusOr<ValueWindow> Read(int t0, int len) const override {
    if (t0 < 0 || len <= 0 || t0 + len > values_->cols()) {
      return Status::InvalidArgument(
          "window [" + std::to_string(t0) + ", " + std::to_string(t0 + len) +
          ") out of range for " + std::to_string(values_->cols()) +
          " time steps");
    }
    return ValueWindow(*values_, stats_);
  }

 private:
  const Matrix* values_;
  DataTensor::NormalizationStats stats_;
};

}  // namespace

StatusOr<std::unique_ptr<WindowReader>> InMemoryDataSource::MakeReader(
    const DataTensor::NormalizationStats& stats) const {
  DMVI_RETURN_IF_ERROR(CheckStatsCover(stats, data_->num_series()));
  return std::unique_ptr<WindowReader>(
      new InMemoryWindowReader(&data_->values(), stats));
}

StatusOr<DataTensor::NormalizationStats> ChunkedDataSource::ComputeNormalization(
    const Mask& mask) const {
  if (mask.rows() != store_->num_series() ||
      mask.cols() != store_->num_times()) {
    return Status::InvalidArgument(
        "mask shape " + std::to_string(mask.rows()) + "x" +
        std::to_string(mask.cols()) + " does not match store " +
        std::to_string(store_->num_series()) + "x" +
        std::to_string(store_->num_times()));
  }
  DataTensor::NormalizationAccumulator acc(store_->num_series());
  // One pass over every chunk, reading directly (a full scan would only
  // churn the cache). Per series the cells arrive in ascending-time order
  // (blocks ascend within each group), which is all the accumulator needs
  // to reproduce the in-core stats exactly.
  for (int g = 0; g < store_->num_row_groups(); ++g) {
    const int row0 = store_->group_begin_row(g);
    for (int b = 0; b < store_->num_time_blocks(); ++b) {
      StatusOr<Matrix> chunk = store_->ReadChunk(g, b);
      if (!chunk.ok()) return chunk.status();
      const int t0 = store_->block_begin_time(b);
      for (int r = 0; r < chunk->rows(); ++r) {
        const int series = row0 + r;
        for (int t = 0; t < chunk->cols(); ++t) {
          if (mask.available(series, t0 + t)) acc.Add(series, (*chunk)(r, t));
        }
      }
    }
  }
  return acc.Finalize();
}

StatusOr<std::unique_ptr<WindowReader>> ChunkedDataSource::MakeReader(
    const DataTensor::NormalizationStats& stats) const {
  DMVI_RETURN_IF_ERROR(CheckStatsCover(stats, store_->num_series()));
  return std::unique_ptr<WindowReader>(
      new WindowedSampleReader(store_, cache_, stats));
}

}  // namespace storage
}  // namespace deepmvi
