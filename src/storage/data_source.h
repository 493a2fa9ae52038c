#ifndef DEEPMVI_STORAGE_DATA_SOURCE_H_
#define DEEPMVI_STORAGE_DATA_SOURCE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "storage/chunk_cache.h"
#include "storage/chunk_store.h"
#include "tensor/data_tensor.h"
#include "tensor/mask.h"
#include "tensor/value_window.h"

namespace deepmvi {
namespace storage {

/// Supplies normalized value windows for training. Read() must be
/// thread-safe: worker slots call it concurrently, one window per
/// in-flight sample.
class WindowReader {
 public:
  virtual ~WindowReader() = default;

  /// Normalized values for the absolute time range [t0, t0 + len) across
  /// all series, z-scored on read by the window. The returned window may
  /// cover more than requested (the in-core reader always returns the full
  /// matrix view) and borrows the reader's stats, so it must not outlive
  /// the reader.
  virtual StatusOr<ValueWindow> Read(int t0, int len) const = 0;
};

/// A (num_series x num_times) dataset DeepMVI can train from: either an
/// in-core DataTensor or a ChunkedSeriesStore directory. The abstraction
/// carries exactly what the training loop touches — dimension metadata,
/// bit-identical normalization statistics, and windowed normalized value
/// reads — so in-core and out-of-core training share one code path and
/// produce byte-identical checkpoints.
class DataSource {
 public:
  virtual ~DataSource() = default;

  virtual const std::vector<Dimension>& dims() const = 0;
  virtual int num_series() const = 0;
  virtual int num_times() const = 0;

  /// Per-series z-score stats over `mask`-available cells. Must equal
  /// DataTensor::ComputeNormalization on the materialized tensor bit for
  /// bit (both sides accumulate through NormalizationAccumulator in the
  /// same per-series, ascending-time order).
  virtual StatusOr<DataTensor::NormalizationStats> ComputeNormalization(
      const Mask& mask) const = 0;

  /// Builds a thread-safe reader of values normalized by `stats` (which
  /// must cover every series; InvalidArgument otherwise). The reader keeps
  /// its own copy of the stats, borrows this source and must not outlive
  /// it.
  virtual StatusOr<std::unique_ptr<WindowReader>> MakeReader(
      const DataTensor::NormalizationStats& stats) const = 0;
};

/// In-core source: wraps a DataTensor the caller keeps alive. Its readers
/// copy nothing: every Read is a zero-copy full view of the caller's
/// values, z-scored on read, so the many Predict and PredictCells calls a
/// caller makes on one tensor cost no copy of it.
class InMemoryDataSource : public DataSource {
 public:
  explicit InMemoryDataSource(const DataTensor* data) : data_(data) {}

  const std::vector<Dimension>& dims() const override { return data_->dims(); }
  int num_series() const override { return data_->num_series(); }
  int num_times() const override { return data_->num_times(); }
  StatusOr<DataTensor::NormalizationStats> ComputeNormalization(
      const Mask& mask) const override {
    return data_->ComputeNormalization(mask);
  }
  StatusOr<std::unique_ptr<WindowReader>> MakeReader(
      const DataTensor::NormalizationStats& stats) const override;

 private:
  const DataTensor* data_;
};

/// Out-of-core source: a ChunkedSeriesStore plus a shared ChunkCache. The
/// caller keeps both alive; readers assemble normalized slabs from the
/// (at most two per window) time blocks a request spans, fetching raw
/// chunks through the cache.
class ChunkedDataSource : public DataSource {
 public:
  ChunkedDataSource(const ChunkedSeriesStore* store, ChunkCache* cache)
      : store_(store), cache_(cache) {}

  const std::vector<Dimension>& dims() const override { return store_->dims(); }
  int num_series() const override { return store_->num_series(); }
  int num_times() const override { return store_->num_times(); }

  /// Streams every chunk once (group-major), accumulating per-series
  /// partial sums in ascending-time order — bit-identical to the in-core
  /// stats while holding only one chunk at a time.
  StatusOr<DataTensor::NormalizationStats> ComputeNormalization(
      const Mask& mask) const override;

  StatusOr<std::unique_ptr<WindowReader>> MakeReader(
      const DataTensor::NormalizationStats& stats) const override;

  const ChunkedSeriesStore* store() const { return store_; }
  ChunkCache* cache() const { return cache_; }

 private:
  const ChunkedSeriesStore* store_;
  ChunkCache* cache_;
};

}  // namespace storage
}  // namespace deepmvi

#endif  // DEEPMVI_STORAGE_DATA_SOURCE_H_
