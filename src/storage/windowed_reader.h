#ifndef DEEPMVI_STORAGE_WINDOWED_READER_H_
#define DEEPMVI_STORAGE_WINDOWED_READER_H_

#include "storage/data_source.h"

namespace deepmvi {
namespace storage {

/// Serves the training loop's windowed sample reads from a chunked store:
/// a request for the time stripe [t0, t0 + len) across all series is
/// assembled into an owned slab from the time blocks it spans — at most
/// two when len <= times_per_chunk, which holds for every DeepMVI training
/// window as long as the store's block size is >= the config's
/// max_context. The slab holds raw values and the returned window
/// z-scores them on read with the fit-time stats, which it borrows from
/// this reader. Raw chunks are fetched through the shared ChunkCache, so
/// the working set stays within the cache's byte budget plus one slab per
/// in-flight sample.
///
/// Thread-safe: the reader itself is immutable and the cache locks
/// internally.
class WindowedSampleReader : public WindowReader {
 public:
  WindowedSampleReader(const ChunkedSeriesStore* store, ChunkCache* cache,
                       DataTensor::NormalizationStats stats)
      : store_(store), cache_(cache), stats_(std::move(stats)) {}

  StatusOr<ValueWindow> Read(int t0, int len) const override;

 private:
  const ChunkedSeriesStore* store_;
  ChunkCache* cache_;
  DataTensor::NormalizationStats stats_;
};

}  // namespace storage
}  // namespace deepmvi

#endif  // DEEPMVI_STORAGE_WINDOWED_READER_H_
