#include "storage/windowed_reader.h"

#include <algorithm>

#include "obs/trace.h"

namespace deepmvi {
namespace storage {

StatusOr<ValueWindow> WindowedSampleReader::Read(int t0, int len) const {
  if (t0 < 0 || len <= 0 || t0 + len > store_->num_times()) {
    return Status::InvalidArgument(
        "window [" + std::to_string(t0) + ", " + std::to_string(t0 + len) +
        ") out of range for " + std::to_string(store_->num_times()) +
        " time steps");
  }
  obs::Span span = obs::KernelSpan("storage.window_read");
  if (span.active()) {
    span.AddArg("t0", std::to_string(t0));
    span.AddArg("len", std::to_string(len));
  }
  const int num_series = store_->num_series();
  Matrix slab(num_series, len);

  const int block_len = store_->times_per_chunk();
  const int b0 = t0 / block_len;
  const int b1 = (t0 + len - 1) / block_len;
  for (int b = b0; b <= b1; ++b) {
    // Overlap of block b with the requested stripe, in absolute time.
    const int block_t0 = store_->block_begin_time(b);
    const int lo = std::max(t0, block_t0);
    const int hi = std::min(t0 + len, block_t0 + store_->block_num_times(b));
    for (int g = 0; g < store_->num_row_groups(); ++g) {
      StatusOr<ChunkCache::ChunkPtr> chunk = cache_->GetOrLoad(
          store_->ChunkKey(g, b), [&] {
            // Spans only cache misses: a hit never reaches this loader.
            obs::Span load = obs::KernelSpan("storage.chunk_load");
            if (load.active()) {
              load.AddArg("group", std::to_string(g));
              load.AddArg("block", std::to_string(b));
            }
            return store_->ReadChunk(g, b);
          });
      if (!chunk.ok()) return chunk.status();
      const Matrix& raw = **chunk;
      const int row0 = store_->group_begin_row(g);
      for (int r = 0; r < raw.rows(); ++r) {
        std::copy_n(raw.row_ptr(r) + (lo - block_t0), hi - lo,
                    slab.row_ptr(row0 + r) + (lo - t0));
      }
    }
  }
  // The window z-scores on read, as the in-core reader's does, so
  // out-of-core windows are bit-identical to in-core ones.
  return ValueWindow::OwnedSlab(std::move(slab), t0, stats_);
}

}  // namespace storage
}  // namespace deepmvi
