#ifndef DEEPMVI_STORAGE_CHUNK_CACHE_H_
#define DEEPMVI_STORAGE_CHUNK_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "common/lru_cache.h"
#include "common/status.h"
#include "tensor/matrix.h"

namespace deepmvi {
namespace storage {

/// Bounded, bytes-budgeted LRU cache of store chunks keyed by
/// ChunkedSeriesStore::ChunkKey, shared by the training loop's worker
/// threads. The eviction, pinning and stats are LruCache's; a chunk's
/// bytes are its doubles.
class ChunkCache : public LruCache<int64_t, Matrix> {
 public:
  using ChunkPtr = std::shared_ptr<const Matrix>;
  using Loader = std::function<StatusOr<Matrix>()>;

  using LruCache::LruCache;

  /// Returns the cached chunk for `key`, or runs `loader` and caches the
  /// result. Load failures are returned and nothing is cached. The load
  /// runs outside the cache lock so slow disk reads don't serialize
  /// unrelated readers; two threads racing on the same missing key may
  /// both load it, and the first insert wins (counted as one miss each).
  StatusOr<ChunkPtr> GetOrLoad(int64_t key, const Loader& loader);
};

}  // namespace storage
}  // namespace deepmvi

#endif  // DEEPMVI_STORAGE_CHUNK_CACHE_H_
