#include "storage/chunk_cache.h"

#include <utility>

namespace deepmvi {
namespace storage {

StatusOr<ChunkCache::ChunkPtr> ChunkCache::GetOrLoad(int64_t key,
                                                     const Loader& loader) {
  if (ChunkPtr cached = Get(key)) return cached;
  StatusOr<Matrix> loaded = loader();
  if (!loaded.ok()) return loaded.status();
  const int64_t bytes = static_cast<int64_t>(loaded->size()) *
                        static_cast<int64_t>(sizeof(double));
  return Insert(key, std::make_shared<const Matrix>(std::move(loaded).value()),
                bytes);
}

}  // namespace storage
}  // namespace deepmvi
