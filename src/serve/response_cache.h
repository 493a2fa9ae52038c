#ifndef DEEPMVI_SERVE_RESPONSE_CACHE_H_
#define DEEPMVI_SERVE_RESPONSE_CACHE_H_

#include <cstddef>
#include <cstdint>

#include "common/lru_cache.h"
#include "tensor/data_tensor.h"
#include "tensor/mask.h"

namespace deepmvi {
namespace serve {

/// A response-cache key: (model load generation, data fingerprint, mask
/// fingerprint).
///  - the generation (ImputationService::served()) names one set of
///    weights for the service's lifetime: a reload bumps it, so a reload
///    *cannot* serve the old weights' results; old entries simply age out
///    of the LRU.
///  - data/mask fingerprints are FingerprintData / FingerprintMask below.
struct ResponseCacheKey {
  int64_t generation;
  uint64_t data_fp;
  uint64_t mask_fp;
  bool operator==(const ResponseCacheKey& other) const {
    return generation == other.generation && data_fp == other.data_fp &&
           mask_fp == other.mask_fp;
  }
};

struct ResponseCacheKeyHash {
  size_t operator()(const ResponseCacheKey& key) const {
    // Splitmix-style fold of the three words.
    uint64_t h = static_cast<uint64_t>(key.generation);
    h = (h ^ (key.data_fp >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ key.data_fp) * 0x94d049bb133111ebULL;
    h = (h ^ (key.mask_fp >> 27)) * 0xbf58476d1ce4e5b9ULL;
    h ^= key.mask_fp;
    return static_cast<size_t>(h);
  }
};

/// A cached answer: the completed matrix plus the response counters that
/// went with it (so a hit reproduces the full response, not just the
/// values). An entry's bytes are sizeof(CachedResponse) plus its doubles.
struct CachedResponse {
  Matrix imputed;
  int64_t cells_imputed = 0;
  int64_t rows_touched = 0;
};

/// Bytes-budgeted, thread-safe LRU cache of imputation results, sharing
/// storage::ChunkCache's LruCache. Predict is deterministic, so a hit is
/// bit-identical to recomputing — the cache changes latency, never bytes
/// (net_test/serve_test assert this).
using ResponseCache =
    LruCache<ResponseCacheKey, CachedResponse, ResponseCacheKeyHash>;

/// FNV-1a 64 fingerprints of the raw cell bytes (storage::Fnv1a64, the
/// chunk-store checksum function), shared by the service's cache probe and
/// tests.
uint64_t FingerprintData(const DataTensor& data);
uint64_t FingerprintMask(const Mask& mask);

}  // namespace serve
}  // namespace deepmvi

#endif  // DEEPMVI_SERVE_RESPONSE_CACHE_H_
