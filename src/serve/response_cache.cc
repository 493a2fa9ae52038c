#include "serve/response_cache.h"

#include "storage/chunk_store.h"

namespace deepmvi {
namespace serve {

uint64_t FingerprintData(const DataTensor& data) {
  const Matrix& values = data.values();
  return storage::Fnv1a64(values.data(), static_cast<size_t>(values.rows()) *
                                             values.cols() * sizeof(double));
}

uint64_t FingerprintMask(const Mask& mask) {
  // The mask's storage is private; hash cell by cell with the same FNV-1a
  // constants (one byte per cell, matching the internal representation).
  uint64_t hash = 14695981039346656037ULL;
  for (int r = 0; r < mask.rows(); ++r) {
    for (int t = 0; t < mask.cols(); ++t) {
      hash ^= mask.available(r, t) ? 1u : 0u;
      hash *= 1099511628211ULL;
    }
  }
  // Fold in the shape so (2x3) and (3x2) masks with equal cells differ.
  hash ^= static_cast<uint64_t>(mask.rows()) << 32 |
          static_cast<uint32_t>(mask.cols());
  hash *= 1099511628211ULL;
  return hash;
}

}  // namespace serve
}  // namespace deepmvi
