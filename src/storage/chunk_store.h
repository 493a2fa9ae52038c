#ifndef DEEPMVI_STORAGE_CHUNK_STORE_H_
#define DEEPMVI_STORAGE_CHUNK_STORE_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/data_tensor.h"

namespace deepmvi {
namespace storage {

/// On-disk layout of a chunked dataset directory:
///
///   <dir>/manifest.dmvs   versioned binary manifest (header below)
///   <dir>/chunks.bin      chunk payloads, raw little-endian doubles
///   <dir>/mask.csv        availability mask (0/1 CSV), by convention —
///                         written by dmvi_shard, not read by this layer
///
/// The store splits a num_series x num_times DataTensor into fixed-size
/// [series-group x time-block] chunks: series are grouped into runs of
/// `series_per_chunk` consecutive rows and the time axis into blocks of
/// `times_per_chunk` steps (edge chunks are smaller). Chunk (g, b) holds
/// the row-major doubles of its rows restricted to its time range, stored
/// back to back in chunks.bin; the manifest records every chunk's offset,
/// byte size, and FNV-1a 64 checksum so reads detect corruption and
/// truncation as Status errors.
///
/// Manifest format (little-endian, nn/serialize.h record conventions):
///   magic    "DMVS" (4 bytes)
///   version  uint32 (currently 1)
///   dims     the dimension table of nn::WriteDims (uint32 count, then
///            per dimension a name string, uint32 member count and
///            member strings; at most nn::kMaxTableSeries series)
///   num_series int32, num_times int32
///   series_per_chunk int32, times_per_chunk int32
///   per chunk, row-major (group-major, block within group):
///            uint64 offset into chunks.bin, uint64 byte size,
///            uint64 FNV-1a 64 checksum
struct ChunkStoreOptions {
  /// Consecutive series per chunk row-group.
  int series_per_chunk = 64;
  /// Time steps per chunk block. The windowed reader touches at most two
  /// blocks per training window as long as this stays >= the training
  /// max_context (default 1024).
  int times_per_chunk = 4096;
};

/// Conventional file names inside a store directory.
extern const char kManifestFileName[];   // "manifest.dmvs"
extern const char kChunkDataFileName[];  // "chunks.bin"
extern const char kMaskFileName[];       // "mask.csv"

/// Streaming store writer: rows (series) are appended one at a time, so a
/// dataset larger than RAM can be converted from a row-streaming source
/// (e.g. data::CsvSeriesReader). Rows of the current series-group are
/// buffered until the group is complete, then sliced into time blocks and
/// flushed — peak memory is series_per_chunk x num_times doubles plus the
/// manifest, never the full tensor.
class ChunkedSeriesStoreWriter {
 public:
  /// Creates `dir` (and parents) and opens chunks.bin for writing.
  static StatusOr<std::unique_ptr<ChunkedSeriesStoreWriter>> Create(
      const std::string& dir, const ChunkStoreOptions& options);

  /// Appends one series. The first row fixes num_times; later rows must
  /// have the same length.
  Status AppendRow(const std::vector<double>& row);

  /// Flushes the tail group and writes the manifest. `dims` must be a
  /// valid table (nn::TableSeriesCount) that multiplies out to the number
  /// of appended rows; when empty, a single anonymous "series" dimension
  /// with members s0, s1, ... is used (mirroring DataTensor::FromMatrix).
  Status Finish(std::vector<Dimension> dims);

  int rows_appended() const { return rows_appended_; }

 private:
  ChunkedSeriesStoreWriter() = default;

  Status FlushGroup();

  std::string dir_;
  ChunkStoreOptions options_;
  std::unique_ptr<std::ofstream> data_out_;
  int num_times_ = -1;  // Unknown until the first row.
  int rows_appended_ = 0;
  std::vector<std::vector<double>> group_buffer_;
  struct ChunkRecord {
    uint64_t offset = 0;
    uint64_t byte_size = 0;
    uint64_t checksum = 0;
  };
  std::vector<ChunkRecord> chunks_;  // Group-major, block within group.
  uint64_t next_offset_ = 0;
  bool finished_ = false;
};

/// Read side of the chunked time-block store. Open() parses and validates
/// the manifest, including that every chunk lies inside chunks.bin;
/// ReadChunk() fetches one chunk from chunks.bin, verifying its checksum. All read methods are const and thread-safe (each read
/// opens its own file handle), so concurrent trainers can share one store.
class ChunkedSeriesStore {
 public:
  /// Empty (unopened) store; StatusOr needs this. Use Open().
  ChunkedSeriesStore() = default;

  static StatusOr<ChunkedSeriesStore> Open(const std::string& dir);

  /// Writes `data` as a chunked store under `dir` (convenience wrapper
  /// over the streaming writer for in-core tensors).
  static Status WriteTensor(const DataTensor& data, const std::string& dir,
                            const ChunkStoreOptions& options = {});

  const std::vector<Dimension>& dims() const { return dims_; }
  int num_series() const { return num_series_; }
  int num_times() const { return num_times_; }
  int series_per_chunk() const { return options_.series_per_chunk; }
  int times_per_chunk() const { return options_.times_per_chunk; }
  int num_row_groups() const { return num_row_groups_; }
  int num_time_blocks() const { return num_time_blocks_; }
  const std::string& dir() const { return dir_; }

  /// First series row / time step covered by group `g` / block `b`.
  int group_begin_row(int g) const { return g * options_.series_per_chunk; }
  int block_begin_time(int b) const { return b * options_.times_per_chunk; }
  int group_num_rows(int g) const;
  int block_num_times(int b) const;

  /// Stable cache key of chunk (g, b), unique within this store.
  int64_t ChunkKey(int g, int b) const {
    return static_cast<int64_t>(g) * num_time_blocks_ + b;
  }

  /// Reads chunk (g, b) as a group_num_rows(g) x block_num_times(b)
  /// matrix of raw (unnormalized) values. Verifies the manifest checksum;
  /// corrupt or truncated payloads yield Status errors, never garbage.
  StatusOr<Matrix> ReadChunk(int g, int b) const;

  /// Materializes the full tensor (for in-core reference paths and
  /// small-store tooling; defeats the purpose for beyond-memory data).
  StatusOr<DataTensor> ReadTensor() const;

 private:
  std::string dir_;
  ChunkStoreOptions options_;
  std::vector<Dimension> dims_;
  int num_series_ = 0;
  int num_times_ = 0;
  int num_row_groups_ = 0;
  int num_time_blocks_ = 0;
  struct ChunkRecord {
    uint64_t offset = 0;
    uint64_t byte_size = 0;
    uint64_t checksum = 0;
  };
  std::vector<ChunkRecord> chunks_;  // Group-major, block within group.
};

/// FNV-1a 64-bit checksum of a byte buffer — the integrity check stored
/// per chunk in the manifest.
uint64_t Fnv1a64(const void* data, size_t size);

}  // namespace storage
}  // namespace deepmvi

#endif  // DEEPMVI_STORAGE_CHUNK_STORE_H_
