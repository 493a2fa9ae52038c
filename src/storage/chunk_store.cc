#include "storage/chunk_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "nn/serialize.h"

namespace deepmvi {
namespace storage {
namespace {

constexpr char kManifestMagic[4] = {'D', 'M', 'V', 'S'};
constexpr uint32_t kManifestVersion = 1;

using nn::ReadPod;
using nn::WritePod;

// Written so that a + b cannot overflow.
int DivCeil(int a, int b) { return a / b + (a % b != 0); }

std::string ManifestPath(const std::string& dir) {
  return dir + "/" + kManifestFileName;
}
std::string ChunkDataPath(const std::string& dir) {
  return dir + "/" + kChunkDataFileName;
}

}  // namespace

const char kManifestFileName[] = "manifest.dmvs";
const char kChunkDataFileName[] = "chunks.bin";
const char kMaskFileName[] = "mask.csv";

uint64_t Fnv1a64(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 14695981039346656037ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

// ---- Writer -----------------------------------------------------------------

StatusOr<std::unique_ptr<ChunkedSeriesStoreWriter>>
ChunkedSeriesStoreWriter::Create(const std::string& dir,
                                 const ChunkStoreOptions& options) {
  if (options.series_per_chunk <= 0 || options.times_per_chunk <= 0) {
    return Status::InvalidArgument("chunk geometry must be positive, got " +
                                   std::to_string(options.series_per_chunk) +
                                   " x " +
                                   std::to_string(options.times_per_chunk));
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create store directory " + dir + ": " +
                           ec.message());
  }
  auto writer = std::unique_ptr<ChunkedSeriesStoreWriter>(
      new ChunkedSeriesStoreWriter());
  writer->dir_ = dir;
  writer->options_ = options;
  writer->data_out_ = std::make_unique<std::ofstream>(
      ChunkDataPath(dir), std::ios::binary | std::ios::trunc);
  if (!*writer->data_out_) {
    return Status::IoError("cannot open " + ChunkDataPath(dir) +
                           " for writing");
  }
  return writer;
}

Status ChunkedSeriesStoreWriter::AppendRow(const std::vector<double>& row) {
  if (finished_) {
    return Status::FailedPrecondition("AppendRow after Finish");
  }
  if (num_times_ < 0) {
    if (row.empty()) return Status::InvalidArgument("empty first row");
    num_times_ = static_cast<int>(row.size());
  } else if (static_cast<int>(row.size()) != num_times_) {
    return Status::InvalidArgument(
        "ragged rows: row " + std::to_string(rows_appended_) + " has " +
        std::to_string(row.size()) + " values, expected " +
        std::to_string(num_times_));
  }
  group_buffer_.push_back(row);
  ++rows_appended_;
  if (static_cast<int>(group_buffer_.size()) == options_.series_per_chunk) {
    DMVI_RETURN_IF_ERROR(FlushGroup());
  }
  return Status::OK();
}

Status ChunkedSeriesStoreWriter::FlushGroup() {
  if (group_buffer_.empty()) return Status::OK();
  const int group_rows = static_cast<int>(group_buffer_.size());
  const int num_blocks = DivCeil(num_times_, options_.times_per_chunk);
  std::vector<double> payload;  // Reused across blocks of this group.
  for (int b = 0; b < num_blocks; ++b) {
    const int t0 = b * options_.times_per_chunk;
    const int len = std::min(options_.times_per_chunk, num_times_ - t0);
    payload.clear();
    payload.reserve(static_cast<size_t>(group_rows) * len);
    for (int r = 0; r < group_rows; ++r) {
      const double* src = group_buffer_[r].data() + t0;
      payload.insert(payload.end(), src, src + len);
    }
    const uint64_t byte_size = payload.size() * sizeof(double);
    data_out_->write(reinterpret_cast<const char*>(payload.data()),
                     static_cast<std::streamsize>(byte_size));
    if (!*data_out_) {
      return Status::IoError("write failed for " + ChunkDataPath(dir_));
    }
    chunks_.push_back(
        {next_offset_, byte_size, Fnv1a64(payload.data(), byte_size)});
    next_offset_ += byte_size;
  }
  group_buffer_.clear();
  return Status::OK();
}

Status ChunkedSeriesStoreWriter::Finish(std::vector<Dimension> dims) {
  if (finished_) return Status::FailedPrecondition("Finish called twice");
  if (rows_appended_ == 0) {
    return Status::InvalidArgument("cannot finish a store with no rows");
  }
  DMVI_RETURN_IF_ERROR(FlushGroup());
  data_out_->close();
  if (!*data_out_) {
    return Status::IoError("close failed for " + ChunkDataPath(dir_));
  }
  finished_ = true;

  if (dims.empty()) {
    Dimension d;
    d.name = "series";
    d.members.reserve(rows_appended_);
    for (int r = 0; r < rows_appended_; ++r) {
      d.members.push_back("s" + std::to_string(r));
    }
    dims.push_back(std::move(d));
  }
  StatusOr<int> expected = nn::TableSeriesCount(dims);
  if (!expected.ok()) return expected.status();
  if (*expected != rows_appended_) {
    return Status::InvalidArgument(
        "dimensions imply " + std::to_string(*expected) + " series but " +
        std::to_string(rows_appended_) + " rows were appended");
  }

  std::ofstream os(ManifestPath(dir_), std::ios::binary | std::ios::trunc);
  if (!os) {
    return Status::IoError("cannot open " + ManifestPath(dir_) +
                           " for writing");
  }
  os.write(kManifestMagic, sizeof(kManifestMagic));
  WritePod(os, kManifestVersion);
  DMVI_RETURN_IF_ERROR(nn::WriteDims(os, dims).status());
  WritePod(os, static_cast<int32_t>(rows_appended_));
  WritePod(os, static_cast<int32_t>(num_times_));
  WritePod(os, static_cast<int32_t>(options_.series_per_chunk));
  WritePod(os, static_cast<int32_t>(options_.times_per_chunk));
  for (const ChunkRecord& chunk : chunks_) {
    WritePod(os, chunk.offset);
    WritePod(os, chunk.byte_size);
    WritePod(os, chunk.checksum);
  }
  os.close();
  if (!os) return Status::IoError("write failed for " + ManifestPath(dir_));
  return Status::OK();
}

// ---- Reader -----------------------------------------------------------------

StatusOr<ChunkedSeriesStore> ChunkedSeriesStore::Open(const std::string& dir) {
  std::ifstream is(ManifestPath(dir), std::ios::binary);
  if (!is) return Status::IoError("cannot open " + ManifestPath(dir));

  char magic[4] = {};
  is.read(magic, sizeof(magic));
  if (is.gcount() != sizeof(magic)) {
    return Status::IoError("truncated manifest: header missing");
  }
  if (std::memcmp(magic, kManifestMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument(ManifestPath(dir) +
                                   " is not a chunked-store manifest");
  }
  uint32_t version = 0;
  if (!ReadPod(is, &version)) {
    return Status::IoError("truncated manifest: version missing");
  }
  if (version != kManifestVersion) {
    return Status::InvalidArgument("unsupported store version " +
                                   std::to_string(version));
  }

  ChunkedSeriesStore store;
  store.dir_ = dir;
  StatusOr<int> expected = nn::ReadDims(is, &store.dims_);
  if (!expected.ok()) return expected.status();

  int32_t num_series = 0, num_times = 0, series_per_chunk = 0,
          times_per_chunk = 0;
  if (!ReadPod(is, &num_series) || !ReadPod(is, &num_times) ||
      !ReadPod(is, &series_per_chunk) || !ReadPod(is, &times_per_chunk)) {
    return Status::IoError("truncated manifest: shape header missing");
  }
  if (num_series <= 0 || num_times <= 0 || series_per_chunk <= 0 ||
      times_per_chunk <= 0) {
    return Status::InvalidArgument("corrupt manifest: non-positive shape");
  }
  if (*expected != num_series) {
    return Status::InvalidArgument(
        "corrupt manifest: dimensions imply " + std::to_string(*expected) +
        " series but header says " + std::to_string(num_series));
  }
  store.num_series_ = num_series;
  store.num_times_ = num_times;
  store.options_.series_per_chunk = series_per_chunk;
  store.options_.times_per_chunk = times_per_chunk;
  store.num_row_groups_ = DivCeil(num_series, series_per_chunk);
  store.num_time_blocks_ = DivCeil(num_times, times_per_chunk);

  // The table grows entry by entry, so a header that declares more chunks
  // than the manifest holds fails at its end instead of sizing a table
  // from the geometry. Each chunk must have the byte size its geometry
  // implies and lie inside chunks.bin, so ReadChunk never allocates more
  // than the file holds.
  std::error_code ec;
  const uint64_t data_bytes =
      std::filesystem::file_size(ChunkDataPath(dir), ec);
  if (ec) {
    return Status::IoError("cannot stat " + ChunkDataPath(dir) + ": " +
                           ec.message());
  }
  const int64_t num_chunks =
      static_cast<int64_t>(store.num_row_groups_) * store.num_time_blocks_;
  for (int64_t i = 0; i < num_chunks; ++i) {
    ChunkRecord chunk;
    if (!ReadPod(is, &chunk.offset) || !ReadPod(is, &chunk.byte_size) ||
        !ReadPod(is, &chunk.checksum)) {
      return Status::IoError("truncated manifest: chunk table ends at entry " +
                             std::to_string(i) + " of " +
                             std::to_string(num_chunks));
    }
    const int g = static_cast<int>(i / store.num_time_blocks_);
    const int b = static_cast<int>(i % store.num_time_blocks_);
    const uint64_t expected_bytes =
        static_cast<uint64_t>(store.group_num_rows(g)) *
        store.block_num_times(b) * sizeof(double);
    if (chunk.byte_size != expected_bytes) {
      return Status::InvalidArgument(
          "corrupt manifest: chunk (" + std::to_string(g) + "," +
          std::to_string(b) + ") has " + std::to_string(chunk.byte_size) +
          " bytes, geometry implies " + std::to_string(expected_bytes));
    }
    if (chunk.offset > data_bytes ||
        chunk.byte_size > data_bytes - chunk.offset) {
      return Status::IoError(
          "truncated chunk data: chunk (" + std::to_string(g) + "," +
          std::to_string(b) + ") ends past the " + std::to_string(data_bytes) +
          " bytes of " + ChunkDataPath(dir));
    }
    store.chunks_.push_back(chunk);
  }
  return store;
}

int ChunkedSeriesStore::group_num_rows(int g) const {
  DMVI_CHECK_GE(g, 0);
  DMVI_CHECK_LT(g, num_row_groups_);
  return std::min(options_.series_per_chunk,
                  num_series_ - g * options_.series_per_chunk);
}

int ChunkedSeriesStore::block_num_times(int b) const {
  DMVI_CHECK_GE(b, 0);
  DMVI_CHECK_LT(b, num_time_blocks_);
  return std::min(options_.times_per_chunk,
                  num_times_ - b * options_.times_per_chunk);
}

StatusOr<Matrix> ChunkedSeriesStore::ReadChunk(int g, int b) const {
  const ChunkRecord& chunk = chunks_[ChunkKey(g, b)];
  const int rows = group_num_rows(g);
  const int cols = block_num_times(b);
  // Each read opens its own handle: concurrent readers never share stream
  // state, so no locking is needed at this layer (the ChunkCache amortizes
  // the open cost across hits).
  std::ifstream is(ChunkDataPath(dir_), std::ios::binary);
  if (!is) return Status::IoError("cannot open " + ChunkDataPath(dir_));
  is.seekg(static_cast<std::streamoff>(chunk.offset));
  Matrix out(rows, cols);
  is.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(chunk.byte_size));
  if (is.gcount() != static_cast<std::streamsize>(chunk.byte_size)) {
    return Status::IoError("truncated chunk data: chunk (" +
                           std::to_string(g) + "," + std::to_string(b) +
                           ") ends early in " + ChunkDataPath(dir_));
  }
  const uint64_t checksum = Fnv1a64(out.data(), chunk.byte_size);
  if (checksum != chunk.checksum) {
    return Status::InvalidArgument(
        "checksum mismatch for chunk (" + std::to_string(g) + "," +
        std::to_string(b) + ") in " + ChunkDataPath(dir_) +
        " (corrupt data)");
  }
  return out;
}

StatusOr<DataTensor> ChunkedSeriesStore::ReadTensor() const {
  Matrix values(num_series_, num_times_);
  for (int g = 0; g < num_row_groups_; ++g) {
    for (int b = 0; b < num_time_blocks_; ++b) {
      StatusOr<Matrix> chunk = ReadChunk(g, b);
      if (!chunk.ok()) return chunk.status();
      values.SetBlock(group_begin_row(g), block_begin_time(b), *chunk);
    }
  }
  return DataTensor(dims_, std::move(values));
}

Status ChunkedSeriesStore::WriteTensor(const DataTensor& data,
                                       const std::string& dir,
                                       const ChunkStoreOptions& options) {
  StatusOr<std::unique_ptr<ChunkedSeriesStoreWriter>> writer =
      ChunkedSeriesStoreWriter::Create(dir, options);
  if (!writer.ok()) return writer.status();
  std::vector<double> row(data.num_times());
  for (int r = 0; r < data.num_series(); ++r) {
    const double* src = data.values().row_ptr(r);
    row.assign(src, src + data.num_times());
    DMVI_RETURN_IF_ERROR((*writer)->AppendRow(row));
  }
  return (*writer)->Finish(data.dims());
}

}  // namespace storage
}  // namespace deepmvi
