// Tests for the out-of-core storage subsystem (src/storage): chunked
// store round trips and corruption handling, the bounded LRU chunk cache
// under concurrent readers, windowed normalized reads, and — the
// acceptance bar of the subsystem — byte-identical checkpoints between
// in-core and chunked training.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/deepmvi.h"
#include "data/io.h"
#include "nn/serialize.h"
#include "storage/chunk_cache.h"
#include "storage/chunk_store.h"
#include "storage/data_source.h"
#include "storage/windowed_reader.h"
#include "testing/test_util.h"

namespace deepmvi {
namespace {

using namespace testutil;
using storage::ChunkCache;
using storage::ChunkedDataSource;
using storage::ChunkedSeriesStore;
using storage::ChunkedSeriesStoreWriter;
using storage::ChunkStoreOptions;
using storage::InMemoryDataSource;
using storage::WindowReader;

/// Fresh store directory under the test temp dir.
std::string StoreDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

DataTensor MultiDimTensor(int t_len, uint64_t seed) {
  Dimension stores{"store", {"a", "b"}};
  Dimension items{"item", {"x", "y", "z"}};
  return DataTensor({stores, items}, RandomMatrix(6, t_len, seed));
}

// ---- Store round trip -------------------------------------------------------

TEST(ChunkStoreTest, TensorRoundTripIsBitExact) {
  DataTensor data = MultiDimTensor(101, 3);  // Odd sizes -> edge chunks.
  const std::string dir = StoreDir("roundtrip");
  ChunkStoreOptions options;
  options.series_per_chunk = 4;
  options.times_per_chunk = 32;
  ASSERT_TRUE(ChunkedSeriesStore::WriteTensor(data, dir, options).ok());

  StatusOr<ChunkedSeriesStore> store = ChunkedSeriesStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->num_series(), 6);
  EXPECT_EQ(store->num_times(), 101);
  EXPECT_EQ(store->num_row_groups(), 2);
  EXPECT_EQ(store->num_time_blocks(), 4);
  ASSERT_EQ(store->dims().size(), 2u);
  EXPECT_EQ(store->dims()[0].name, "store");
  EXPECT_EQ(store->dims()[1].members, data.dims()[1].members);

  StatusOr<DataTensor> loaded = store->ReadTensor();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectMatricesBitIdentical(loaded->values(), data.values(), "round trip");

  // Edge chunk geometry: last block is 101 - 3*32 = 5 steps, last group 2
  // rows.
  StatusOr<Matrix> chunk = store->ReadChunk(1, 3);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk->rows(), 2);
  EXPECT_EQ(chunk->cols(), 5);
  for (int r = 0; r < 2; ++r) {
    for (int t = 0; t < 5; ++t) {
      ASSERT_EQ((*chunk)(r, t), data.values()(4 + r, 96 + t));
    }
  }
}

TEST(ChunkStoreTest, StreamingWriterMatchesWriteTensor) {
  DataTensor data = DataTensor::FromMatrix(RandomMatrix(7, 50, 11));
  ChunkStoreOptions options;
  options.series_per_chunk = 3;
  options.times_per_chunk = 16;

  const std::string dir_a = StoreDir("bulk");
  ASSERT_TRUE(ChunkedSeriesStore::WriteTensor(data, dir_a, options).ok());

  const std::string dir_b = StoreDir("streamed");
  StatusOr<std::unique_ptr<ChunkedSeriesStoreWriter>> writer =
      ChunkedSeriesStoreWriter::Create(dir_b, options);
  ASSERT_TRUE(writer.ok());
  for (int r = 0; r < 7; ++r) {
    ASSERT_TRUE((*writer)->AppendRow(data.values().Row(r)).ok());
  }
  ASSERT_TRUE((*writer)->Finish({}).ok());  // Anonymous dim = FromMatrix's.

  EXPECT_EQ(ReadFileBytes(dir_a + "/" + storage::kChunkDataFileName),
            ReadFileBytes(dir_b + "/" + storage::kChunkDataFileName));
  EXPECT_EQ(ReadFileBytes(dir_a + "/" + storage::kManifestFileName),
            ReadFileBytes(dir_b + "/" + storage::kManifestFileName));
}

TEST(ChunkStoreTest, WriterRejectsRaggedRowsAndBadDims) {
  const std::string dir = StoreDir("ragged");
  StatusOr<std::unique_ptr<ChunkedSeriesStoreWriter>> writer =
      ChunkedSeriesStoreWriter::Create(dir, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendRow({1.0, 2.0, 3.0}).ok());
  EXPECT_EQ((*writer)->AppendRow({1.0}).code(), StatusCode::kInvalidArgument);
  // Dims that do not multiply out to the appended row count.
  Dimension dim{"series", {"a", "b", "c"}};
  EXPECT_EQ((*writer)->Finish({dim}).code(), StatusCode::kInvalidArgument);

  // 65 one-member dims, one past nn::kMaxDims: no manifest Open would
  // refuse is written.
  const std::string wide_dir = StoreDir("wide");
  const Status wide = ChunkedSeriesStore::WriteTensor(
      DataTensor(UniformDims(65, 1), RandomMatrix(1, 20, 8)), wide_dir);
  EXPECT_EQ(wide.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wide.message().find("dimension count 65"), std::string::npos)
      << wide.ToString();
  EXPECT_FALSE(
      std::filesystem::exists(wide_dir + "/" + storage::kManifestFileName));
}

// ---- Corruption and truncation ---------------------------------------------

TEST(ChunkStoreTest, CorruptChunkFailsChecksum) {
  DataTensor data = DataTensor::FromMatrix(RandomMatrix(4, 40, 5));
  const std::string dir = StoreDir("corrupt");
  ChunkStoreOptions options;
  options.series_per_chunk = 2;
  options.times_per_chunk = 16;
  ASSERT_TRUE(ChunkedSeriesStore::WriteTensor(data, dir, options).ok());

  // Flip one byte in the middle of chunks.bin.
  const std::string chunk_path = dir + "/" + storage::kChunkDataFileName;
  std::string bytes = ReadFileBytes(chunk_path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xff);
  std::ofstream(chunk_path, std::ios::binary | std::ios::trunc) << bytes;

  StatusOr<ChunkedSeriesStore> store = ChunkedSeriesStore::Open(dir);
  ASSERT_TRUE(store.ok());
  bool saw_checksum_error = false;
  for (int g = 0; g < store->num_row_groups(); ++g) {
    for (int b = 0; b < store->num_time_blocks(); ++b) {
      StatusOr<Matrix> chunk = store->ReadChunk(g, b);
      if (!chunk.ok()) {
        EXPECT_EQ(chunk.status().code(), StatusCode::kInvalidArgument);
        saw_checksum_error = true;
      }
    }
  }
  EXPECT_TRUE(saw_checksum_error);
}

TEST(ChunkStoreTest, TruncatedChunkDataIsIoError) {
  DataTensor data = DataTensor::FromMatrix(RandomMatrix(4, 40, 6));
  const std::string dir = StoreDir("truncated");
  ASSERT_TRUE(ChunkedSeriesStore::WriteTensor(data, dir, {}).ok());
  const std::string chunk_path = dir + "/" + storage::kChunkDataFileName;
  StatusOr<ChunkedSeriesStore> store = ChunkedSeriesStore::Open(dir);
  ASSERT_TRUE(store.ok());
  std::string bytes = ReadFileBytes(chunk_path);
  std::ofstream(chunk_path, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() / 2);

  // Truncated under an open store: the read finds the short file.
  StatusOr<Matrix> chunk = store->ReadChunk(0, 0);
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.status().code(), StatusCode::kIoError);
  // Truncated before Open: the manifest's chunks no longer fit the file.
  EXPECT_EQ(ChunkedSeriesStore::Open(dir).status().code(),
            StatusCode::kIoError);
}

TEST(ChunkStoreTest, CorruptAndTruncatedManifestsAreErrors) {
  DataTensor data = DataTensor::FromMatrix(RandomMatrix(3, 20, 7));
  const std::string dir = StoreDir("badmanifest");
  ASSERT_TRUE(ChunkedSeriesStore::WriteTensor(data, dir, {}).ok());
  const std::string manifest = dir + "/" + storage::kManifestFileName;
  const std::string bytes = ReadFileBytes(manifest);

  // Bad magic.
  std::ofstream(manifest, std::ios::binary | std::ios::trunc)
      << "XXXX" << bytes.substr(4);
  EXPECT_EQ(ChunkedSeriesStore::Open(dir).status().code(),
            StatusCode::kInvalidArgument);

  // Truncated chunk table.
  std::ofstream(manifest, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() - 7);
  EXPECT_EQ(ChunkedSeriesStore::Open(dir).status().code(),
            StatusCode::kIoError);

  // Crafted manifests, each opened in a child under an address-space cap
  // far below what a chunk table sized from their headers would take.
  auto expect_open_fails = [&](const std::string& crafted, StatusCode code,
                               const std::string& message) {
    std::ofstream(manifest, std::ios::binary | std::ios::trunc) << crafted;
    ExpectErrorUnderAddressSpaceLimit(
        [&] { return ChunkedSeriesStore::Open(dir).status(); });
    const Status status = ChunkedSeriesStore::Open(dir).status();
    EXPECT_EQ(status.code(), code) << message;
    EXPECT_NE(status.message().find(message), std::string::npos)
        << status.ToString();
  };
  // Magic, version, a dimension table, the shape header, then the chunk
  // entries given as (offset, byte size) pairs, checksums zero.
  auto raw_manifest = [](const std::vector<Dimension>& dims, int32_t series,
                         int32_t times, int32_t series_per_chunk,
                         int32_t times_per_chunk,
                         const std::vector<std::pair<uint64_t, uint64_t>>&
                             entries) {
    std::ostringstream os;
    os << "DMVS";
    nn::WritePod(os, uint32_t{1});
    os << RawDims(dims);
    for (const int32_t field :
         {series, times, series_per_chunk, times_per_chunk}) {
      nn::WritePod(os, field);
    }
    for (const auto& [offset, byte_size] : entries) {
      nn::WritePod(os, offset);
      nn::WritePod(os, byte_size);
      nn::WritePod(os, uint64_t{0});
    }
    return os.str();
  };
  // 64 two-member dimensions: 2^64 series, no overflow in the count.
  expect_open_fails(raw_manifest(UniformDims(64, 2), 1, 20, 64, 4096, {}),
                    StatusCode::kInvalidArgument, "dimension table");
  // 30 two-member dimensions and a 2^30 x 2^30 geometry in 1 x 1 chunks:
  // 2^30 series are past the table's bound.
  expect_open_fails(raw_manifest(UniformDims(30, 2), 1 << 30, 1 << 30, 1, 1,
                                 {{0, 8}, {8, 8}}),
                    StatusCode::kInvalidArgument, "dimension table");
  // A valid 2^24-series table over 2^30 steps in 1 x 1 chunks declares
  // 2^54 chunks; the table ends after the two the manifest holds.
  expect_open_fails(raw_manifest(UniformDims(24, 2), 1 << 24, 1 << 30, 1, 1,
                                 {{0, 8}, {8, 8}}),
                    StatusCode::kIoError, "chunk table ends at entry 2");
  // A chunk of the right size that lies past the end of chunks.bin.
  expect_open_fails(
      raw_manifest(data.dims(), 3, 20, 64, 4096, {{1 << 20, 3 * 20 * 8}}),
      StatusCode::kIoError, "ends past the");

  // Missing manifest.
  std::filesystem::remove(manifest);
  EXPECT_EQ(ChunkedSeriesStore::Open(dir).status().code(),
            StatusCode::kIoError);
}

// ---- Chunk cache ------------------------------------------------------------

TEST(ChunkCacheTest, CachesHitsAndCountsMisses) {
  ChunkCache cache(1 << 20);
  int loads = 0;
  auto loader = [&loads]() -> StatusOr<Matrix> {
    ++loads;
    return Matrix(4, 4, 1.0);
  };
  for (int i = 0; i < 5; ++i) {
    StatusOr<ChunkCache::ChunkPtr> chunk = cache.GetOrLoad(42, loader);
    ASSERT_TRUE(chunk.ok());
    EXPECT_EQ((**chunk)(0, 0), 1.0);
  }
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(cache.stats().hits, 4);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(ChunkCacheTest, LruEvictionRespectsByteBudgetUnderConcurrentReaders) {
  // Each chunk is 8x16 doubles = 1 KiB; budget holds 4 of them.
  const int64_t chunk_bytes = 8 * 16 * sizeof(double);
  ChunkCache cache(4 * chunk_bytes);
  ParallelFor(64, 8, [&](int i) {
    const int64_t key = i % 16;
    StatusOr<ChunkCache::ChunkPtr> chunk = cache.GetOrLoad(key, [key] {
      return StatusOr<Matrix>(Matrix(8, 16, static_cast<double>(key)));
    });
    ASSERT_TRUE(chunk.ok());
    // The handed-out chunk stays valid and correct even if evicted.
    ASSERT_EQ((**chunk)(7, 15), static_cast<double>(key));
  });
  const ChunkCache::Stats stats = cache.stats();
  EXPECT_LE(stats.bytes_cached, cache.byte_budget());
  EXPECT_LE(stats.peak_bytes, cache.byte_budget());
  EXPECT_GT(stats.evictions, 0);
  EXPECT_EQ(stats.hits + stats.misses, 64);
}

TEST(ChunkCacheTest, OversizedChunkIsServedButNotRetained) {
  ChunkCache cache(64);  // Smaller than any real chunk.
  StatusOr<ChunkCache::ChunkPtr> chunk =
      cache.GetOrLoad(1, [] { return StatusOr<Matrix>(Matrix(16, 16, 3.0)); });
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ((**chunk)(0, 0), 3.0);
  EXPECT_EQ(cache.stats().bytes_cached, 0);
}

TEST(ChunkCacheTest, LoaderFailureIsPropagatedAndNotCached) {
  ChunkCache cache(1 << 20);
  StatusOr<ChunkCache::ChunkPtr> chunk = cache.GetOrLoad(
      7, [] { return StatusOr<Matrix>(Status::IoError("disk gone")); });
  EXPECT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.status().code(), StatusCode::kIoError);
  // A later successful load for the same key works.
  chunk = cache.GetOrLoad(7, [] { return StatusOr<Matrix>(Matrix(2, 2)); });
  EXPECT_TRUE(chunk.ok());
}

// ---- Windowed reads ---------------------------------------------------------

TEST(WindowedReaderTest, WindowsMatchNormalizedTensorBitForBit) {
  SeasonalCase seasonal = MakeSeasonalCase(21);
  // Signed zeros, subnormals and large magnitudes among ordinary values.
  Matrix values = seasonal.data.values();
  values(0, 3) = -0.0;
  values(1, 5) = 0.0;
  values(2, 7) = 4.9e-324;
  values(3, 40) = -2.2e-310;
  values(4, 100) = 1e150;
  values(5, 199) = -3e149;
  ASSERT_TRUE(values.AllFinite());
  const DataTensor data(seasonal.data.dims(), values);
  const std::string dir = StoreDir("windows");
  ChunkStoreOptions options;
  options.series_per_chunk = 4;
  options.times_per_chunk = 32;
  ASSERT_TRUE(ChunkedSeriesStore::WriteTensor(data, dir, options).ok());
  StatusOr<ChunkedSeriesStore> store = ChunkedSeriesStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ChunkCache cache(1 << 18);
  ChunkedDataSource chunked(&store.value(), &cache);
  InMemoryDataSource in_core(&data);

  // Stats must match the in-core computation bit for bit.
  auto expected_stats = data.ComputeNormalization(seasonal.mask);
  StatusOr<DataTensor::NormalizationStats> stats =
      chunked.ComputeNormalization(seasonal.mask);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->mean, expected_stats.mean);
  ASSERT_EQ(stats->stddev, expected_stats.stddev);
  DataTensor::NormalizationStats identity;
  identity.mean.assign(data.num_series(), 0.0);
  identity.stddev.assign(data.num_series(), 1.0);

  const DataTensor normalized = data.Normalized(expected_stats);
  // Columns [t0, t0 + len) of a window or a matrix, as a matrix.
  auto stripe = [&data](const auto& source, int t0, int len) {
    Matrix out(data.num_series(), len);
    for (int r = 0; r < out.rows(); ++r) {
      for (int t = 0; t < len; ++t) out(r, t) = source(r, t0 + t);
    }
    return out;
  };
  for (const storage::DataSource* source :
       {static_cast<const storage::DataSource*>(&chunked),
        static_cast<const storage::DataSource*>(&in_core)}) {
    const std::string name = source == &in_core ? "in-core" : "chunked";
    StatusOr<std::unique_ptr<WindowReader>> reader = source->MakeReader(*stats);
    ASSERT_TRUE(reader.ok()) << name;
    StatusOr<std::unique_ptr<WindowReader>> raw_reader =
        source->MakeReader(identity);
    ASSERT_TRUE(raw_reader.ok()) << name;
    // Stripes at a block boundary, mid-block, and the ragged tail.
    for (const auto& [t0, len] : std::vector<std::pair<int, int>>{
             {0, 32}, {17, 40}, {160, 40}, {199, 1}}) {
      const std::string what = name + " [" + std::to_string(t0) + ", +" +
                               std::to_string(len) + ")";
      StatusOr<ValueWindow> window = (*reader)->Read(t0, len);
      ASSERT_TRUE(window.ok()) << window.status().ToString();
      if (source == &chunked) {
        EXPECT_EQ(window->t_begin(), t0);
        EXPECT_EQ(window->t_end(), t0 + len);
      }
      ExpectSameBits(stripe(*window, t0, len),
                     stripe(normalized.values(), t0, len), what);
      // Identity stats hand back the raw bits of every (finite) value.
      StatusOr<ValueWindow> raw = (*raw_reader)->Read(t0, len);
      ASSERT_TRUE(raw.ok()) << raw.status().ToString();
      ExpectSameBits(stripe(*raw, t0, len), stripe(values, t0, len),
                     what + " identity");
    }
    EXPECT_FALSE((*reader)->Read(190, 20).ok()) << name;
    EXPECT_FALSE((*reader)->Read(-1, 5).ok()) << name;
  }
  // Stats that miss a series are refused, not read past.
  DataTensor::NormalizationStats short_stats = expected_stats;
  short_stats.mean.pop_back();
  short_stats.stddev.pop_back();
  EXPECT_EQ(in_core.MakeReader(short_stats).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(chunked.MakeReader(short_stats).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- In-core vs chunked training -------------------------------------------

void ExpectFitCheckpointsIdentical(const DataTensor& data, const Mask& mask,
                                   DeepMviConfig config, int64_t cache_bytes,
                                   const std::string& tag) {
  DeepMviImputer in_core(config);
  TrainedDeepMvi reference = in_core.Fit(data, mask);
  const std::string ref_path = TempPath(tag + "_incore.dmvi");
  ASSERT_TRUE(reference.Save(ref_path).ok());

  const std::string dir = StoreDir(tag + "_store");
  ChunkStoreOptions options;
  options.series_per_chunk = 3;
  options.times_per_chunk = 64;
  ASSERT_TRUE(ChunkedSeriesStore::WriteTensor(data, dir, options).ok());
  StatusOr<ChunkedSeriesStore> store = ChunkedSeriesStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ChunkCache cache(cache_bytes);
  ChunkedDataSource source(&store.value(), &cache);

  DeepMviImputer out_of_core(config);
  StatusOr<TrainedDeepMvi> chunked = out_of_core.Fit(source, mask);
  ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
  const std::string oc_path = TempPath(tag + "_chunked.dmvi");
  ASSERT_TRUE(chunked->Save(oc_path).ok());

  // The whole point of the subsystem: the checkpoint bytes are equal.
  EXPECT_EQ(ReadFileBytes(ref_path), ReadFileBytes(oc_path)) << tag;
  EXPECT_LE(cache.stats().peak_bytes, cache.byte_budget()) << tag;
}

TEST(ChunkedTrainingTest, CheckpointMatchesInCoreTraining) {
  SeasonalCase seasonal = MakeSeasonalCase(31);
  ExpectFitCheckpointsIdentical(seasonal.data, seasonal.mask,
                                TinyDeepMviConfig(), /*cache_bytes=*/1 << 16,
                                "plain");
}

TEST(ChunkedTrainingTest, CheckpointMatchesWithTinyCache) {
  // A cache that holds barely two chunks forces constant eviction; results
  // must not change.
  SeasonalCase seasonal = MakeSeasonalCase(32);
  ExpectFitCheckpointsIdentical(seasonal.data, seasonal.mask,
                                TinyDeepMviConfig(),
                                /*cache_bytes=*/2 * 3 * 64 * 8, "tiny_cache");
}

TEST(ChunkedTrainingTest, CheckpointMatchesForMultiDimData) {
  DataTensor data = MultiDimTensor(120, 33);
  Mask mask = McarMask(6, 120, 0.15, 34);
  ExpectFitCheckpointsIdentical(data, mask, TinyDeepMviConfig(),
                                /*cache_bytes=*/1 << 16, "multidim");
}

TEST(ChunkedTrainingTest, PredictCellsMatchesInCorePredict) {
  SeasonalCase seasonal = MakeSeasonalCase(35);
  DeepMviImputer imputer(TinyDeepMviConfig());
  TrainedDeepMvi model = imputer.Fit(seasonal.data, seasonal.mask);
  Matrix predicted = model.Predict(seasonal.data, seasonal.mask);

  const std::string dir = StoreDir("predictcells");
  ASSERT_TRUE(ChunkedSeriesStore::WriteTensor(seasonal.data, dir, {}).ok());
  StatusOr<ChunkedSeriesStore> store = ChunkedSeriesStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ChunkCache cache(1 << 18);
  ChunkedDataSource source(&store.value(), &cache);

  const std::vector<CellIndex> missing = seasonal.mask.MissingIndices();
  StatusOr<std::vector<double>> cells =
      model.PredictCells(source, seasonal.mask, missing);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  ASSERT_EQ(cells->size(), missing.size());
  for (size_t i = 0; i < missing.size(); ++i) {
    ASSERT_EQ((*cells)[i], predicted(missing[i].series, missing[i].time))
        << "cell " << i;
  }

  // Available cells are rejected.
  CellIndex available{0, 0};
  while (seasonal.mask.missing(available.series, available.time)) {
    ++available.time;
  }
  EXPECT_FALSE(model.PredictCells(source, seasonal.mask, {available}).ok());
}

TEST(ChunkedTrainingTest, FlatteningModelAgreesAcrossEntryPoints) {
  // DeepMVI1D on a 2-dim tensor takes its flattened layout from the model,
  // so the tensor, its Flattened1D() copy and a chunked store of it must
  // give the same bits at every missing cell.
  const DataTensor data = MultiDimTensor(120, 45);
  const Mask mask = McarMask(6, 120, 0.15, 46);
  DeepMviConfig config = TinyDeepMviConfig();
  config.flatten_multidim = true;
  DeepMviImputer imputer(config);
  const TrainedDeepMvi model = imputer.Fit(data, mask);
  const Matrix direct = model.Predict(data, mask);
  const Matrix flattened = model.Predict(data.Flattened1D(), mask);

  const std::string dir = StoreDir("flatten_predict");
  ChunkStoreOptions options;
  options.series_per_chunk = 4;
  options.times_per_chunk = 32;
  ASSERT_TRUE(ChunkedSeriesStore::WriteTensor(data, dir, options).ok());
  StatusOr<ChunkedSeriesStore> store = ChunkedSeriesStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ChunkCache cache(1 << 16);
  ChunkedDataSource source(&store.value(), &cache);
  const std::vector<CellIndex> missing = mask.MissingIndices();
  ASSERT_FALSE(missing.empty());
  StatusOr<std::vector<double>> cells =
      model.PredictCells(source, mask, missing);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();

  for (size_t i = 0; i < missing.size(); ++i) {
    const CellIndex& cell = missing[i];
    ASSERT_EQ(direct(cell.series, cell.time),
              flattened(cell.series, cell.time))
        << "cell " << i;
    ASSERT_EQ(direct(cell.series, cell.time), (*cells)[i]) << "cell " << i;
  }
}

TEST(ChunkedTrainingTest, TrainingSurfacesChunkCorruptionAsStatus) {
  SeasonalCase seasonal = MakeSeasonalCase(36);
  const std::string dir = StoreDir("corrupt_train");
  ASSERT_TRUE(ChunkedSeriesStore::WriteTensor(seasonal.data, dir, {}).ok());
  // Corrupt the payload after the store is written but before training.
  const std::string chunk_path = dir + "/" + storage::kChunkDataFileName;
  std::string bytes = ReadFileBytes(chunk_path);
  bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0x55);
  std::ofstream(chunk_path, std::ios::binary | std::ios::trunc) << bytes;

  StatusOr<ChunkedSeriesStore> store = ChunkedSeriesStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ChunkCache cache(1 << 18);
  ChunkedDataSource source(&store.value(), &cache);
  DeepMviImputer imputer(TinyDeepMviConfig());
  StatusOr<TrainedDeepMvi> trained = imputer.Fit(source, seasonal.mask);
  ASSERT_FALSE(trained.ok());
  EXPECT_EQ(trained.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace deepmvi
