#include "core/trained_deepmvi.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include "nn/serialize.h"

namespace deepmvi {
namespace {

constexpr char kCheckpointMagic[4] = {'D', 'M', 'V', 'C'};
constexpr uint32_t kCheckpointVersion = 1;

using nn::ReadPod;
using nn::WritePod;

Status WriteConfig(std::ostream& os, const DeepMviConfig& config) {
  WritePod(os, static_cast<int32_t>(config.filters));
  WritePod(os, static_cast<int32_t>(config.window));
  WritePod(os, static_cast<int32_t>(config.num_heads));
  WritePod(os, static_cast<int32_t>(config.embedding_dim));
  WritePod(os, config.kernel_gamma);
  WritePod(os, static_cast<int32_t>(config.top_siblings));
  WritePod(os, config.learning_rate);
  WritePod(os, static_cast<int32_t>(config.max_epochs));
  WritePod(os, static_cast<int32_t>(config.samples_per_epoch));
  WritePod(os, static_cast<int32_t>(config.batch_size));
  WritePod(os, static_cast<int32_t>(config.patience));
  WritePod(os, config.validation_fraction);
  WritePod(os, static_cast<int32_t>(config.max_context));
  WritePod(os, config.seed);
  WritePod(os, static_cast<uint8_t>(config.use_temporal_transformer));
  WritePod(os, static_cast<uint8_t>(config.use_context_window));
  WritePod(os, static_cast<uint8_t>(config.use_kernel_regression));
  WritePod(os, static_cast<uint8_t>(config.use_fine_grained));
  WritePod(os, static_cast<uint8_t>(config.flatten_multidim));
  if (!os) return Status::IoError("write failed for checkpoint config");
  return Status::OK();
}

Status ReadConfig(std::istream& is, DeepMviConfig* config) {
  auto read_i32 = [&is](int* dst) {
    int32_t v = 0;
    if (!ReadPod(is, &v)) return false;
    *dst = v;
    return true;
  };
  auto read_bool = [&is](bool* dst) {
    uint8_t v = 0;
    if (!ReadPod(is, &v)) return false;
    *dst = v != 0;
    return true;
  };
  const bool ok = read_i32(&config->filters) && read_i32(&config->window) &&
                  read_i32(&config->num_heads) &&
                  read_i32(&config->embedding_dim) &&
                  ReadPod(is, &config->kernel_gamma) &&
                  read_i32(&config->top_siblings) &&
                  ReadPod(is, &config->learning_rate) &&
                  read_i32(&config->max_epochs) &&
                  read_i32(&config->samples_per_epoch) &&
                  read_i32(&config->batch_size) && read_i32(&config->patience) &&
                  ReadPod(is, &config->validation_fraction) &&
                  read_i32(&config->max_context) && ReadPod(is, &config->seed) &&
                  read_bool(&config->use_temporal_transformer) &&
                  read_bool(&config->use_context_window) &&
                  read_bool(&config->use_kernel_regression) &&
                  read_bool(&config->use_fine_grained) &&
                  read_bool(&config->flatten_multidim);
  if (!ok) return Status::IoError("truncated file: checkpoint config missing");
  // Fit resolved the stored window, so 0 ("choose one") is corrupt too.
  const Status valid =
      config->window == 0
          ? Status::InvalidArgument("DeepMviConfig::window 0 is unresolved")
          : config->Validate();
  if (!valid.ok()) {
    return Status::InvalidArgument(
        "corrupt file: implausible model config: " + valid.message());
  }
  return Status::OK();
}

Status WriteDoubles(std::ostream& os, const std::vector<double>& values) {
  WritePod(os, static_cast<uint32_t>(values.size()));
  os.write(reinterpret_cast<const char*>(values.data()),
           static_cast<std::streamsize>(values.size() * sizeof(double)));
  if (!os) return Status::IoError("write failed for double vector");
  return Status::OK();
}

/// Reads a vector written by WriteDoubles whose length must be `expected`,
/// checked before anything is allocated. The body is read in bounded
/// pieces, so the vector grows only as fast as the file supplies bytes: a
/// short file claiming 2^24 series costs one piece, not 128 MiB.
StatusOr<std::vector<double>> ReadDoubles(std::istream& is, int expected) {
  uint32_t count = 0;
  if (!ReadPod(is, &count)) {
    return Status::IoError("truncated file: vector length missing");
  }
  if (count != static_cast<uint32_t>(expected)) {
    return Status::InvalidArgument(
        "corrupt file: dimensions imply " + std::to_string(expected) +
        " series but a normalization vector covers " + std::to_string(count));
  }
  constexpr size_t kPiece = 8192;  // 64 KiB of doubles.
  std::vector<double> out;
  while (out.size() < count) {
    const size_t begin = out.size();
    out.resize(std::min<size_t>(count, begin + kPiece));
    const std::streamsize bytes =
        static_cast<std::streamsize>((out.size() - begin) * sizeof(double));
    is.read(reinterpret_cast<char*>(out.data() + begin), bytes);
    if (is.gcount() != bytes) {
      return Status::IoError("truncated file: vector body missing");
    }
  }
  return out;
}

}  // namespace

TrainedDeepMvi::TrainedDeepMvi() = default;
TrainedDeepMvi::~TrainedDeepMvi() = default;
TrainedDeepMvi::TrainedDeepMvi(TrainedDeepMvi&&) noexcept = default;
TrainedDeepMvi& TrainedDeepMvi::operator=(TrainedDeepMvi&&) noexcept = default;

int64_t TrainedDeepMvi::num_parameters() const {
  return store_ ? store_->TotalSize() : 0;
}

Status TrainedDeepMvi::ValidateInput(const DataTensor& data,
                                     const Mask& mask) const {
  return CheckInput(storage::InMemoryDataSource(&data), mask);
}

Status TrainedDeepMvi::CheckInput(const storage::DataSource& source,
                                  const Mask& mask) const {
  if (!trained()) {
    return Status::FailedPrecondition("model has not been trained or loaded");
  }
  if (source.num_series() != mask.rows() || source.num_times() != mask.cols()) {
    return Status::InvalidArgument(
        "mask shape " + std::to_string(mask.rows()) + "x" +
        std::to_string(mask.cols()) + " does not match data " +
        std::to_string(source.num_series()) + "x" +
        std::to_string(source.num_times()));
  }
  if (source.num_series() != num_series()) {
    return Status::InvalidArgument(
        "data has " + std::to_string(source.num_series()) +
        " series, model was trained on " + std::to_string(num_series()));
  }
  // A flattening model collapses the dims anyway, so only the row count
  // (checked above) matters there; otherwise every dimension must match
  // the training dataset member for member.
  if (!config_.flatten_multidim) {
    const std::vector<Dimension>& dims = source.dims();
    if (dims.size() != dims_.size()) {
      return Status::InvalidArgument(
          "data has " + std::to_string(dims.size()) +
          " dimensions, model was trained on " +
          std::to_string(dims_.size()));
    }
    for (size_t i = 0; i < dims_.size(); ++i) {
      if (dims[i].size() != dims_[i].size()) {
        return Status::InvalidArgument(
            "dimension '" + dims_[i].name + "' has " +
            std::to_string(dims[i].size()) +
            " members, model was trained on " +
            std::to_string(dims_[i].size()));
      }
    }
  }
  // Below one window the chunk walk degenerates to an empty chunk and
  // cells would come back unimputed with no error — reject up front.
  // (Between one and two windows the transformer contributes nothing but
  // the fine-grained and kernel-regression paths still impute, matching
  // the historical Impute() behavior on degenerate-short series.)
  if (source.num_times() < config_.window) {
    return Status::InvalidArgument(
        "series of length " + std::to_string(source.num_times()) +
        " is shorter than one window (window " +
        std::to_string(config_.window) +
        "); the model cannot impute it — refit with a smaller window");
  }
  return Status::OK();
}

Matrix TrainedDeepMvi::Predict(const DataTensor& data, const Mask& mask) const {
  const std::vector<CellIndex> cells = mask.MissingIndices();
  StatusOr<std::vector<double>> predicted =
      PredictCells(storage::InMemoryDataSource(&data), mask, cells);
  DMVI_CHECK(predicted.ok()) << predicted.status().ToString();
  Matrix out = data.values();
  for (size_t i = 0; i < cells.size(); ++i) {
    out(cells[i].series, cells[i].time) = (*predicted)[i];
  }
  return out;
}

StatusOr<std::vector<double>> TrainedDeepMvi::PredictCells(
    const storage::DataSource& source, const Mask& mask,
    const std::vector<CellIndex>& cells) const {
  DMVI_RETURN_IF_ERROR(CheckInput(source, mask));
  const int t_len = source.num_times();

  // Group the requested cells per series, ascending in time, remembering
  // where each prediction goes in the output.
  std::vector<std::vector<std::pair<int, size_t>>> by_row(source.num_series());
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellIndex& cell = cells[i];
    if (cell.series < 0 || cell.series >= source.num_series() ||
        cell.time < 0 || cell.time >= t_len) {
      return Status::InvalidArgument("cell out of range");
    }
    if (mask.available(cell.series, cell.time)) {
      return Status::InvalidArgument(
          "cell (" + std::to_string(cell.series) + "," +
          std::to_string(cell.time) +
          ") is available in the mask; PredictCells predicts missing cells");
    }
    by_row[cell.series].emplace_back(cell.time, i);
  }

  StatusOr<std::unique_ptr<storage::WindowReader>> reader_or =
      source.MakeReader(stats_);
  if (!reader_or.ok()) return reader_or.status();
  const storage::WindowReader& reader = **reader_or;
  const DataTensor layout = DataTensor::LayoutOnly(dims_);

  std::vector<double> out(cells.size(), 0.0);
  ad::Tape tape;
  for (int row = 0; row < source.num_series(); ++row) {
    auto& row_cells = by_row[row];
    if (row_cells.empty()) continue;
    std::sort(row_cells.begin(), row_cells.end());
    // Cover the row's cells chunk by chunk: each chunk is centred on the
    // first cell not yet covered and takes every later cell inside it.
    size_t next = 0;
    while (next < row_cells.size()) {
      internal::Chunk chunk = internal::MakeChunk(
          t_len, config_.window, config_.max_context, row_cells[next].first);
      std::vector<int> targets;
      std::vector<size_t> target_outputs;
      while (next < row_cells.size() &&
             row_cells[next].first < chunk.start + chunk.len) {
        if (row_cells[next].first >= chunk.start) {
          targets.push_back(row_cells[next].first);
          target_outputs.push_back(row_cells[next].second);
        }
        ++next;
      }
      if (targets.empty()) break;  // Should not happen; guards looping.
      StatusOr<ValueWindow> window = reader.Read(chunk.start, chunk.len);
      if (!window.ok()) return window.status();
      tape.Reset();
      ad::Var pred = internal::PredictPositions(tape, modules_, config_, layout,
                                                *window, mask, row, chunk,
                                                targets);
      for (size_t i = 0; i < targets.size(); ++i) {
        // Same denormalization expression as DataTensor::Denormalize.
        out[target_outputs[i]] =
            pred.value()(static_cast<int>(i), 0) * stats_.stddev[row] +
            stats_.mean[row];
      }
    }
  }
  return out;
}

Status TrainedDeepMvi::Save(const std::string& path) const {
  if (!trained()) {
    return Status::FailedPrecondition("cannot save an untrained model");
  }
  std::ofstream os(path, std::ios::binary);
  if (!os) return Status::IoError("cannot open " + path + " for writing");

  os.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  WritePod(os, kCheckpointVersion);
  DMVI_RETURN_IF_ERROR(WriteConfig(os, config_));

  DMVI_RETURN_IF_ERROR(nn::WriteDims(os, dims_).status());

  DMVI_RETURN_IF_ERROR(WriteDoubles(os, stats_.mean));
  DMVI_RETURN_IF_ERROR(WriteDoubles(os, stats_.stddev));
  DMVI_RETURN_IF_ERROR(nn::SaveParameterStore(*store_, os));
  // Trailing record: models without a profile (legacy loads) re-save
  // without one, so the legacy byte layout round-trips unchanged.
  if (has_profile_) {
    DMVI_RETURN_IF_ERROR(AppendQualityProfileRecord(os, profile_));
  }

  os.close();
  if (!os) return Status::IoError("write failed for " + path);
  return Status::OK();
}

StatusOr<TrainedDeepMvi> TrainedDeepMvi::Load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IoError("cannot open " + path + " for reading");

  char magic[4] = {};
  is.read(magic, sizeof(magic));
  if (is.gcount() != sizeof(magic)) {
    return Status::IoError("truncated file: checkpoint header missing");
  }
  if (std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("corrupt file: " + path +
                                   " is not a DeepMVI checkpoint");
  }
  uint32_t version = 0;
  if (!ReadPod(is, &version)) {
    return Status::IoError("truncated file: checkpoint version missing");
  }
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }

  TrainedDeepMvi model;
  DMVI_RETURN_IF_ERROR(ReadConfig(is, &model.config_));

  StatusOr<int> num_series = nn::ReadDims(is, &model.dims_);
  if (!num_series.ok()) return num_series.status();
  // One normalization entry per series, a member combination of the dims.
  StatusOr<std::vector<double>> mean = ReadDoubles(is, *num_series);
  if (!mean.ok()) return mean.status();
  model.stats_.mean = std::move(mean).value();
  StatusOr<std::vector<double>> stddev = ReadDoubles(is, *num_series);
  if (!stddev.ok()) return stddev.status();
  model.stats_.stddev = std::move(stddev).value();

  // Rebuild the model skeleton from the stored config and dimensions (the
  // Rng only feeds initial values, which the store load overwrites), then
  // restore every parameter by name.
  Rng rng(model.config_.seed);
  model.store_ = std::make_unique<nn::ParameterStore>();
  model.modules_ = internal::BuildDeepMviModules(model.store_.get(),
                                                 model.config_, model.dims_, rng);
  DMVI_RETURN_IF_ERROR(nn::LoadParameterStore(is, *model.store_));

  // Optional trailing quality-profile record. Checkpoints written before
  // the record existed end right here; they load with no profile.
  StatusOr<bool> has_profile =
      ReadQualityProfileRecord(is, *num_series, &model.profile_);
  if (!has_profile.ok()) return has_profile.status();
  model.has_profile_ = has_profile.value();
  return model;
}

}  // namespace deepmvi
