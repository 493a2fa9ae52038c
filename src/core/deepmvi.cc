#include "core/deepmvi.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/deepmvi_modules.h"
#include "core/quality_profile.h"
#include "nn/adam.h"
#include "obs/trace.h"

namespace deepmvi {
namespace {

using ad::Tape;
using ad::Var;
using internal::Chunk;
using internal::DeepMviModules;
using internal::MakeChunk;
using internal::PredictPositions;

/// One simulated-missing training instance (Sec 3): a synthetic block of
/// `block_len` steps starting at `block_start` is hidden in series `row`;
/// the same range is hidden in `blackout_rows` of other series to mimic
/// the dataset's observed cross-series missing overlap. Loss is taken on
/// the anchor series' hidden positions whose truth is known.
struct TrainSample {
  int row = 0;
  int block_start = 0;
  int block_len = 0;
  std::vector<int> blackout_rows;
  std::vector<int> target_times;
};

/// Empirical description of the dataset's missing pattern, used to sample
/// identically-distributed synthetic blocks.
struct MissingShapeDistribution {
  std::vector<int> block_lengths;
  std::vector<double> column_fractions;

  int SampleLength(Rng& rng) const {
    if (block_lengths.empty()) return 5;
    return block_lengths[rng.UniformInt(static_cast<int>(block_lengths.size()))];
  }
  double SampleColumnFraction(Rng& rng) const {
    if (column_fractions.empty()) return 0.0;
    return column_fractions[rng.UniformInt(
        static_cast<int>(column_fractions.size()))];
  }
};

MissingShapeDistribution MeasureMissingShapes(const Mask& mask) {
  MissingShapeDistribution dist;
  dist.block_lengths = mask.MissingBlockLengths();
  // Fraction of series missing at the columns of (up to 256) missing
  // cells. The cells are every stride-th missing cell in row-major order
  // — the same ones a materialized MissingIndices() list would yield, but
  // walked in place: the index list of a beyond-memory dataset would cost
  // 8 bytes per missing cell.
  const int64_t num_missing = mask.CountMissing();
  if (num_missing == 0) return dist;
  const int64_t stride = std::max<int64_t>(num_missing / 256, 1);
  int64_t seen = 0;
  for (int r = 0; r < mask.rows(); ++r) {
    for (int t = 0; t < mask.cols(); ++t) {
      if (!mask.missing(r, t)) continue;
      if (seen % stride == 0) {
        int count = 0;
        for (int rr = 0; rr < mask.rows(); ++rr) count += mask.missing(rr, t);
        // Exclude the anchor series itself from the cross-series fraction.
        dist.column_fractions.push_back(
            mask.rows() > 1 ? static_cast<double>(count - 1) /
                                  static_cast<double>(mask.rows() - 1)
                            : 0.0);
      }
      ++seen;
    }
  }
  return dist;
}

}  // namespace

std::string DeepMviImputer::name() const {
  if (config_.flatten_multidim) return "DeepMVI1D";
  std::string name = "DeepMVI";
  if (!config_.use_temporal_transformer) name += "-NoTT";
  if (!config_.use_context_window) name += "-NoContext";
  if (!config_.use_kernel_regression) name += "-NoKR";
  if (!config_.use_fine_grained) name += "-NoFG";
  return name;
}

TrainedDeepMvi DeepMviImputer::Fit(const DataTensor& raw_data, const Mask& mask) {
  DMVI_CHECK_EQ(raw_data.num_series(), mask.rows());
  DMVI_CHECK_EQ(raw_data.num_times(), mask.cols());
  storage::InMemoryDataSource source(&raw_data);
  StatusOr<TrainedDeepMvi> trained = Fit(source, mask);
  // In-core window reads cannot fail, so any error here is a caller bug
  // (shape mismatch) that historically aborted too.
  DMVI_CHECK(trained.ok()) << trained.status().ToString();
  return std::move(trained).value();
}

StatusOr<TrainedDeepMvi> DeepMviImputer::Fit(const storage::DataSource& source,
                                             const Mask& mask) {
  DMVI_RETURN_IF_ERROR(config_.Validate());
  if (source.num_series() != mask.rows() || source.num_times() != mask.cols()) {
    return Status::InvalidArgument(
        "mask shape " + std::to_string(mask.rows()) + "x" +
        std::to_string(mask.cols()) + " does not match data " +
        std::to_string(source.num_series()) + "x" +
        std::to_string(source.num_times()));
  }

  // Imputer-contract hygiene: stale diagnostics from a previous call must
  // not leak into this one.
  train_stats_ = TrainStats();

  obs::Span fit_span = obs::GlobalSpan("train.fit");
  if (fit_span.active()) {
    fit_span.AddArg("num_series", std::to_string(source.num_series()));
    fit_span.AddArg("num_times", std::to_string(source.num_times()));
  }

  // Flattening (DeepMVI1D) only rewrites the index metadata; the values
  // and their row order are untouched, so it needs no data pass.
  const std::vector<Dimension> dims = config_.flatten_multidim
                                          ? FlattenedDims(source.dims())
                                          : source.dims();
  const DataTensor layout = DataTensor::LayoutOnly(dims);
  const int t_len = source.num_times();
  const int num_series = source.num_series();

  // Normalize per series on available cells; all modelling happens in
  // z-score space (windows are normalized by the reader) and predictions
  // are denormalized at the end.
  StatusOr<DataTensor::NormalizationStats> stats_or =
      source.ComputeNormalization(mask);
  if (!stats_or.ok()) return stats_or.status();
  DataTensor::NormalizationStats stats = std::move(stats_or).value();

  // ---- Resolve the window (Sec 4.3). ------------------------------------
  DeepMviConfig config = config_;
  if (config.window <= 0) {
    const auto lengths = mask.MissingBlockLengths();
    double mean_len = 0.0;
    for (int len : lengths) mean_len += len;
    if (!lengths.empty()) mean_len /= static_cast<double>(lengths.size());
    config.window = mean_len > 100.0 ? 20 : 10;
  }
  // Degenerate short series: shrink the window so the transformer still
  // has at least two windows.
  while (config.window > 1 && t_len < 2 * config.window) config.window /= 2;
  train_stats_.window_used = config.window;

  Rng rng(config.seed);

  // ---- Build the model. ----------------------------------------------------
  TrainedDeepMvi trained;
  trained.store_ = std::make_unique<nn::ParameterStore>();
  DeepMviModules model =
      internal::BuildDeepMviModules(trained.store_.get(), config, dims, rng);
  nn::ParameterStore& store = *trained.store_;
  nn::Adam adam(&store, {.learning_rate = config.learning_rate});

  // The windowed reader: every training read goes through it, fetching
  // only the time stripe a sample's chunk spans.
  StatusOr<std::unique_ptr<storage::WindowReader>> reader_or =
      source.MakeReader(stats);
  if (!reader_or.ok()) return reader_or.status();
  const storage::WindowReader& reader = **reader_or;

  // ---- Build training + validation samples (Sec 3). -----------------------
  MissingShapeDistribution shape_dist = MeasureMissingShapes(mask);
  auto make_sample = [&](Rng& sample_rng) {
    TrainSample sample;
    for (int attempt = 0; attempt < 50; ++attempt) {
      sample.row = sample_rng.UniformInt(num_series);
      sample.block_len = std::min(shape_dist.SampleLength(sample_rng), t_len / 2);
      sample.block_len = std::max(sample.block_len, 1);
      const int anchor = sample_rng.UniformInt(t_len);
      sample.block_start = std::clamp(
          anchor - sample_rng.UniformInt(sample.block_len), 0,
          t_len - sample.block_len);
      sample.target_times.clear();
      for (int t = sample.block_start; t < sample.block_start + sample.block_len;
           ++t) {
        if (mask.available(sample.row, t)) sample.target_times.push_back(t);
      }
      if (sample.target_times.empty()) continue;  // Block fell on real misses.
      // Cross-series blackout simulation.
      sample.blackout_rows.clear();
      const double fraction = shape_dist.SampleColumnFraction(sample_rng);
      if (fraction > 0.0) {
        for (int r = 0; r < num_series; ++r) {
          if (r != sample.row && sample_rng.Bernoulli(fraction)) {
            sample.blackout_rows.push_back(r);
          }
        }
      }
      return sample;
    }
    return sample;  // May have empty targets; caller skips those.
  };

  const int total_samples = config.samples_per_epoch;
  const int val_count = std::max(
      1, static_cast<int>(std::lround(config.validation_fraction * total_samples)));
  std::vector<TrainSample> val_samples;
  Rng val_rng = rng.Split();
  for (int i = 0; i < val_count; ++i) {
    TrainSample s = make_sample(val_rng);
    if (!s.target_times.empty()) val_samples.push_back(std::move(s));
  }

  // ---- Training loop with early stopping. ----------------------------------
  //
  // Samples run one at a time on one tape. A tape carries no values from
  // one sample to the next, only storage: Tape::Reset keeps the dropped
  // graph's node buffers for the next sample's nodes, so Fit allocates node
  // storage once. Samples are drawn from the single `rng` stream, each
  // training sample's parameter gradients fold into per-parameter sums in
  // sample order, and the Adam step sees one already-reduced gradient per
  // parameter.
  Tape tape;

  // Resets the tape and runs forward + loss for one sample on it; an
  // invalid Var when no target falls inside the sample's chunk. Reads go
  // through a value window covering the chunk and an availability overlay
  // that applies the synthetic block without copying the mask (the
  // historical per-sample full-mask copy was O(num_series x num_times)
  // bytes).
  auto sample_loss = [&](const TrainSample& sample) -> StatusOr<Var> {
    tape.Reset();
    Chunk chunk = MakeChunk(t_len, config.window, config.max_context,
                            sample.block_start + sample.block_len / 2);
    // Keep only targets inside the chunk.
    std::vector<int> targets;
    for (int t : sample.target_times) {
      if (t >= chunk.start && t < chunk.start + chunk.len) targets.push_back(t);
    }
    if (targets.empty()) return Var();
    StatusOr<ValueWindow> window = reader.Read(chunk.start, chunk.len);
    if (!window.ok()) return window.status();
    std::vector<uint8_t> block_rows(num_series, 0);
    block_rows[sample.row] = 1;
    for (int r : sample.blackout_rows) block_rows[r] = 1;
    MaskOverlay synthetic(mask, sample.block_start,
                          sample.block_start + sample.block_len, block_rows);
    Var pred = PredictPositions(tape, model, config, layout, *window, synthetic,
                                sample.row, chunk, targets);
    Matrix truth(static_cast<int>(targets.size()), 1);
    for (size_t i = 0; i < targets.size(); ++i) {
      truth(static_cast<int>(i), 0) = (*window)(sample.row, targets[i]);
    }
    Matrix weight(static_cast<int>(targets.size()), 1, 1.0);
    return ad::WeightedMseLoss(pred, truth, weight);
  };

  // Per-parameter gradient sums of the current batch, allocated once.
  // grad_ptrs[pi] is null until a sample contributes to parameter pi: the
  // first contribution is copied and later ones are added, in sample
  // order. A parameter no sample reached stays null, and Adam skips it.
  const auto& params = store.params();
  const size_t num_params = params.size();
  std::vector<Matrix> grad_sums;
  grad_sums.reserve(num_params);
  for (const auto& p : params) {
    grad_sums.emplace_back(p->value().rows(), p->value().cols());
  }
  std::vector<const Matrix*> grad_ptrs(num_params, nullptr);
  auto fold_gradients = [&]() {
    for (size_t pi = 0; pi < num_params; ++pi) {
      const int leaf = tape.LeafIndexFor(params[pi].get());
      if (leaf < 0) continue;
      // Only gradients Backward actually produced: a materialized
      // parameter with no loss path contributes nothing to the sum.
      const Matrix* g = tape.AllocatedGrad(leaf);
      if (g == nullptr) continue;
      if (grad_ptrs[pi] == nullptr) {
        grad_sums[pi] = *g;
        grad_ptrs[pi] = &grad_sums[pi];
      } else {
        grad_sums[pi] += *g;
      }
    }
  };

  double best_val = 1e300;
  int epochs_without_improvement = 0;
  // Snapshot of the best parameters (by value).
  std::vector<Matrix> best_params;
  auto snapshot = [&]() {
    best_params.clear();
    for (const auto& p : store.params()) best_params.push_back(p->value());
  };
  auto restore = [&]() {
    if (best_params.empty()) return;
    for (size_t i = 0; i < best_params.size(); ++i) {
      store.params()[i]->value() = best_params[i];
    }
  };
  snapshot();

  for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
    obs::Span epoch_span = obs::GlobalSpan("train.epoch");
    if (epoch_span.active()) epoch_span.AddArg("epoch", std::to_string(epoch));
    double train_loss = 0.0;
    int train_batches = 0;
    int made = 0;
    while (made < total_samples) {
      obs::Span batch_span = obs::GlobalSpan("train.batch");
      std::vector<TrainSample> batch;
      for (int b = 0; b < config.batch_size && made < total_samples; ++b, ++made) {
        TrainSample sample = make_sample(rng);
        if (sample.target_times.empty()) continue;
        batch.push_back(std::move(sample));
      }
      if (batch.empty()) continue;
      if (batch_span.active()) {
        batch_span.AddArg("batch_size", std::to_string(batch.size()));
      }

      double batch_loss = 0.0;
      int batch_count = 0;
      for (const TrainSample& sample : batch) {
        StatusOr<Var> loss = sample_loss(sample);
        if (!loss.ok()) return loss.status();
        if (!loss->valid()) continue;
        ++batch_count;
        batch_loss += loss->scalar();
        tape.Backward(*loss);
        fold_gradients();
      }
      if (batch_count == 0) continue;
      const double inv_count = 1.0 / static_cast<double>(batch_count);
      batch_loss *= inv_count;
      for (size_t pi = 0; pi < num_params; ++pi) {
        if (grad_ptrs[pi] != nullptr) grad_sums[pi] *= inv_count;
      }
      adam.StepWithGrads(grad_ptrs);
      std::fill(grad_ptrs.begin(), grad_ptrs.end(), nullptr);
      train_loss += batch_loss;
      ++train_batches;
    }
    train_stats_.final_train_loss =
        train_batches > 0 ? train_loss / train_batches : 0.0;

    // Validation: forward-only on the same tape.
    obs::Span val_span = obs::GlobalSpan("train.validate");
    double val_loss = 0.0;
    int val_batches = 0;
    for (const TrainSample& sample : val_samples) {
      StatusOr<Var> loss = sample_loss(sample);
      if (!loss.ok()) return loss.status();
      if (!loss->valid()) continue;
      val_loss += loss->scalar();
      ++val_batches;
    }
    val_loss = val_batches > 0 ? val_loss / val_batches : 0.0;
    val_span.End();
    train_stats_.epochs_run = epoch + 1;

    if (val_loss < best_val - 1e-6) {
      best_val = val_loss;
      train_stats_.best_validation_loss = val_loss;
      snapshot();
      epochs_without_improvement = 0;
    } else if (++epochs_without_improvement >= config.patience) {
      break;
    }
  }
  restore();

  // Reference profile for serving-time drift detection. A streaming pass
  // in fixed stripes over the same source, so the record — and therefore
  // the checkpoint bytes — is identical between in-core and chunked
  // training.
  {
    obs::Span profile_span = obs::GlobalSpan("train.quality_profile");
    StatusOr<QualityProfile> profile = ComputeQualityProfile(source, mask);
    if (!profile.ok()) return profile.status();
    trained.profile_ = std::move(profile).value();
    trained.has_profile_ = true;
  }

  trained.config_ = config;
  trained.dims_ = dims;
  trained.stats_ = std::move(stats);
  trained.modules_ = std::move(model);
  return trained;
}

Matrix DeepMviImputer::Impute(const DataTensor& raw_data, const Mask& mask) {
  // Train-once + inference-only: identical (bit for bit) to the historical
  // single-shot implementation; tests/core_test.cc's determinism contract
  // locks this in.
  return Fit(raw_data, mask).Predict(raw_data, mask);
}

}  // namespace deepmvi
