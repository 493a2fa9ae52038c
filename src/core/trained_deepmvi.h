#ifndef DEEPMVI_CORE_TRAINED_DEEPMVI_H_
#define DEEPMVI_CORE_TRAINED_DEEPMVI_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/deepmvi_modules.h"
#include "core/quality_profile.h"
#include "storage/data_source.h"

namespace deepmvi {

/// A trained DeepMVI model, the unit of the train-once/serve-many split:
/// DeepMviImputer::Fit produces one, Predict runs inference only (no
/// training, no RNG), and Save/Load persist it as a versioned binary
/// checkpoint so a long-lived service can answer imputation queries
/// without ever retraining.
///
/// The artifact holds everything inference needs: the parameter store
/// (weights + Adam moments, so training could even be resumed), the
/// resolved config (window already chosen from the training mask), the
/// dimensions of the training dataset (member embeddings are positional in
/// them), and the per-series normalization statistics computed at fit time
/// — normalization is part of the model, so serving-time data is projected
/// into the same z-score space the weights were trained in.
///
/// Predict applies to data of the training dataset's shape (same series,
/// any time length >= one window — the transformer needs two to
/// contribute, shorter chunks fall back to the local/kernel signals — and
/// any missing pattern): the model's kernel regression embeds the
/// *members* of the training dimensions, so a different series universe
/// needs a new Fit.
class TrainedDeepMvi {
 public:
  TrainedDeepMvi();
  ~TrainedDeepMvi();
  TrainedDeepMvi(TrainedDeepMvi&&) noexcept;
  TrainedDeepMvi& operator=(TrainedDeepMvi&&) noexcept;
  TrainedDeepMvi(const TrainedDeepMvi&) = delete;
  TrainedDeepMvi& operator=(const TrainedDeepMvi&) = delete;

  /// True once the model holds trained weights (built by Fit or Load).
  bool trained() const { return store_ != nullptr; }

  /// Recoverable validation of a prediction input: the checks PredictCells
  /// runs on its source and mask (see there), applied to an in-core
  /// tensor. The serving layer calls this to turn bad requests into error
  /// responses instead of aborts.
  Status ValidateInput(const DataTensor& data, const Mask& mask) const;

  /// Inference only: PredictCells over `data` at the mask's missing cells,
  /// written into a copy of data.values(), so available cells pass through
  /// bit-unchanged. Deterministic: repeated calls with the same input are
  /// bit-identical, and Fit(x, m).Predict(x, m) equals the historical
  /// single-shot Impute(x, m) bit for bit. Aborts on invalid input; call
  /// ValidateInput first when the input is untrusted.
  Matrix Predict(const DataTensor& data, const Mask& mask) const;

  /// Out-of-core inference at selected cells: predicts each requested
  /// (series, time) cell from a storage::DataSource, reading only the value
  /// windows the predictions need. Returns the predictions in `cells`
  /// order, denormalized to raw units. Per series, cells are covered chunk
  /// by chunk (the chunk partition follows the requested cells), so memory
  /// stays bounded by the source's cache budget plus one window. The eval
  /// suite uses this to score a chunked store's hidden cells without
  /// materializing the dense tensor.
  ///
  /// Returns FailedPrecondition for an untrained model and InvalidArgument
  /// when the mask's shape differs from the source's, the source's series
  /// count differs from the training data's, a non-flattening model's
  /// dimensions differ from the training dimensions in count or member
  /// count, the series are shorter than one window, or a cell is out of
  /// range or available in `mask`.
  StatusOr<std::vector<double>> PredictCells(
      const storage::DataSource& source, const Mask& mask,
      const std::vector<CellIndex>& cells) const;

  /// Persists the model as a versioned binary checkpoint ("DMVC" header +
  /// config + dimensions + normalization stats + "DMVP" parameter store).
  Status Save(const std::string& path) const;

  /// Loads a checkpoint written by Save: rebuilds the model from the
  /// stored config/dimensions, then restores every parameter by name.
  /// Corrupt or truncated files yield Status errors, never crashes.
  static StatusOr<TrainedDeepMvi> Load(const std::string& path);

  /// The resolved configuration (window > 0) the model was trained with.
  const DeepMviConfig& config() const { return config_; }
  /// Dimensions of the (possibly flattened) training dataset.
  const std::vector<Dimension>& dims() const { return dims_; }
  /// Number of series the model was trained on.
  int num_series() const { return static_cast<int>(stats_.mean.size()); }
  /// Total trainable parameter count.
  int64_t num_parameters() const;

  /// Training-data reference profile (per-series moments + decile edges)
  /// computed at Fit time and persisted in the checkpoint's trailing
  /// "DMVQ" record. nullptr for checkpoints written before the record
  /// existed — such models still serve; drift scoring is simply
  /// unavailable for them.
  const QualityProfile* quality_profile() const {
    return has_profile_ ? &profile_ : nullptr;
  }

 private:
  friend class DeepMviImputer;

  /// The shape check ValidateInput and PredictCells share: every
  /// PredictCells rejection but the per-cell ones.
  Status CheckInput(const storage::DataSource& source, const Mask& mask) const;

  DeepMviConfig config_;            // Resolved: window > 0.
  std::vector<Dimension> dims_;     // Of the shaped (post-flatten) data.
  DataTensor::NormalizationStats stats_;
  std::unique_ptr<nn::ParameterStore> store_;
  internal::DeepMviModules modules_;  // Pointers into *store_.
  QualityProfile profile_;          // Valid only when has_profile_.
  bool has_profile_ = false;
};

}  // namespace deepmvi

#endif  // DEEPMVI_CORE_TRAINED_DEEPMVI_H_
