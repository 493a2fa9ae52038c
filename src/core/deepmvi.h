#ifndef DEEPMVI_CORE_DEEPMVI_H_
#define DEEPMVI_CORE_DEEPMVI_H_

#include <string>

#include "core/deepmvi_config.h"
#include "core/trained_deepmvi.h"
#include "data/imputer.h"
#include "storage/data_source.h"

namespace deepmvi {

/// DeepMVI (Bansal, Deshpande, Sarawagi — VLDB 2021): deep missing-value
/// imputation for multidimensional time series.
///
/// The model combines, per missing cell (k, t):
///  - a Temporal Transformer capturing coarse within-series repetition
///    (Sec 4.1),
///  - a fine-grained local signal: the masked mean of the window around t
///    (Eq. 15),
///  - kernel regression over learned member embeddings pooling the values
///    of sibling series at time t, per dimension (Sec 4.2),
/// and a linear output head (Eq. 6), trained with simulated missing blocks
/// around available anchor cells so that training inputs are distributed
/// like the real missing data (Sec 3). Training uses Adam with validation
/// early stopping.
///
/// The training/serving split: Fit() trains a fresh model on the given
/// dataset and returns a TrainedDeepMvi (weights, normalization stats,
/// resolved config) that answers inference-only Predict() queries and can
/// be checkpointed via Save/Load. Impute() is Fit + Predict on the same
/// input — one-shot behavior and bit-for-bit results are unchanged — and
/// the class stays stateless between calls apart from the configuration
/// (train_stats_ is diagnostics only and reset at the top of every Fit).
class DeepMviImputer : public Imputer {
 public:
  DeepMviImputer() = default;
  explicit DeepMviImputer(DeepMviConfig config) : config_(config) {}

  std::string name() const override;
  Matrix Impute(const DataTensor& data, const Mask& mask) override;

  /// Trains a model on `data`/`mask` (Sec 3 simulated-missing protocol,
  /// Adam, validation early stopping) without running final inference.
  /// Deterministic in config().seed: training runs on the calling thread,
  /// samples are generated from one RNG stream and gradients reduce in
  /// sample order. DeepMviConfig::num_threads is not read.
  TrainedDeepMvi Fit(const DataTensor& data, const Mask& mask);

  /// Out-of-core variant: trains from any storage::DataSource — typically
  /// a ChunkedDataSource over a store directory — touching only the value
  /// windows each training sample spans, so peak residency stays bounded
  /// by the chunk-cache budget instead of the dense tensor. The in-core
  /// Fit above routes through this same code path (wrapped in an
  /// InMemoryDataSource), and the two produce byte-identical checkpoints:
  /// same RNG sample schedule, same reduction order.
  /// I/O failures (corrupt or truncated chunks) surface as Status errors,
  /// as does a config() that fails DeepMviConfig::Validate, checked before
  /// anything is allocated (InvalidArgument; the in-core Fit aborts with
  /// it).
  StatusOr<TrainedDeepMvi> Fit(const storage::DataSource& source,
                               const Mask& mask);

  /// Diagnostics from the most recent Fit (or Impute) call.
  struct TrainStats {
    int epochs_run = 0;
    double best_validation_loss = 0.0;
    double final_train_loss = 0.0;
    int window_used = 0;
  };
  const TrainStats& train_stats() const { return train_stats_; }

  DeepMviConfig& config() { return config_; }

 private:
  DeepMviConfig config_;
  TrainStats train_stats_;
};

}  // namespace deepmvi

#endif  // DEEPMVI_CORE_DEEPMVI_H_
