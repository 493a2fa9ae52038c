#ifndef DEEPMVI_CORE_DEEPMVI_CONFIG_H_
#define DEEPMVI_CORE_DEEPMVI_CONFIG_H_

#include <cstdint>

#include "common/status.h"

namespace deepmvi {

/// Hyper-parameters of DeepMVI. Defaults follow Sec 4.3 of the paper:
/// p = 32 filters, window w = 10 (20 when the mean missing block exceeds
/// 100), 4 attention heads, member-embedding size 10, Adam lr = 1e-3.
///
/// Each bounded field states its range below; Validate() checks them all.
/// The upper bounds sit well above the paper's values. BuildDeepMviModules
/// sizes the transformer from these fields before any data or checkpoint
/// record is read; at the bounds its parameters, Adam moments included,
/// stay under 0.5 GiB.
struct DeepMviConfig {
  // ---- Architecture ----------------------------------------------------
  /// Convolution filter count p (feature width of the transformer), in
  /// [1, 128].
  int filters = 32;
  /// Window size w of the non-overlapping convolution, in [0, 512]. At 0
  /// the window is chosen automatically: 10, or 20 if the mean missing
  /// block in the dataset is larger than 100 steps.
  int window = 0;
  /// Attention heads, in [1, 32].
  int num_heads = 4;
  /// Embedding size d_i of each dimension's members (kernel regression),
  /// in [1, 256].
  int embedding_dim = 10;
  /// RBF kernel sharpness gamma (Eq. 17).
  double kernel_gamma = 1.0;
  /// Pre-selection size L for large dimensions (Sec 4.2), in [1, 2^24]
  /// (nn::kMaxTableSeries, the most members a dimension can have).
  int top_siblings = 20;

  // ---- Training ----------------------------------------------------------
  double learning_rate = 1e-3;
  /// At least 0.
  int max_epochs = 30;
  /// Training anchors sampled per epoch, at least 0.
  int samples_per_epoch = 128;
  /// Samples per optimizer step, at least 1 (an epoch draws its samples a
  /// batch at a time).
  int batch_size = 4;
  /// Early-stopping patience in epochs without validation improvement.
  int patience = 4;
  /// Fraction of sampled anchors held out for validation.
  double validation_fraction = 0.2;
  /// Longest context (in time steps) processed at once; longer series are
  /// windowed around the imputation target. Keeps attention quadratic cost
  /// bounded for 50k-step series (BAFU). In [1, 8192]: it sizes the
  /// transformer's positional-encoding table (see
  /// TemporalTransformer::kMaxTableContext).
  int max_context = 1024;
  uint64_t seed = 123;
  /// Worker threads for batch-level data parallelism inside Fit (forward/
  /// backward of a mini-batch's samples run concurrently, one autodiff
  /// tape per worker slot; gradients reduce in sample order before each
  /// optimizer step), at least 0; 0 means hardware concurrency. Results are
  /// bit-identical for every value — the thread count only changes
  /// wall-clock time. Default 1 keeps nested parallelism out of callers
  /// that already fan out (eval suite, serving).
  int num_threads = 1;

  // ---- Ablation switches (Sec 5.5) -----------------------------------------
  /// Disables the temporal transformer ("No Temporal Transformer").
  bool use_temporal_transformer = true;
  /// Replaces the context-window queries/keys by positional encodings only
  /// ("No Context Window").
  bool use_context_window = true;
  /// Disables kernel regression ("No Kernel Regression").
  bool use_kernel_regression = true;
  /// Disables the fine-grained local signal (Sec 5.5.3).
  bool use_fine_grained = true;
  /// Flattens the multidimensional index before modelling (DeepMVI1D,
  /// Sec 5.5.4). The embedding size is doubled to keep parameters equal.
  bool flatten_multidim = false;

  /// OK when every field is inside its range above, else InvalidArgument
  /// naming the first field outside it. DeepMviImputer::Fit, TrainedDeepMvi::
  /// Load and dmvi_train all check a config with this one function.
  Status Validate() const;
};

}  // namespace deepmvi

#endif  // DEEPMVI_CORE_DEEPMVI_CONFIG_H_
