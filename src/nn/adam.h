#ifndef DEEPMVI_NN_ADAM_H_
#define DEEPMVI_NN_ADAM_H_

#include <vector>

#include "nn/parameter.h"

namespace deepmvi {
namespace nn {

/// Adam configuration; defaults follow the paper (lr = 1e-3, Sec 4.3).
struct AdamConfig {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  /// Global gradient-norm clip; <= 0 disables clipping.
  double clip_norm = 5.0;
};

/// Adam optimizer over a ParameterStore. Parameters that did not
/// participate in the current tape's graph are skipped.
class Adam {
 public:
  explicit Adam(ParameterStore* store, AdamConfig config = {})
      : store_(store), config_(config) {}

  /// Applies one update using the gradients accumulated on `tape` by the
  /// preceding Tape::Backward call. Returns the (pre-clip) global gradient
  /// norm, useful for diagnostics.
  double Step(const ad::Tape& tape);

  /// Applies one update from explicit gradients, aligned with
  /// store->params() order; a nullptr entry means the parameter did not
  /// participate in this step and is skipped (exactly like an off-tape
  /// parameter in Step). DeepMVI's training loop sums a batch's
  /// per-sample gradients into such a list, in sample order, before
  /// stepping.
  double StepWithGrads(const std::vector<const Matrix*>& grads);

  int64_t num_steps() const { return step_; }
  AdamConfig& config() { return config_; }

 private:
  ParameterStore* store_;
  AdamConfig config_;
  int64_t step_ = 0;
};

}  // namespace nn
}  // namespace deepmvi

#endif  // DEEPMVI_NN_ADAM_H_
