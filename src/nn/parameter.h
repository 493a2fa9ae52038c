#ifndef DEEPMVI_NN_PARAMETER_H_
#define DEEPMVI_NN_PARAMETER_H_

#include <memory>
#include <string>
#include <vector>

#include "autodiff/ops.h"
#include "autodiff/tape.h"
#include "common/rng.h"
#include "tensor/matrix.h"

namespace deepmvi {
namespace nn {

/// A trainable matrix with its Adam state. Each training step, a layer
/// materializes the parameter on the step's tape via OnTape(); after
/// Tape::Backward, the optimizer reads the gradient through grad_on().
class Parameter {
 public:
  Parameter(std::string name, Matrix init)
      : name_(std::move(name)),
        value_(std::move(init)),
        adam_m_(value_.rows(), value_.cols()),
        adam_v_(value_.rows(), value_.cols()) {}

  const std::string& name() const { return name_; }
  Matrix& value() { return value_; }
  const Matrix& value() const { return value_; }

  /// Registers this parameter as a leaf on `tape` (once per step). Repeat
  /// calls on the same tape return the same Var, so that a parameter shared
  /// between submodules accumulates gradient correctly. The binding lives
  /// on the tape (keyed by this parameter's address), keeping Parameter
  /// itself immutable here — several worker tapes may materialize the same
  /// parameter concurrently during data-parallel training. The leaf reads
  /// value() in place (Tape::LeafFor), so value() must not change before
  /// the tape's last Backward.
  ad::Var OnTape(ad::Tape& tape) const { return tape.LeafFor(this, value_); }

  /// True when the parameter participated in `tape`'s graph.
  bool on_tape(const ad::Tape& tape) const {
    return tape.LeafIndexFor(this) >= 0;
  }

  /// Gradient accumulated for this parameter on `tape` by the preceding
  /// Tape::Backward call (a correctly-shaped zero matrix when no gradient
  /// flowed). Requires on_tape(tape).
  const Matrix& grad_on(const ad::Tape& tape) const {
    const int leaf = tape.LeafIndexFor(this);
    DMVI_CHECK_GE(leaf, 0) << "parameter " << name_ << " not on this tape";
    return tape.grad_or_zero(leaf);
  }

  Matrix& adam_m() { return adam_m_; }
  Matrix& adam_v() { return adam_v_; }
  const Matrix& adam_m() const { return adam_m_; }
  const Matrix& adam_v() const { return adam_v_; }

  int64_t size() const { return value_.size(); }

 private:
  std::string name_;
  Matrix value_;
  Matrix adam_m_;
  Matrix adam_v_;
};

/// Owning registry of parameters; modules create parameters through this
/// so the optimizer can see all of them.
class ParameterStore {
 public:
  ParameterStore() = default;
  ParameterStore(const ParameterStore&) = delete;
  ParameterStore& operator=(const ParameterStore&) = delete;

  Parameter* Create(std::string name, Matrix init) {
    params_.push_back(std::make_unique<Parameter>(std::move(name), std::move(init)));
    return params_.back().get();
  }

  const std::vector<std::unique_ptr<Parameter>>& params() const { return params_; }

  /// The parameter named `name`, or nullptr. Names are unique per store by
  /// construction (modules qualify them with their own name); checkpoint
  /// loading uses this to match records independent of creation order.
  Parameter* Find(const std::string& name) const {
    for (const auto& p : params_) {
      if (p->name() == name) return p.get();
    }
    return nullptr;
  }

  int64_t TotalSize() const {
    int64_t total = 0;
    for (const auto& p : params_) total += p->size();
    return total;
  }

 private:
  std::vector<std::unique_ptr<Parameter>> params_;
};

// ---- Initializers -----------------------------------------------------------

/// Xavier/Glorot uniform initialization for a fan_in x fan_out matrix.
Matrix XavierUniform(int fan_in, int fan_out, Rng& rng);

/// He (Kaiming) normal initialization, for ReLU stacks.
Matrix HeNormal(int fan_in, int fan_out, Rng& rng);

/// Small-scale Gaussian, used for embeddings.
Matrix GaussianInit(int rows, int cols, Rng& rng, double stddev = 0.1);

}  // namespace nn
}  // namespace deepmvi

#endif  // DEEPMVI_NN_PARAMETER_H_
