#include "nn/adam.h"

#include <cmath>
#include <string>

#include "tensor/matmul_kernel.h"

namespace deepmvi {
namespace nn {
namespace {

void CheckSameShape(const Matrix& a, const Matrix& b, const std::string& name) {
  DMVI_CHECK_EQ(a.rows(), b.rows()) << name;
  DMVI_CHECK_EQ(a.cols(), b.cols()) << name;
}

}  // namespace

double Adam::Step(const ad::Tape& tape) {
  const auto& params = store_->params();
  // Parameters on the tape whose output never reached the loss have no
  // allocated gradient. They still step (with a zero gradient — momentum
  // keeps decaying), but the zero must be a correctly-shaped matrix per
  // parameter: Tape::grad_or_zero's shared cache is reshaped by every
  // call, so pointers into it from earlier parameters would go stale.
  std::vector<Matrix> zeros(params.size());
  std::vector<const Matrix*> grads;
  grads.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const int leaf = tape.LeafIndexFor(params[i].get());
    if (leaf < 0) {
      grads.push_back(nullptr);
      continue;
    }
    if (const Matrix* g = tape.AllocatedGrad(leaf)) {
      grads.push_back(g);
    } else {
      zeros[i] = Matrix(params[i]->value().rows(), params[i]->value().cols());
      grads.push_back(&zeros[i]);
    }
  }
  return StepWithGrads(grads);
}

double Adam::StepWithGrads(const std::vector<const Matrix*>& grads) {
  DMVI_CHECK_EQ(grads.size(), store_->params().size());
  ++step_;
  // Global gradient norm across all participating parameters.
  double norm2 = 0.0;
  for (const Matrix* g : grads) {
    if (g != nullptr) norm2 += g->SquaredNorm();
  }
  const double norm = std::sqrt(norm2);
  double scale = 1.0;
  if (config_.clip_norm > 0.0 && norm > config_.clip_norm) {
    scale = config_.clip_norm / norm;
  }

  const internal::AdamStep adam_step = {
      .grad_scale = scale,
      .beta1 = config_.beta1,
      .beta2 = config_.beta2,
      .bias_correction1 =
          1.0 - std::pow(config_.beta1, static_cast<double>(step_)),
      .bias_correction2 =
          1.0 - std::pow(config_.beta2, static_cast<double>(step_)),
      .learning_rate = config_.learning_rate,
      .epsilon = config_.epsilon,
  };
  // The per-element update runs in the kernel sets (tensor/matmul_kernel.h)
  // on raw buffers, so the shapes are checked once per parameter here.
  for (size_t i = 0; i < grads.size(); ++i) {
    if (grads[i] == nullptr) continue;
    const Matrix& g = *grads[i];
    Parameter& p = *store_->params()[i];
    Matrix& value = p.value();
    Matrix& m = p.adam_m();
    Matrix& v = p.adam_v();
    CheckSameShape(g, value, p.name());
    CheckSameShape(m, value, p.name());
    CheckSameShape(v, value, p.name());
    internal::AdamUpdate(value.data(), m.data(), v.data(), g.data(),
                         value.size(), adam_step);
  }
  return norm;
}

}  // namespace nn
}  // namespace deepmvi
