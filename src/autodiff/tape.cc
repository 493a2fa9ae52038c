#include "autodiff/tape.h"

#include "tensor/matmul_kernel.h"

namespace deepmvi {
namespace ad {

const Matrix& Var::value() const {
  DMVI_CHECK(valid());
  return tape_->value(index_);
}

const Matrix& Var::grad() const {
  DMVI_CHECK(valid());
  return tape_->grad_or_zero(index_);
}

double Var::scalar() const {
  const Matrix& v = value();
  DMVI_CHECK_EQ(v.rows(), 1);
  DMVI_CHECK_EQ(v.cols(), 1);
  return v(0, 0);
}

Tape::Node& Tape::NextNode() {
  DMVI_CHECK(!value_pending_) << "node created between NewValue and MakeNode";
  if (num_nodes_ == static_cast<int>(nodes_.size())) nodes_.emplace_back();
  return nodes_[num_nodes_];
}

Var Tape::Leaf(Matrix value) {
  Node& node = NextNode();
  node.value = std::move(value);
  node.needs_grad = true;
  return Var(this, num_nodes_++);
}

Var Tape::LeafFor(const void* key, const Matrix& value) {
  auto it = keyed_leaves_.find(key);
  if (it != keyed_leaves_.end()) return Var(this, it->second);
  Node& node = NextNode();
  node.value = Matrix();  // Read in place: the slot's own buffer goes.
  node.borrowed = &value;
  node.key = key;
  node.needs_grad = true;
  keyed_leaves_.emplace(key, num_nodes_);
  return Var(this, num_nodes_++);
}

int Tape::LeafIndexFor(const void* key) const {
  auto it = keyed_leaves_.find(key);
  return it == keyed_leaves_.end() ? -1 : it->second;
}

Var Tape::Constant(Matrix value) {
  Node& node = NextNode();
  node.value = std::move(value);
  node.needs_grad = false;
  return Var(this, num_nodes_++);
}

Matrix& Tape::NewValue(int rows, int cols, ValueInit init) {
  Node& node = NextNode();
  if (init == ValueInit::kZeroed) {
    node.value.AssignZeros(rows, cols);
  } else {
    node.value.AssignShape(rows, cols);
  }
  value_pending_ = true;
  return node.value;
}

Var Tape::MakeNode(BackwardFn backward, bool needs_grad) {
  DMVI_CHECK(value_pending_) << "MakeNode without NewValue";
  value_pending_ = false;
  Node& node = nodes_[num_nodes_];
  node.needs_grad = needs_grad;
  if (needs_grad) node.backward = std::move(backward);
  return Var(this, num_nodes_++);
}

void Tape::Backward(const Var& loss) {
  DMVI_CHECK(loss.valid());
  DMVI_CHECK_EQ(loss.tape(), this);
  DMVI_CHECK_EQ(loss.value().rows(), 1);
  DMVI_CHECK_EQ(loss.value().cols(), 1);
  grad(loss.index())(0, 0) = 1.0;
  for (int i = loss.index(); i >= 0; --i) {
    Node& node = nodes_[i];
    if (!node.needs_grad || !node.backward) continue;
    if (!node.grad_allocated) continue;  // No gradient flowed here.
    node.backward(*this, node.grad);
  }
}

void Tape::Reset(Weights weights) {
  DMVI_CHECK(!value_pending_) << "Reset between NewValue and MakeNode";
  if (weights == Weights::kMayHaveChanged) ++transpose_epoch_;
  // Slots past the dropped graph hold storage it did not use.
  nodes_.resize(num_nodes_);
  for (Node& node : nodes_) {
    if (!node.grad_allocated) node.grad = Matrix();
    node.grad_allocated = false;
    node.borrowed = nullptr;
    node.key = nullptr;
    node.needs_grad = false;
    node.backward = nullptr;
  }
  num_nodes_ = 0;
  keyed_leaves_.clear();
}

Matrix& Tape::grad(int index) {
  Node& node = nodes_[index];
  if (!node.grad_allocated) {
    const Matrix& v = value(index);
    node.grad.AssignZeros(v.rows(), v.cols());
    node.grad_allocated = true;
  }
  return node.grad;
}

const Matrix* Tape::AllocatedGrad(int index) const {
  const Node& node = nodes_[index];
  return node.grad_allocated ? &node.grad : nullptr;
}

double* Tape::PackBuffer(int64_t size) {
  if (static_cast<int64_t>(pack_buffer_.size()) < size) {
    pack_buffer_.resize(static_cast<size_t>(size));
  }
  return pack_buffer_.data();
}

const double* Tape::LeafTranspose(int index) {
  DMVI_CHECK_LT(index, num_nodes_);
  const Node& node = nodes_[index];
  if (node.key == nullptr) return nullptr;
  const Matrix& w = *node.borrowed;
  PackedTranspose& packed = transposes_[node.key];
  if (packed.epoch != transpose_epoch_ || packed.source != &w ||
      packed.rows != w.rows() || packed.cols != w.cols()) {
    packed.data.resize(static_cast<size_t>(w.size()));
    internal::PackTranspose(w.data(), w.rows(), w.cols(), packed.data.data());
    packed.source = &w;
    packed.rows = w.rows();
    packed.cols = w.cols();
    packed.epoch = transpose_epoch_;
  }
  return packed.data.data();
}

Matrix& Tape::ProductBuffer(int rows, int cols) {
  product_buffer_.AssignZeros(rows, cols);
  return product_buffer_;
}

const Matrix& Tape::grad_or_zero(int index) const {
  const Node& node = nodes_[index];
  if (node.grad_allocated) return node.grad;
  const Matrix& v = value(index);
  if (empty_grad_.rows() != v.rows() || empty_grad_.cols() != v.cols()) {
    // Lazily keep a zero matrix of the right shape. const_cast is confined
    // to this cache; callers only read.
    const_cast<Tape*>(this)->empty_grad_ = Matrix(v.rows(), v.cols());
  }
  return empty_grad_;
}

}  // namespace ad
}  // namespace deepmvi
