#ifndef DEEPMVI_AUTODIFF_TAPE_H_
#define DEEPMVI_AUTODIFF_TAPE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "tensor/matrix.h"

namespace deepmvi {
namespace ad {

class Tape;

/// Lightweight handle to a matrix-valued node on a Tape.
///
/// Vars are created by Tape::Leaf / Tape::Constant and by the operator
/// functions in ops.h. A Var is only valid while its Tape is alive and has
/// not been Reset.
class Var {
 public:
  Var() : tape_(nullptr), index_(-1) {}
  Var(Tape* tape, int index) : tape_(tape), index_(index) {}

  bool valid() const { return tape_ != nullptr; }
  Tape* tape() const { return tape_; }
  int index() const { return index_; }

  const Matrix& value() const;
  const Matrix& grad() const;
  int rows() const { return value().rows(); }
  int cols() const { return value().cols(); }

  /// Value of a 1x1 node.
  double scalar() const;

 private:
  Tape* tape_;
  int index_;
};

/// Reverse-mode automatic differentiation tape over matrix-valued nodes.
///
/// Usage: create leaves (parameters / inputs), build the computation with
/// the ops in ops.h, then call Backward on a scalar (1x1) node. Gradients
/// accumulate into each node's grad matrix; parameter gradients are read
/// back through the Var handles. Reset() clears the graph between steps
/// but keeps its storage: node i of the next graph takes the value and
/// gradient buffers node i had, reshaped in place, so a loop that builds
/// one similar graph per step (a chunk walk, a training sample) allocates
/// node storage once rather than once per step. A tape holds at most the
/// buffers of one graph, the last one, two buffers its ops borrow
/// (PackBuffer, ProductBuffer) and one packed transpose per keyed leaf a
/// backward pass multiplied by (LeafTranspose), and frees them with
/// itself; a tape is used by one thread at a time.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Creates a differentiable leaf (e.g., a parameter or input).
  Var Leaf(Matrix value);

  /// Creates (or returns the previously created) leaf for `key`. A
  /// parameter shared between submodules materializes once per tape so its
  /// gradient accumulates correctly; the registry lives on the tape rather
  /// than on the parameter so that several tapes can hold the same
  /// parameter concurrently (one tape per concurrent Predict call).
  ///
  /// The leaf reads `value` in place instead of copying it: `value` must
  /// outlive the tape (or its next Reset) and must not change before the
  /// tape's last Backward. Training satisfies this by running the
  /// optimizer only after every backward pass of the batch. The transpose
  /// a backward pass packs of `value` (LeafTranspose) outlives the graph
  /// only through Reset(Weights::kUnchanged).
  Var LeafFor(const void* key, const Matrix& value);

  /// Node index of the keyed leaf, or -1 when `key` never materialized on
  /// this tape (since the last Reset).
  int LeafIndexFor(const void* key) const;

  /// Creates a non-differentiable constant node. Backward never propagates
  /// into constants.
  Var Constant(Matrix value);

  /// Runs reverse-mode accumulation from `loss` (must be 1x1). The loss
  /// seed gradient is 1. May be called once per graph.
  void Backward(const Var& loss);

  /// What Reset may assume about the values keyed leaves read (LeafFor).
  enum class Weights {
    /// They may have changed since the dropped graph was built, as after an
    /// optimizer step: the transposes packed of them are dropped.
    kMayHaveChanged,
    /// Each key's value is the same matrix, unchanged since the dropped
    /// graph was built: its packed transpose stays valid for the next graph.
    kUnchanged,
  };

  /// Drops all nodes. Invalidates every Var created since construction or
  /// the previous Reset. Keeps the value and gradient buffers the dropped
  /// graph used for the next graph's nodes and frees the rest. The keyed
  /// leaves' packed transposes keep their storage and, only when `weights`
  /// is kUnchanged, their contents. The default is always safe; passing
  /// kUnchanged when a value did change makes later gradients wrong.
  void Reset(Weights weights = Weights::kMayHaveChanged);

  int num_nodes() const { return num_nodes_; }

  // ---- Internal API used by ops.h ---------------------------------------

  /// Backward closure: receives the tape and the accumulated gradient of
  /// the node's own output, and must add contributions into the gradients
  /// of its input nodes.
  using BackwardFn = std::function<void(Tape&, const Matrix& gout)>;

  /// What NewValue leaves in a node's value storage.
  enum class ValueInit {
    /// Every element +0.0: for ops that accumulate into their output (the
    /// GEMMs, ColSum) or leave some elements unwritten (MaskedSoftmaxRows).
    kZeroed,
    /// Unspecified, typically the previous graph's values: the op must
    /// write every element.
    kOverwritten,
  };

  /// Starts the next interior node (index num_nodes()): returns its value
  /// matrix, rows x cols, in the storage that node index held in the
  /// previous graph, zero-filled only when `init` is kZeroed. The op writes
  /// its forward value there and then calls MakeNode; no other node may be
  /// created in between.
  Matrix& NewValue(int rows, int cols, ValueInit init);

  /// Creates the interior node whose value NewValue returned, with its
  /// backward closure. `needs_grad` should be true when any input requires
  /// grad.
  Var MakeNode(BackwardFn backward, bool needs_grad);

  const Matrix& value(int index) const {
    DMVI_CHECK_LT(index, num_nodes_);
    const Node& node = nodes_[index];
    return node.borrowed != nullptr ? *node.borrowed : node.value;
  }
  bool needs_grad(int index) const { return nodes_[index].needs_grad; }

  /// Gradient accessor; zero-fills the node's gradient on first touch.
  Matrix& grad(int index);
  const Matrix& grad_or_zero(int index) const;

  /// The node's gradient if Backward allocated one, else nullptr. Unlike
  /// grad_or_zero this never touches the shared zero-matrix cache, so the
  /// returned pointer stays valid (and correctly shaped) across further
  /// gradient queries — callers that collect pointers for several nodes
  /// must use this.
  const Matrix* AllocatedGrad(int index) const;

  /// `size` doubles an op packs a GEMM operand into (MatMulTranspose's
  /// b^T). Valid until the next call; not zero-filled.
  double* PackBuffer(int64_t size);

  /// The transpose of keyed leaf `index`'s value (cols x rows, row-major,
  /// as internal::PackTranspose writes it), or nullptr when node `index`
  /// is not a keyed leaf. Packed on the first call since the value last
  /// may have changed (see Reset) and kept by the tape for its key, so the
  /// backward passes of every graph between two optimizer steps share one
  /// pack. Valid until the next Reset.
  const double* LeafTranspose(int index);

  /// A zero-filled rows x cols matrix for a GEMM product bound for a
  /// gradient that already holds a contribution, added in once it is
  /// formed. Valid until the next call.
  Matrix& ProductBuffer(int rows, int cols);

 private:
  struct Node {
    Matrix value;
    // Set for keyed leaves, whose value is read in place (see LeafFor).
    const Matrix* borrowed = nullptr;
    const void* key = nullptr;
    Matrix grad;
    bool grad_allocated = false;
    bool needs_grad = false;
    BackwardFn backward;  // Empty for leaves/constants.
  };

  /// The slot of node num_nodes_, keeping whatever storage it holds.
  Node& NextNode();

  // Slots [0, num_nodes_) are the graph; a deque so that growing it keeps
  // references to earlier nodes' values valid while an op reads them.
  std::deque<Node> nodes_;
  int num_nodes_ = 0;
  // True between NewValue and MakeNode.
  bool value_pending_ = false;
  std::unordered_map<const void*, int> keyed_leaves_;
  Matrix empty_grad_;
  std::vector<double> pack_buffer_;
  Matrix product_buffer_;

  /// One keyed leaf's transpose: valid while `epoch` is the tape's
  /// transpose_epoch_ and the key still reads the matrix it was packed of.
  struct PackedTranspose {
    std::vector<double> data;
    const Matrix* source = nullptr;
    int rows = 0;
    int cols = 0;
    uint64_t epoch = 0;
  };
  std::unordered_map<const void*, PackedTranspose> transposes_;
  // Advanced by every Reset that may follow a change of the weights.
  uint64_t transpose_epoch_ = 1;
};

}  // namespace ad
}  // namespace deepmvi

#endif  // DEEPMVI_AUTODIFF_TAPE_H_
