#ifndef DEEPMVI_AUTODIFF_OPS_H_
#define DEEPMVI_AUTODIFF_OPS_H_

#include <vector>

#include "autodiff/tape.h"

namespace deepmvi {
namespace ad {

// All operations create a new node on the inputs' tape and return its
// handle. Shapes are checked with DMVI_CHECK. Gradient formulas follow the
// standard matrix-calculus conventions (dL/dX has the shape of X).

// ---- Elementwise arithmetic ------------------------------------------------

Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
/// Elementwise (Hadamard) product.
Var Mul(const Var& a, const Var& b);
/// Elementwise division a / b.
Var Div(const Var& a, const Var& b);
Var Neg(const Var& a);
Var Scale(const Var& a, double s);
Var AddScalar(const Var& a, double s);
/// Elementwise product with a constant matrix (e.g., an availability mask).
Var MulConst(const Var& a, const Matrix& m);

// ---- Elementwise nonlinearities -------------------------------------------

Var Relu(const Var& a);
Var Tanh(const Var& a);
Var Sigmoid(const Var& a);
Var Exp(const Var& a);
/// Natural log; input must be strictly positive.
Var Log(const Var& a);
Var Square(const Var& a);
/// sqrt(a + eps), elementwise.
Var Sqrt(const Var& a, double eps = 0.0);
Var Abs(const Var& a);

// ---- Linear algebra --------------------------------------------------------

Var MatMul(const Var& a, const Var& b);
/// x * w + b with the 1 x cols row b added to every row, in one node:
/// bit-identical to AddRowVector(MatMul(x, w), b) in its value and in the
/// gradients of x, w and b.
Var Affine(const Var& x, const Var& w, const Var& b);
/// a * b^T without a transpose node; bit-identical to
/// MatMul(a, Transpose(b)) in its value and both gradients.
Var MatMulTranspose(const Var& a, const Var& b);
Var Transpose(const Var& a);

// ---- Shape manipulation ----------------------------------------------------

/// Row-major reshape preserving element order.
Var Reshape(const Var& a, int rows, int cols);
Var SliceRows(const Var& a, int r0, int count);
Var SliceCols(const Var& a, int c0, int count);
/// Horizontal concatenation (same row count).
Var ConcatCols(const std::vector<Var>& parts);
/// Vertical concatenation (same column count).
Var ConcatRows(const std::vector<Var>& parts);
/// Selects rows by index; duplicate indices accumulate gradient
/// (embedding-lookup semantics).
Var GatherRows(const Var& a, const std::vector<int>& indices);

// ---- Broadcasts -------------------------------------------------------------

/// Adds a 1 x cols row vector to every row of a.
Var AddRowVector(const Var& a, const Var& row);
/// Subtracts a 1 x cols row vector from every row of a.
Var SubRowVector(const Var& a, const Var& row);
/// Multiplies every row of a elementwise by a 1 x cols row vector.
Var MulRowVector(const Var& a, const Var& row);
/// Tiles a 1x1 scalar node to rows x cols.
Var BroadcastScalar(const Var& a, int rows, int cols);

// ---- Reductions --------------------------------------------------------------

/// Sum of all entries -> 1x1.
Var Sum(const Var& a);
/// Mean of all entries -> 1x1.
Var Mean(const Var& a);
/// Per-row sums -> rows x 1.
Var RowSum(const Var& a);
/// Per-column sums -> 1 x cols.
Var ColSum(const Var& a);

// ---- Softmax ------------------------------------------------------------------

/// Row-wise softmax: MaskedSoftmaxRows with every entry available.
Var SoftmaxRows(const Var& a);

/// Row-wise softmax restricted to entries where `avail`(r,c) != 0.
/// `avail` is a node of a's shape on the same tape, normally one
/// Tape::Constant that several softmaxes (e.g. attention heads) share; no
/// gradient flows into it. Unavailable entries get weight exactly 0. Rows
/// with no available entry produce all-zero weights (callers must handle
/// the degenerate case).
Var MaskedSoftmaxRows(const Var& a, const Var& avail);

// ---- Losses ----------------------------------------------------------------------

/// Weighted mean squared error: sum(w * (pred - target)^2) / max(sum(w), 1).
Var WeightedMseLoss(const Var& pred, const Matrix& target, const Matrix& weight);

/// Weighted mean absolute error (smooth near zero is NOT applied; the
/// subgradient at 0 is taken as 0).
Var WeightedMaeLoss(const Var& pred, const Matrix& target, const Matrix& weight);

// ---- Testing utilities --------------------------------------------------------------

/// Central finite-difference gradient of `f` with respect to `inputs`
/// evaluated at the given points. `f` receives a fresh tape and leaf vars
/// (one per input matrix) and must return a scalar Var on that tape.
/// Used by the gradient-check tests.
std::vector<Matrix> NumericalGradient(
    const std::function<Var(Tape&, const std::vector<Var>&)>& f,
    const std::vector<Matrix>& inputs, double eps = 1e-5);

/// Analytic gradients of the same function via the tape.
std::vector<Matrix> AnalyticGradient(
    const std::function<Var(Tape&, const std::vector<Var>&)>& f,
    const std::vector<Matrix>& inputs);

}  // namespace ad
}  // namespace deepmvi

#endif  // DEEPMVI_AUTODIFF_OPS_H_
