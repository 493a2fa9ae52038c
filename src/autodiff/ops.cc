#include "autodiff/ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/matmul_kernel.h"

namespace deepmvi {
namespace ad {
namespace {

using ValueInit = Tape::ValueInit;

Tape* SameTape(const Var& a, const Var& b) {
  DMVI_CHECK(a.valid());
  DMVI_CHECK(b.valid());
  DMVI_CHECK_EQ(a.tape(), b.tape());
  return a.tape();
}

void CheckSameShape(const Var& a, const Var& b) {
  DMVI_CHECK_EQ(a.rows(), b.rows());
  DMVI_CHECK_EQ(a.cols(), b.cols());
}

/// Adds `delta` into the gradient of node `index` if that node wants one.
void Accumulate(Tape& tape, int index, const Matrix& delta) {
  if (!tape.needs_grad(index)) return;
  tape.grad(index) += delta;
}

/// Adds a GEMM product into the gradient of node `index` if that node
/// wants one; `product(c)` accumulates the rows x cols product into the
/// zero-filled `c`. A gradient this graph has not touched yet is all +0.0,
/// and a kernel chain summed from +0.0 is never -0.0, so writing the
/// product straight into it leaves the bits 0 + product would. A touched
/// gradient gets the product through the tape's product buffer and then
/// one add: each product element is rounded before it joins the sum.
template <typename Product>
void AccumulateProduct(Tape& t, int index, int rows, int cols,
                       Product product) {
  if (!t.needs_grad(index)) return;
  if (t.AllocatedGrad(index) == nullptr) {
    Matrix& g = t.grad(index);
    DMVI_CHECK_EQ(g.rows(), rows);
    DMVI_CHECK_EQ(g.cols(), cols);
    product(g.data());
    return;
  }
  Matrix& spare = t.ProductBuffer(rows, cols);
  product(spare.data());
  t.grad(index) += spare;
}

bool NeedsGrad(Tape* tape, const Var& a) { return tape->needs_grad(a.index()); }

/// Writes f(a[i]) into the next node's value.
template <typename F>
void UnaryForward(Tape* tape, const Matrix& a, F f) {
  Matrix& out = tape->NewValue(a.rows(), a.cols(), ValueInit::kOverwritten);
  const double* src = a.data();
  double* dst = out.data();
  for (int64_t i = 0; i < out.size(); ++i) dst[i] = f(src[i]);
}

/// Writes f(a[i], b[i]) into the next node's value (a and b share a shape).
template <typename F>
void BinaryForward(Tape* tape, const Matrix& a, const Matrix& b, F f) {
  Matrix& out = tape->NewValue(a.rows(), a.cols(), ValueInit::kOverwritten);
  const double* pa = a.data();
  const double* pb = b.data();
  double* dst = out.data();
  for (int64_t i = 0; i < out.size(); ++i) dst[i] = f(pa[i], pb[i]);
}

/// Elementwise op with out[i] = fwd(in[i]); backward adds
/// gout[i] * dfn(in[i], out[i]) into the input's gradient. Both are
/// functors inlined into the loops; dfn reads the stored output where the
/// derivative is a function of it (out is fwd(in) to the bit).
template <typename Fwd, typename Dfn>
Var UnaryOp(const Var& a, Fwd fwd, Dfn dfn) {
  DMVI_CHECK(a.valid());
  Tape* tape = a.tape();
  UnaryForward(tape, a.value(), fwd);
  const int ia = a.index();
  const int iout = tape->num_nodes();
  return tape->MakeNode(
      [ia, iout, dfn](Tape& t, const Matrix& gout) {
        if (!t.needs_grad(ia)) return;
        const Matrix& in = t.value(ia);
        Matrix& ga = t.grad(ia);
        DMVI_CHECK_EQ(gout.rows(), in.rows());
        DMVI_CHECK_EQ(gout.cols(), in.cols());
        const double* x = in.data();
        const double* y = t.value(iout).data();
        const double* g = gout.data();
        double* dx = ga.data();
        for (int64_t i = 0; i < ga.size(); ++i) dx[i] += g[i] * dfn(x[i], y[i]);
      },
      NeedsGrad(tape, a));
}

}  // namespace

// ---- Elementwise arithmetic ----------------------------------------------

Var Add(const Var& a, const Var& b) {
  Tape* tape = SameTape(a, b);
  CheckSameShape(a, b);
  const int ia = a.index(), ib = b.index();
  BinaryForward(tape, a.value(), b.value(),
                [](double x, double y) { return x + y; });
  return tape->MakeNode(
      [ia, ib](Tape& t, const Matrix& gout) {
        Accumulate(t, ia, gout);
        Accumulate(t, ib, gout);
      },
      NeedsGrad(tape, a) || NeedsGrad(tape, b));
}

Var Sub(const Var& a, const Var& b) {
  Tape* tape = SameTape(a, b);
  CheckSameShape(a, b);
  const int ia = a.index(), ib = b.index();
  BinaryForward(tape, a.value(), b.value(),
                [](double x, double y) { return x - y; });
  return tape->MakeNode(
      [ia, ib](Tape& t, const Matrix& gout) {
        Accumulate(t, ia, gout);
        if (t.needs_grad(ib)) t.grad(ib) -= gout;
      },
      NeedsGrad(tape, a) || NeedsGrad(tape, b));
}

Var Mul(const Var& a, const Var& b) {
  Tape* tape = SameTape(a, b);
  CheckSameShape(a, b);
  const int ia = a.index(), ib = b.index();
  BinaryForward(tape, a.value(), b.value(),
                [](double x, double y) { return x * y; });
  return tape->MakeNode(
      [ia, ib](Tape& t, const Matrix& gout) {
        const double* g = gout.data();
        if (t.needs_grad(ia)) {
          Matrix& ga = t.grad(ia);
          const double* bv = t.value(ib).data();
          double* dst = ga.data();
          for (int64_t i = 0; i < ga.size(); ++i) dst[i] += g[i] * bv[i];
        }
        if (t.needs_grad(ib)) {
          Matrix& gb = t.grad(ib);
          const double* av = t.value(ia).data();
          double* dst = gb.data();
          for (int64_t i = 0; i < gb.size(); ++i) dst[i] += g[i] * av[i];
        }
      },
      NeedsGrad(tape, a) || NeedsGrad(tape, b));
}

Var Div(const Var& a, const Var& b) {
  Tape* tape = SameTape(a, b);
  CheckSameShape(a, b);
  const int ia = a.index(), ib = b.index();
  BinaryForward(tape, a.value(), b.value(),
                [](double x, double y) { return x / y; });
  return tape->MakeNode(
      [ia, ib](Tape& t, const Matrix& gout) {
        const double* g = gout.data();
        const double* bv = t.value(ib).data();
        if (t.needs_grad(ia)) {
          Matrix& ga = t.grad(ia);
          double* dst = ga.data();
          for (int64_t i = 0; i < ga.size(); ++i) dst[i] += g[i] / bv[i];
        }
        if (t.needs_grad(ib)) {
          Matrix& gb = t.grad(ib);
          const double* av = t.value(ia).data();
          double* dst = gb.data();
          for (int64_t i = 0; i < gb.size(); ++i) {
            dst[i] += -g[i] * av[i] / (bv[i] * bv[i]);
          }
        }
      },
      NeedsGrad(tape, a) || NeedsGrad(tape, b));
}

Var Neg(const Var& a) { return Scale(a, -1.0); }

Var Scale(const Var& a, double s) {
  return UnaryOp(
      a, [s](double x) { return x * s; }, [s](double, double) { return s; });
}

Var AddScalar(const Var& a, double s) {
  DMVI_CHECK(a.valid());
  Tape* tape = a.tape();
  const int ia = a.index();
  UnaryForward(tape, a.value(), [s](double x) { return x + s; });
  return tape->MakeNode(
      [ia](Tape& t, const Matrix& gout) { Accumulate(t, ia, gout); },
      NeedsGrad(tape, a));
}

Var MulConst(const Var& a, const Matrix& m) {
  DMVI_CHECK(a.valid());
  DMVI_CHECK_EQ(a.rows(), m.rows());
  DMVI_CHECK_EQ(a.cols(), m.cols());
  Tape* tape = a.tape();
  const int ia = a.index();
  BinaryForward(tape, a.value(), m, [](double x, double y) { return x * y; });
  return tape->MakeNode(
      [ia, m](Tape& t, const Matrix& gout) {
        if (!t.needs_grad(ia)) return;
        Matrix& ga = t.grad(ia);
        const double* g = gout.data();
        const double* mv = m.data();
        double* dst = ga.data();
        for (int64_t i = 0; i < ga.size(); ++i) dst[i] += g[i] * mv[i];
      },
      NeedsGrad(tape, a));
}

// ---- Elementwise nonlinearities -------------------------------------------

Var Relu(const Var& a) {
  return UnaryOp(
      a, [](double x) { return x > 0.0 ? x : 0.0; },
      [](double in, double) { return in > 0.0 ? 1.0 : 0.0; });
}

Var Tanh(const Var& a) {
  return UnaryOp(
      a, [](double x) { return std::tanh(x); },
      [](double, double out) { return 1.0 - out * out; });
}

Var Sigmoid(const Var& a) {
  return UnaryOp(
      a, [](double x) { return 1.0 / (1.0 + std::exp(-x)); },
      [](double, double out) { return out * (1.0 - out); });
}

Var Exp(const Var& a) {
  return UnaryOp(
      a, [](double x) { return std::exp(x); },
      [](double, double out) { return out; });
}

Var Log(const Var& a) {
  return UnaryOp(
      a, [](double x) { return std::log(x); },
      [](double in, double) { return 1.0 / in; });
}

Var Square(const Var& a) {
  return UnaryOp(
      a, [](double x) { return x * x; },
      [](double in, double) { return 2.0 * in; });
}

Var Sqrt(const Var& a, double eps) {
  DMVI_CHECK(a.valid());
  Tape* tape = a.tape();
  const int ia = a.index();
  UnaryForward(tape, a.value(), [eps](double x) { return std::sqrt(x + eps); });
  return tape->MakeNode(
      [ia, eps](Tape& t, const Matrix& gout) {
        if (!t.needs_grad(ia)) return;
        Matrix& ga = t.grad(ia);
        const double* in = t.value(ia).data();
        const double* g = gout.data();
        double* dst = ga.data();
        for (int64_t i = 0; i < ga.size(); ++i) {
          dst[i] += g[i] * 0.5 / std::sqrt(in[i] + eps);
        }
      },
      NeedsGrad(tape, a));
}

Var Abs(const Var& a) {
  return UnaryOp(
      a, [](double x) { return std::fabs(x); },
      [](double in, double) {
        return in > 0.0 ? 1.0 : (in < 0.0 ? -1.0 : 0.0);
      });
}

// ---- Linear algebra -------------------------------------------------------

namespace {

/// The gradients of the product node a * b that reads gout: d/da = gout
/// b^T and d/db = a^T gout, the products Matrix::MatMulTranspose and
/// Matrix::TransposeMatMul form. A weight b (a keyed leaf) is multiplied
/// through the transpose the tape keeps of it until the weights change;
/// any other b is packed into the tape's pack buffer per call. Either way
/// the kernel runs the same product on the same packed bytes.
void MatMulBackward(Tape& t, int ia, int ib, const Matrix& gout) {
  const Matrix& av = t.value(ia);
  const Matrix& bv = t.value(ib);
  AccumulateProduct(t, ia, av.rows(), av.cols(), [&](double* c) {
    if (const double* b_t = t.LeafTranspose(ib)) {
      internal::MatMulBlocked(gout.data(), b_t, c, gout.rows(), gout.cols(),
                              bv.rows());
      return;
    }
    internal::MatMulTransposeBlocked(gout.data(), bv.data(), c, gout.rows(),
                                     gout.cols(), bv.rows(),
                                     t.PackBuffer(bv.size()));
  });
  AccumulateProduct(t, ib, bv.rows(), bv.cols(), [&](double* c) {
    internal::TransposeMatMulBlocked(av.data(), gout.data(), c, av.cols(),
                                     av.rows(), gout.cols());
  });
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  Tape* tape = SameTape(a, b);
  DMVI_CHECK_EQ(a.cols(), b.rows());
  const int ia = a.index(), ib = b.index();
  Matrix& out = tape->NewValue(a.rows(), b.cols(), ValueInit::kZeroed);
  internal::MatMulBlocked(a.value().data(), b.value().data(), out.data(),
                          a.rows(), a.cols(), b.cols());
  return tape->MakeNode(
      [ia, ib](Tape& t, const Matrix& gout) { MatMulBackward(t, ia, ib, gout); },
      NeedsGrad(tape, a) || NeedsGrad(tape, b));
}

Var Affine(const Var& x, const Var& w, const Var& b) {
  Tape* tape = SameTape(x, w);
  DMVI_CHECK_EQ(b.tape(), tape);
  DMVI_CHECK_EQ(x.cols(), w.rows());
  DMVI_CHECK_EQ(b.rows(), 1);
  DMVI_CHECK_EQ(b.cols(), w.cols());
  const int ix = x.index(), iw = w.index(), ib = b.index();
  Matrix& out = tape->NewValue(x.rows(), w.cols(), ValueInit::kZeroed);
  internal::MatMulBlocked(x.value().data(), w.value().data(), out.data(),
                          x.rows(), x.cols(), w.cols());
  // The bias joins each finished k-chain, as AddRowVector added it to the
  // MatMul node's value.
  const double* bias = b.value().data();
  for (int r = 0; r < out.rows(); ++r) {
    double* p = out.row_ptr(r);
    for (int c = 0; c < out.cols(); ++c) p[c] += bias[c];
  }
  return tape->MakeNode(
      [ix, iw, ib](Tape& t, const Matrix& gout) {
        // The products read gout itself, where an unfused MatMul node
        // reads its own gradient 0 + gout: the same bits, since no
        // gradient holds -0.0 (each is summed from +0.0).
        if (t.needs_grad(ib)) {
          Matrix& gb = t.grad(ib);
          double* dst = gb.data();
          for (int r = 0; r < gout.rows(); ++r) {
            const double* src = gout.row_ptr(r);
            for (int c = 0; c < gout.cols(); ++c) dst[c] += src[c];
          }
        }
        MatMulBackward(t, ix, iw, gout);
      },
      NeedsGrad(tape, x) || NeedsGrad(tape, w) || NeedsGrad(tape, b));
}

Var MatMulTranspose(const Var& a, const Var& b) {
  Tape* tape = SameTape(a, b);
  DMVI_CHECK_EQ(a.cols(), b.cols());
  const int ia = a.index(), ib = b.index();
  const Matrix& bv = b.value();
  Matrix& out = tape->NewValue(a.rows(), b.rows(), ValueInit::kZeroed);
  internal::MatMulTransposeBlocked(a.value().data(), bv.data(), out.data(),
                                   a.rows(), a.cols(), b.rows(),
                                   tape->PackBuffer(bv.size()));
  return tape->MakeNode(
      [ia, ib](Tape& t, const Matrix& gout) {
        // d(a b^T)/da = gout b and d/db = gout^T a: the products
        // MatMul(a, Transpose(b)) forms, so every element keeps its chain.
        const Matrix& av = t.value(ia);
        const Matrix& bv = t.value(ib);
        AccumulateProduct(t, ia, av.rows(), av.cols(), [&](double* c) {
          internal::MatMulBlocked(gout.data(), bv.data(), c, gout.rows(),
                                  gout.cols(), bv.cols());
        });
        AccumulateProduct(t, ib, bv.rows(), bv.cols(), [&](double* c) {
          internal::TransposeMatMulBlocked(gout.data(), av.data(), c,
                                           gout.cols(), gout.rows(),
                                           av.cols());
        });
      },
      NeedsGrad(tape, a) || NeedsGrad(tape, b));
}

Var Transpose(const Var& a) {
  DMVI_CHECK(a.valid());
  Tape* tape = a.tape();
  const int ia = a.index();
  const Matrix& av = a.value();
  Matrix& out =
      tape->NewValue(av.cols(), av.rows(), ValueInit::kOverwritten);
  const int rows = av.rows();
  double* dst = out.data();
  for (int r = 0; r < rows; ++r) {
    const double* src = av.row_ptr(r);
    for (int c = 0; c < av.cols(); ++c) dst[c * rows + r] = src[c];
  }
  return tape->MakeNode(
      [ia](Tape& t, const Matrix& gout) {
        if (!t.needs_grad(ia)) return;
        Matrix& ga = t.grad(ia);
        DMVI_CHECK_EQ(gout.rows(), ga.cols());
        DMVI_CHECK_EQ(gout.cols(), ga.rows());
        const int rows = ga.rows();
        const double* g = gout.data();
        for (int r = 0; r < rows; ++r) {
          double* dst = ga.row_ptr(r);
          for (int c = 0; c < ga.cols(); ++c) dst[c] += g[c * rows + r];
        }
      },
      NeedsGrad(tape, a));
}

// ---- Shape manipulation ------------------------------------------------------

Var Reshape(const Var& a, int rows, int cols) {
  DMVI_CHECK(a.valid());
  DMVI_CHECK_EQ(a.value().size(), static_cast<int64_t>(rows) * cols);
  Tape* tape = a.tape();
  const int ia = a.index();
  const Matrix& av = a.value();
  Matrix& out = tape->NewValue(rows, cols, ValueInit::kOverwritten);
  std::copy(av.data(), av.data() + av.size(), out.data());
  return tape->MakeNode(
      [ia](Tape& t, const Matrix& gout) {
        if (!t.needs_grad(ia)) return;
        Matrix& ga = t.grad(ia);
        const double* src = gout.data();
        double* dst = ga.data();
        for (int64_t i = 0; i < ga.size(); ++i) dst[i] += src[i];
      },
      NeedsGrad(tape, a));
}

Var SliceRows(const Var& a, int r0, int count) {
  DMVI_CHECK(a.valid());
  Tape* tape = a.tape();
  const int ia = a.index();
  const Matrix& av = a.value();
  DMVI_CHECK_GE(r0, 0);
  DMVI_CHECK_GE(count, 0);
  DMVI_CHECK_LE(r0 + count, av.rows());
  Matrix& out = tape->NewValue(count, av.cols(), ValueInit::kOverwritten);
  std::copy(av.row_ptr(r0), av.row_ptr(r0) + out.size(), out.data());
  return tape->MakeNode(
      [ia, r0](Tape& t, const Matrix& gout) {
        if (!t.needs_grad(ia)) return;
        Matrix& ga = t.grad(ia);
        for (int r = 0; r < gout.rows(); ++r) {
          double* dst = ga.row_ptr(r0 + r);
          const double* src = gout.row_ptr(r);
          for (int c = 0; c < gout.cols(); ++c) dst[c] += src[c];
        }
      },
      NeedsGrad(tape, a));
}

Var SliceCols(const Var& a, int c0, int count) {
  DMVI_CHECK(a.valid());
  Tape* tape = a.tape();
  const int ia = a.index();
  const Matrix& av = a.value();
  DMVI_CHECK_GE(c0, 0);
  DMVI_CHECK_GE(count, 0);
  DMVI_CHECK_LE(c0 + count, av.cols());
  Matrix& out = tape->NewValue(av.rows(), count, ValueInit::kOverwritten);
  for (int r = 0; r < av.rows(); ++r) {
    std::copy(av.row_ptr(r) + c0, av.row_ptr(r) + c0 + count, out.row_ptr(r));
  }
  return tape->MakeNode(
      [ia, c0](Tape& t, const Matrix& gout) {
        if (!t.needs_grad(ia)) return;
        Matrix& ga = t.grad(ia);
        for (int r = 0; r < gout.rows(); ++r) {
          double* dst = ga.row_ptr(r) + c0;
          const double* src = gout.row_ptr(r);
          for (int c = 0; c < gout.cols(); ++c) dst[c] += src[c];
        }
      },
      NeedsGrad(tape, a));
}

Var ConcatCols(const std::vector<Var>& parts) {
  DMVI_CHECK(!parts.empty());
  Tape* tape = parts[0].tape();
  const int rows = parts[0].rows();
  int total_cols = 0;
  bool ng = false;
  std::vector<int> indices;
  std::vector<int> offsets;
  for (const Var& p : parts) {
    DMVI_CHECK_EQ(p.tape(), tape);
    DMVI_CHECK_EQ(p.rows(), rows);
    offsets.push_back(total_cols);
    total_cols += p.cols();
    indices.push_back(p.index());
    ng = ng || tape->needs_grad(p.index());
  }
  Matrix& out = tape->NewValue(rows, total_cols, ValueInit::kOverwritten);
  for (size_t i = 0; i < parts.size(); ++i) {
    out.SetBlock(0, offsets[i], parts[i].value());
  }
  return tape->MakeNode(
      [indices, offsets](Tape& t, const Matrix& gout) {
        for (size_t i = 0; i < indices.size(); ++i) {
          const int idx = indices[i];
          if (!t.needs_grad(idx)) continue;
          Matrix& g = t.grad(idx);
          for (int r = 0; r < g.rows(); ++r) {
            const double* src = gout.row_ptr(r) + offsets[i];
            double* dst = g.row_ptr(r);
            for (int c = 0; c < g.cols(); ++c) dst[c] += src[c];
          }
        }
      },
      ng);
}

Var ConcatRows(const std::vector<Var>& parts) {
  DMVI_CHECK(!parts.empty());
  Tape* tape = parts[0].tape();
  const int cols = parts[0].cols();
  int total_rows = 0;
  bool ng = false;
  std::vector<int> indices;
  std::vector<int> offsets;
  for (const Var& p : parts) {
    DMVI_CHECK_EQ(p.tape(), tape);
    DMVI_CHECK_EQ(p.cols(), cols);
    offsets.push_back(total_rows);
    total_rows += p.rows();
    indices.push_back(p.index());
    ng = ng || tape->needs_grad(p.index());
  }
  Matrix& out = tape->NewValue(total_rows, cols, ValueInit::kOverwritten);
  for (size_t i = 0; i < parts.size(); ++i) {
    out.SetBlock(offsets[i], 0, parts[i].value());
  }
  return tape->MakeNode(
      [indices, offsets](Tape& t, const Matrix& gout) {
        for (size_t i = 0; i < indices.size(); ++i) {
          const int idx = indices[i];
          if (!t.needs_grad(idx)) continue;
          Matrix& g = t.grad(idx);
          for (int r = 0; r < g.rows(); ++r) {
            const double* src = gout.row_ptr(offsets[i] + r);
            double* dst = g.row_ptr(r);
            for (int c = 0; c < g.cols(); ++c) dst[c] += src[c];
          }
        }
      },
      ng);
}

Var GatherRows(const Var& a, const std::vector<int>& indices) {
  DMVI_CHECK(a.valid());
  Tape* tape = a.tape();
  const int ia = a.index();
  const Matrix& av = a.value();
  Matrix& out = tape->NewValue(static_cast<int>(indices.size()), av.cols(),
                                ValueInit::kOverwritten);
  for (size_t i = 0; i < indices.size(); ++i) {
    DMVI_CHECK_GE(indices[i], 0);
    DMVI_CHECK_LT(indices[i], av.rows());
    std::copy(av.row_ptr(indices[i]), av.row_ptr(indices[i]) + av.cols(),
              out.row_ptr(static_cast<int>(i)));
  }
  return tape->MakeNode(
      [ia, indices](Tape& t, const Matrix& gout) {
        if (!t.needs_grad(ia)) return;
        Matrix& ga = t.grad(ia);
        for (size_t i = 0; i < indices.size(); ++i) {
          double* dst = ga.row_ptr(indices[i]);
          const double* src = gout.row_ptr(static_cast<int>(i));
          for (int c = 0; c < gout.cols(); ++c) dst[c] += src[c];
        }
      },
      NeedsGrad(tape, a));
}

// ---- Broadcasts ----------------------------------------------------------------

namespace {

Var RowBroadcastOp(const Var& a, const Var& row, bool subtract) {
  Tape* tape = SameTape(a, row);
  DMVI_CHECK_EQ(row.rows(), 1);
  DMVI_CHECK_EQ(row.cols(), a.cols());
  const int ia = a.index(), ir = row.index();
  const double sign = subtract ? -1.0 : 1.0;
  const Matrix& av = a.value();
  Matrix& out = tape->NewValue(av.rows(), av.cols(), ValueInit::kOverwritten);
  const double* rv = row.value().data();
  for (int r = 0; r < out.rows(); ++r) {
    const double* src = av.row_ptr(r);
    double* p = out.row_ptr(r);
    for (int c = 0; c < out.cols(); ++c) p[c] = src[c] + sign * rv[c];
  }
  return tape->MakeNode(
      [ia, ir, sign](Tape& t, const Matrix& gout) {
        Accumulate(t, ia, gout);
        if (t.needs_grad(ir)) {
          Matrix& gr = t.grad(ir);
          DMVI_CHECK_EQ(gr.cols(), gout.cols());
          double* dst = gr.data();
          for (int r = 0; r < gout.rows(); ++r) {
            const double* src = gout.row_ptr(r);
            for (int c = 0; c < gout.cols(); ++c) dst[c] += sign * src[c];
          }
        }
      },
      NeedsGrad(tape, a) || NeedsGrad(tape, row));
}

}  // namespace

Var AddRowVector(const Var& a, const Var& row) {
  return RowBroadcastOp(a, row, /*subtract=*/false);
}

Var SubRowVector(const Var& a, const Var& row) {
  return RowBroadcastOp(a, row, /*subtract=*/true);
}

Var MulRowVector(const Var& a, const Var& row) {
  Tape* tape = SameTape(a, row);
  DMVI_CHECK_EQ(row.rows(), 1);
  DMVI_CHECK_EQ(row.cols(), a.cols());
  const int ia = a.index(), ir = row.index();
  const Matrix& av = a.value();
  Matrix& out = tape->NewValue(av.rows(), av.cols(), ValueInit::kOverwritten);
  const double* rv = row.value().data();
  for (int r = 0; r < out.rows(); ++r) {
    const double* src = av.row_ptr(r);
    double* p = out.row_ptr(r);
    for (int c = 0; c < out.cols(); ++c) p[c] = src[c] * rv[c];
  }
  return tape->MakeNode(
      [ia, ir](Tape& t, const Matrix& gout) {
        const Matrix& av = t.value(ia);
        const Matrix& rv = t.value(ir);
        if (t.needs_grad(ia)) {
          Matrix& ga = t.grad(ia);
          for (int r = 0; r < gout.rows(); ++r) {
            const double* src = gout.row_ptr(r);
            double* dst = ga.row_ptr(r);
            for (int c = 0; c < gout.cols(); ++c) dst[c] += src[c] * rv(0, c);
          }
        }
        if (t.needs_grad(ir)) {
          Matrix& gr = t.grad(ir);
          for (int r = 0; r < gout.rows(); ++r) {
            const double* src = gout.row_ptr(r);
            const double* arow = av.row_ptr(r);
            for (int c = 0; c < gout.cols(); ++c) gr(0, c) += src[c] * arow[c];
          }
        }
      },
      NeedsGrad(tape, a) || NeedsGrad(tape, row));
}

Var BroadcastScalar(const Var& a, int rows, int cols) {
  DMVI_CHECK(a.valid());
  DMVI_CHECK_EQ(a.rows(), 1);
  DMVI_CHECK_EQ(a.cols(), 1);
  Tape* tape = a.tape();
  const int ia = a.index();
  const double v = a.value()(0, 0);
  tape->NewValue(rows, cols, ValueInit::kOverwritten).Fill(v);
  return tape->MakeNode(
      [ia](Tape& t, const Matrix& gout) {
        if (t.needs_grad(ia)) t.grad(ia)(0, 0) += gout.Sum();
      },
      NeedsGrad(tape, a));
}

// ---- Reductions -------------------------------------------------------------------

Var Sum(const Var& a) {
  DMVI_CHECK(a.valid());
  Tape* tape = a.tape();
  const int ia = a.index();
  const double sum = a.value().Sum();
  tape->NewValue(1, 1, ValueInit::kOverwritten)(0, 0) = sum;
  return tape->MakeNode(
      [ia](Tape& t, const Matrix& gout) {
        if (!t.needs_grad(ia)) return;
        Matrix& ga = t.grad(ia);
        const double g = gout(0, 0);
        double* p = ga.data();
        for (int64_t i = 0; i < ga.size(); ++i) p[i] += g;
      },
      NeedsGrad(tape, a));
}

Var Mean(const Var& a) {
  DMVI_CHECK(a.valid());
  return Scale(Sum(a), 1.0 / static_cast<double>(a.value().size()));
}

Var RowSum(const Var& a) {
  DMVI_CHECK(a.valid());
  Tape* tape = a.tape();
  const int ia = a.index();
  const Matrix& av = a.value();
  Matrix& out = tape->NewValue(av.rows(), 1, ValueInit::kOverwritten);
  for (int r = 0; r < av.rows(); ++r) {
    const double* p = av.row_ptr(r);
    double acc = 0.0;
    for (int c = 0; c < av.cols(); ++c) acc += p[c];
    out(r, 0) = acc;
  }
  return tape->MakeNode(
      [ia](Tape& t, const Matrix& gout) {
        if (!t.needs_grad(ia)) return;
        Matrix& ga = t.grad(ia);
        for (int r = 0; r < ga.rows(); ++r) {
          double* dst = ga.row_ptr(r);
          const double g = gout(r, 0);
          for (int c = 0; c < ga.cols(); ++c) dst[c] += g;
        }
      },
      NeedsGrad(tape, a));
}

Var ColSum(const Var& a) {
  DMVI_CHECK(a.valid());
  Tape* tape = a.tape();
  const int ia = a.index();
  const Matrix& av = a.value();
  Matrix& out = tape->NewValue(1, av.cols(), ValueInit::kZeroed);
  double* sums = out.data();
  for (int r = 0; r < av.rows(); ++r) {
    const double* p = av.row_ptr(r);
    for (int c = 0; c < av.cols(); ++c) sums[c] += p[c];
  }
  return tape->MakeNode(
      [ia](Tape& t, const Matrix& gout) {
        if (!t.needs_grad(ia)) return;
        Matrix& ga = t.grad(ia);
        for (int r = 0; r < ga.rows(); ++r) {
          double* dst = ga.row_ptr(r);
          for (int c = 0; c < ga.cols(); ++c) dst[c] += gout(0, c);
        }
      },
      NeedsGrad(tape, a));
}

// ---- Softmax -----------------------------------------------------------------------

Var SoftmaxRows(const Var& a) {
  DMVI_CHECK(a.valid());
  return MaskedSoftmaxRows(
      a, a.tape()->Constant(Matrix(a.rows(), a.cols(), 1.0)));
}

Var MaskedSoftmaxRows(const Var& a, const Var& avail) {
  Tape* tape = SameTape(a, avail);
  CheckSameShape(a, avail);
  const int ia = a.index(), im = avail.index();
  const Matrix& av = a.value();
  const Matrix& mask = avail.value();
  Matrix& out = tape->NewValue(av.rows(), av.cols(), ValueInit::kZeroed);
  for (int r = 0; r < av.rows(); ++r) {
    const double* x = av.row_ptr(r);
    const double* m = mask.row_ptr(r);
    double* y = out.row_ptr(r);
    double maxv = -1e300;
    bool any = false;
    for (int c = 0; c < av.cols(); ++c) {
      if (m[c] != 0.0) {
        maxv = std::max(maxv, x[c]);
        any = true;
      }
    }
    if (!any) continue;  // Row stays all-zero.
    double denom = 0.0;
    for (int c = 0; c < av.cols(); ++c) {
      if (m[c] != 0.0) {
        y[c] = std::exp(x[c] - maxv);
        denom += y[c];
      }
    }
    for (int c = 0; c < av.cols(); ++c) y[c] /= denom;
  }
  const int iout = tape->num_nodes();
  return tape->MakeNode(
      [ia, im, iout](Tape& t, const Matrix& gout) {
        if (!t.needs_grad(ia)) return;
        const Matrix& y = t.value(iout);
        const Matrix& mask = t.value(im);
        Matrix& ga = t.grad(ia);
        // dL/dx_rc = y_rc * (g_rc - sum_k g_rk y_rk) on available entries.
        for (int r = 0; r < y.rows(); ++r) {
          const double* g = gout.row_ptr(r);
          const double* yr = y.row_ptr(r);
          const double* m = mask.row_ptr(r);
          double dot = 0.0;
          for (int c = 0; c < y.cols(); ++c) dot += g[c] * yr[c];
          double* dst = ga.row_ptr(r);
          for (int c = 0; c < y.cols(); ++c) {
            if (m[c] != 0.0) dst[c] += yr[c] * (g[c] - dot);
          }
        }
      },
      NeedsGrad(tape, a));
}

// ---- Losses ----------------------------------------------------------------------------

Var WeightedMseLoss(const Var& pred, const Matrix& target, const Matrix& weight) {
  DMVI_CHECK(pred.valid());
  DMVI_CHECK_EQ(pred.rows(), target.rows());
  DMVI_CHECK_EQ(pred.cols(), target.cols());
  DMVI_CHECK_EQ(pred.rows(), weight.rows());
  DMVI_CHECK_EQ(pred.cols(), weight.cols());
  Tape* tape = pred.tape();
  const int ip = pred.index();
  const Matrix& pv = pred.value();
  double wsum = std::max(weight.Sum(), 1.0);
  double loss = 0.0;
  for (int r = 0; r < pv.rows(); ++r) {
    for (int c = 0; c < pv.cols(); ++c) {
      const double d = pv(r, c) - target(r, c);
      loss += weight(r, c) * d * d;
    }
  }
  tape->NewValue(1, 1, ValueInit::kOverwritten)(0, 0) = loss / wsum;
  return tape->MakeNode(
      [ip, target, weight, wsum](Tape& t, const Matrix& gout) {
        if (!t.needs_grad(ip)) return;
        const Matrix& pv = t.value(ip);
        Matrix& gp = t.grad(ip);
        const double g = gout(0, 0);
        for (int r = 0; r < pv.rows(); ++r) {
          for (int c = 0; c < pv.cols(); ++c) {
            gp(r, c) +=
                g * 2.0 * weight(r, c) * (pv(r, c) - target(r, c)) / wsum;
          }
        }
      },
      NeedsGrad(tape, pred));
}

Var WeightedMaeLoss(const Var& pred, const Matrix& target, const Matrix& weight) {
  DMVI_CHECK(pred.valid());
  DMVI_CHECK_EQ(pred.rows(), target.rows());
  DMVI_CHECK_EQ(pred.cols(), target.cols());
  Tape* tape = pred.tape();
  const int ip = pred.index();
  const Matrix& pv = pred.value();
  double wsum = std::max(weight.Sum(), 1.0);
  double loss = 0.0;
  for (int r = 0; r < pv.rows(); ++r) {
    for (int c = 0; c < pv.cols(); ++c) {
      loss += weight(r, c) * std::fabs(pv(r, c) - target(r, c));
    }
  }
  tape->NewValue(1, 1, ValueInit::kOverwritten)(0, 0) = loss / wsum;
  return tape->MakeNode(
      [ip, target, weight, wsum](Tape& t, const Matrix& gout) {
        if (!t.needs_grad(ip)) return;
        const Matrix& pv = t.value(ip);
        Matrix& gp = t.grad(ip);
        const double g = gout(0, 0);
        for (int r = 0; r < pv.rows(); ++r) {
          for (int c = 0; c < pv.cols(); ++c) {
            const double d = pv(r, c) - target(r, c);
            const double sign = d > 0.0 ? 1.0 : (d < 0.0 ? -1.0 : 0.0);
            gp(r, c) += g * weight(r, c) * sign / wsum;
          }
        }
      },
      NeedsGrad(tape, pred));
}

// ---- Testing utilities --------------------------------------------------------------------

std::vector<Matrix> NumericalGradient(
    const std::function<Var(Tape&, const std::vector<Var>&)>& f,
    const std::vector<Matrix>& inputs, double eps) {
  std::vector<Matrix> grads;
  auto eval = [&](const std::vector<Matrix>& points) {
    Tape tape;
    std::vector<Var> vars;
    vars.reserve(points.size());
    for (const Matrix& m : points) vars.push_back(tape.Leaf(m));
    Var loss = f(tape, vars);
    return loss.scalar();
  };
  for (size_t i = 0; i < inputs.size(); ++i) {
    Matrix g(inputs[i].rows(), inputs[i].cols());
    for (int r = 0; r < g.rows(); ++r) {
      for (int c = 0; c < g.cols(); ++c) {
        std::vector<Matrix> plus = inputs;
        std::vector<Matrix> minus = inputs;
        plus[i](r, c) += eps;
        minus[i](r, c) -= eps;
        g(r, c) = (eval(plus) - eval(minus)) / (2.0 * eps);
      }
    }
    grads.push_back(std::move(g));
  }
  return grads;
}

std::vector<Matrix> AnalyticGradient(
    const std::function<Var(Tape&, const std::vector<Var>&)>& f,
    const std::vector<Matrix>& inputs) {
  Tape tape;
  std::vector<Var> vars;
  vars.reserve(inputs.size());
  for (const Matrix& m : inputs) vars.push_back(tape.Leaf(m));
  Var loss = f(tape, vars);
  tape.Backward(loss);
  std::vector<Matrix> grads;
  grads.reserve(vars.size());
  for (const Var& v : vars) grads.push_back(v.grad());
  return grads;
}

}  // namespace ad
}  // namespace deepmvi
