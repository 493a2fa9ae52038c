#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "autodiff/ops.h"
#include "autodiff/tape.h"
#include "testing/test_util.h"

namespace deepmvi {
namespace ad {
namespace {

using testutil::ExpectGradientsMatch;
using testutil::ExpectSameBits;

Matrix TestInput(int rows, int cols, uint64_t seed) {
  return testutil::RandomMatrix(rows, cols, seed, 0.7);
}

TEST(TapeTest, LeafValueAndScalar) {
  Tape tape;
  Var v = tape.Leaf({{3.5}});
  EXPECT_EQ(v.scalar(), 3.5);
  EXPECT_EQ(tape.num_nodes(), 1);
}

TEST(TapeTest, ConstantsGetNoGradient) {
  Tape tape;
  Var c = tape.Constant({{2.0, 2.0}});
  Var x = tape.Leaf({{1.0, 3.0}});
  Var loss = Sum(Mul(c, x));
  tape.Backward(loss);
  // Gradient w.r.t. x is the constant; constant's grad stays zero.
  EXPECT_EQ(x.grad()(0, 0), 2.0);
  EXPECT_EQ(c.grad()(0, 0), 0.0);
}

TEST(TapeTest, GradientAccumulatesAcrossUses) {
  Tape tape;
  Var x = tape.Leaf({{2.0}});
  Var y = Add(x, x);  // dy/dx = 2
  tape.Backward(Sum(y));
  EXPECT_EQ(x.grad()(0, 0), 2.0);
}

TEST(TapeTest, ResetInvalidatesNodes) {
  Tape tape;
  tape.Leaf({{1.0}});
  EXPECT_EQ(tape.num_nodes(), 1);
  tape.Reset();
  EXPECT_EQ(tape.num_nodes(), 0);
}

/// The values and gradients of one small attention-shaped graph, and the
/// node buffers it wrote.
struct ReuseGraph {
  Matrix out;
  Matrix loss;
  Matrix weight_grad;
  Matrix input_grad;
  std::vector<const double*> buffers;
};

/// Builds and differentiates a graph over ops whose values depend on
/// starting from zeroed storage: GEMMs accumulate into their output,
/// ColSum sums into it, and the masked softmax leaves unavailable entries
/// and an all-masked row untouched. `input` has n rows and `weight` is a
/// keyed (parameter) leaf.
ReuseGraph RunReuseGraph(Tape& tape, const Matrix& weight,
                         const Matrix& input) {
  const int n = input.rows();
  Matrix mask(n, n, 1.0);
  for (int c = 0; c < n; ++c) mask(0, c) = 0.0;  // Row 0: nothing available.
  mask(1, n - 1) = 0.0;
  Var w = tape.LeafFor(&weight, weight);
  Var x = tape.Leaf(input);
  Var h = MatMul(x, w);
  Var scores = Scale(MatMulTranspose(h, x), 0.5);
  Var attn = MaskedSoftmaxRows(scores, tape.Constant(mask));
  Var ctx = MatMul(attn, h);
  Var col = ColSum(ctx);
  Var out = Reshape(AddRowVector(Tanh(ctx), col), 1, n * input.cols());
  Var loss = Sum(Square(out));
  tape.Backward(loss);
  ReuseGraph result;
  result.out = out.value();
  result.loss = loss.value();
  result.weight_grad = *tape.AllocatedGrad(w.index());
  result.input_grad = x.grad();
  for (const Var& v : {h, scores, attn, ctx, col, out, loss}) {
    result.buffers.push_back(v.value().data());
  }
  result.buffers.push_back(tape.AllocatedGrad(w.index())->data());
  return result;
}

TEST(TapeTest, ResetGraphReusesStorageAndMatchesAFreshTape) {
  const Matrix weight = TestInput(3, 3, 40);
  Tape reused;
  const ReuseGraph first = RunReuseGraph(reused, weight, TestInput(5, 3, 41));
  reused.Reset();
  // Different values and one fewer row: every node's shape shrinks or
  // stays, so each fits the buffer its index held in the first graph.
  const Matrix second_input = TestInput(4, 3, 42);
  const ReuseGraph second = RunReuseGraph(reused, weight, second_input);
  Tape fresh;
  const ReuseGraph expected = RunReuseGraph(fresh, weight, second_input);

  ExpectSameBits(second.out, expected.out, "output");
  ExpectSameBits(second.loss, expected.loss, "loss");
  ExpectSameBits(second.weight_grad, expected.weight_grad, "weight gradient");
  ExpectSameBits(second.input_grad, expected.input_grad, "input gradient");
  ASSERT_EQ(second.buffers.size(), first.buffers.size());
  for (size_t i = 0; i < first.buffers.size(); ++i) {
    EXPECT_EQ(second.buffers[i], first.buffers[i]) << "buffer " << i;
  }
}

TEST(TapeTest, KeyedLeafReadsTheMatrixInPlace) {
  const Matrix weight = TestInput(3, 4, 7);
  Tape tape;
  Var w = tape.LeafFor(&weight, weight);
  EXPECT_EQ(&w.value(), &weight);
  // The same key returns the same node, still reading the matrix itself.
  Var again = tape.LeafFor(&weight, weight);
  EXPECT_EQ(again.index(), w.index());
  EXPECT_EQ(&again.value(), &weight);
  EXPECT_EQ(tape.LeafIndexFor(&weight), w.index());
}

TEST(TapeTest, KeyedLeafGradientsEqualCopiedLeafGradients) {
  // The same graph over an in-place keyed leaf and over a copied Leaf:
  // every gradient, the keyed leaf's own included, must be bit-equal.
  const Matrix weight = TestInput(4, 3, 8);
  const Matrix input = TestInput(5, 4, 9);
  auto run = [&](bool keyed, Matrix* weight_grad, Matrix* input_grad) {
    Tape tape;
    Var w = keyed ? tape.LeafFor(&weight, weight) : tape.Leaf(weight);
    Var x = tape.Leaf(input);
    // A shared parameter materializes twice; the copied graph reuses w.
    Var w_again = keyed ? tape.LeafFor(&weight, weight) : w;
    Var loss = Sum(Square(Add(Tanh(MatMul(x, w)), MatMul(x, w_again))));
    tape.Backward(loss);
    *weight_grad = w.grad();
    *input_grad = x.grad();
  };
  Matrix keyed_w, keyed_x, copied_w, copied_x;
  run(true, &keyed_w, &keyed_x);
  run(false, &copied_w, &copied_x);
  testutil::ExpectMatricesBitIdentical(keyed_w, copied_w, "weight gradient");
  testutil::ExpectMatricesBitIdentical(keyed_x, copied_x, "input gradient");
  // The shared zero-gradient cache reads the keyed leaf's shape in place.
  Tape idle;
  Var unused = idle.LeafFor(&weight, weight);
  EXPECT_EQ(unused.grad().rows(), 4);
  EXPECT_EQ(unused.grad().cols(), 3);
}

TEST(GradCheck, Add) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) { return Sum(Add(v[0], v[1])); },
      {TestInput(3, 4, 1), TestInput(3, 4, 2)});
}

TEST(GradCheck, SubMulChain) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        return Sum(Mul(Sub(v[0], v[1]), v[0]));
      },
      {TestInput(2, 3, 3), TestInput(2, 3, 4)});
}

TEST(GradCheck, Div) {
  Rng rng(5);
  Matrix denom = Matrix::RandomUniform(2, 3, rng, 1.0, 2.0);
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) { return Sum(Div(v[0], v[1])); },
      {TestInput(2, 3, 6), denom});
}

TEST(GradCheck, ScaleAddScalarNeg) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        return Sum(Neg(AddScalar(Scale(v[0], 2.5), -1.0)));
      },
      {TestInput(3, 3, 7)});
}

TEST(GradCheck, MulConst) {
  Matrix mask = {{1, 0, 1}, {0, 1, 0}};
  ExpectGradientsMatch(
      [mask](Tape&, const std::vector<Var>& v) {
        return Sum(MulConst(v[0], mask));
      },
      {TestInput(2, 3, 8)});
}

TEST(GradCheck, Relu) {
  // Shift away from 0 to avoid the kink in finite differences.
  Rng rng(9);
  Matrix x = Matrix::RandomGaussian(3, 3, rng);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      if (std::fabs(x(r, c)) < 0.05) x(r, c) = 0.1;
    }
  }
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) { return Sum(Relu(v[0])); }, {x});
}

TEST(GradCheck, TanhSigmoidExp) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        return Sum(Tanh(Sigmoid(Exp(v[0]))));
      },
      {TestInput(2, 4, 10)});
}

TEST(GradCheck, LogSquareSqrt) {
  Rng rng(11);
  Matrix x = Matrix::RandomUniform(2, 3, rng, 0.5, 2.0);
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        return Sum(Log(Sqrt(Square(v[0]), 1e-3)));
      },
      {x});
}

TEST(GradCheck, AbsAwayFromZero) {
  Matrix x = {{0.5, -0.7}, {1.2, -2.0}};
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) { return Sum(Abs(v[0])); }, {x});
}

TEST(GradCheck, MatMul) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        return Sum(MatMul(v[0], v[1]));
      },
      {TestInput(3, 4, 12), TestInput(4, 2, 13)});
}

TEST(GradCheck, MatMulChainWithNonlinearity) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        return Sum(Tanh(MatMul(Relu(MatMul(v[0], v[1])), v[2])));
      },
      {TestInput(2, 3, 14), TestInput(3, 4, 15), TestInput(4, 2, 16)}, 1e-5);
}

TEST(GradCheck, MatMulTranspose) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        return Sum(Tanh(MatMulTranspose(v[0], v[1])));
      },
      {TestInput(3, 4, 18), TestInput(5, 4, 19)});
}

TEST(OpsTest, MatMulTransposeEqualsMatMulOfTransposeBitForBit) {
  const Matrix a_value = TestInput(6, 5, 20);
  const Matrix b_value = TestInput(7, 5, 21);
  const Matrix weights = TestInput(6, 7, 22);
  auto run = [&](bool fused, Matrix* value, Matrix* a_grad, Matrix* b_grad) {
    Tape tape;
    Var a = tape.Leaf(a_value);
    Var b = tape.Leaf(b_value);
    Var product = fused ? MatMulTranspose(a, b) : MatMul(a, Transpose(b));
    tape.Backward(Sum(Mul(product, tape.Constant(weights))));
    *value = product.value();
    *a_grad = a.grad();
    *b_grad = b.grad();
  };
  Matrix fused_value, fused_a, fused_b, value, a_grad, b_grad;
  run(true, &fused_value, &fused_a, &fused_b);
  run(false, &value, &a_grad, &b_grad);
  ExpectSameBits(fused_value, value, "value");
  ExpectSameBits(fused_a, a_grad, "gradient of a");
  ExpectSameBits(fused_b, b_grad, "gradient of b");
}

TEST(GradCheck, Transpose) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        return Sum(MatMul(Transpose(v[0]), v[0]));
      },
      {TestInput(3, 2, 17)});
}

TEST(GradCheck, ReshapeSliceConcat) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        Var reshaped = Reshape(v[0], 2, 6);
        Var left = SliceCols(reshaped, 0, 3);
        Var right = SliceCols(reshaped, 3, 3);
        Var rows = ConcatRows({left, right});
        Var top = SliceRows(rows, 0, 2);
        return Sum(Mul(top, top));
      },
      {TestInput(3, 4, 18)});
}

TEST(GradCheck, ConcatColsGradientSplit) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        return Sum(Square(ConcatCols({v[0], v[1]})));
      },
      {TestInput(2, 2, 19), TestInput(2, 3, 20)});
}

TEST(GradCheck, GatherRowsWithDuplicates) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        // Row 1 appears twice: gradient must accumulate.
        return Sum(Square(GatherRows(v[0], {1, 0, 1})));
      },
      {TestInput(3, 4, 21)});
}

TEST(GradCheck, RowBroadcasts) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        Var a = AddRowVector(v[0], v[1]);
        Var b = SubRowVector(a, v[2]);
        Var c = MulRowVector(b, v[1]);
        return Sum(Square(c));
      },
      {TestInput(3, 4, 22), TestInput(1, 4, 23), TestInput(1, 4, 24)});
}

TEST(GradCheck, BroadcastScalar) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        Var s = Mean(v[0]);
        return Sum(Mul(BroadcastScalar(s, 2, 3), v[1]));
      },
      {TestInput(2, 2, 25), TestInput(2, 3, 26)});
}

TEST(GradCheck, Reductions) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        Var rs = RowSum(Square(v[0]));      // n x 1
        Var cs = ColSum(Square(v[0]));      // 1 x m
        return Add(Sum(rs), Add(Sum(cs), Mean(v[0])));
      },
      {TestInput(3, 4, 27)});
}

TEST(GradCheck, SoftmaxRows) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        Var w = SoftmaxRows(v[0]);
        // Weighted sum so the gradient is non-trivial.
        return Sum(Mul(w, v[1]));
      },
      {TestInput(3, 5, 28), TestInput(3, 5, 29)});
}

TEST(GradCheck, MaskedSoftmaxRows) {
  Matrix avail = {{1, 0, 1, 1}, {0, 1, 1, 0}, {1, 1, 1, 1}};
  ExpectGradientsMatch(
      [avail](Tape& tape, const std::vector<Var>& v) {
        Var w = MaskedSoftmaxRows(v[0], tape.Constant(avail));
        return Sum(Mul(w, v[1]));
      },
      {TestInput(3, 4, 30), TestInput(3, 4, 31)});
}

TEST(MaskedSoftmaxTest, UnavailableGetZeroWeight) {
  Tape tape;
  Var scores = tape.Leaf({{1.0, 2.0, 3.0}});
  Var avail = tape.Constant({{1, 0, 1}});
  Var w = MaskedSoftmaxRows(scores, avail);
  EXPECT_EQ(w.value()(0, 1), 0.0);
  EXPECT_NEAR(w.value()(0, 0) + w.value()(0, 2), 1.0, 1e-12);
}

TEST(MaskedSoftmaxTest, AllMaskedRowIsZero) {
  Tape tape;
  Var scores = tape.Leaf({{1.0, 2.0}});
  Var avail = tape.Constant({{0, 0}});
  Var w = MaskedSoftmaxRows(scores, avail);
  EXPECT_EQ(w.value()(0, 0), 0.0);
  EXPECT_EQ(w.value()(0, 1), 0.0);
  // Backward through an all-masked row must not blow up.
  tape.Backward(Sum(w));
  EXPECT_TRUE(scores.grad().AllFinite());
}

TEST(GradCheck, WeightedMseLoss) {
  Matrix target = TestInput(3, 4, 32);
  Matrix weight = {{1, 0, 1, 1}, {1, 1, 0, 0}, {0, 0, 1, 1}};
  ExpectGradientsMatch(
      [target, weight](Tape&, const std::vector<Var>& v) {
        return WeightedMseLoss(Tanh(v[0]), target, weight);
      },
      {TestInput(3, 4, 33)});
}

TEST(GradCheck, WeightedMaeLoss) {
  Matrix target = {{0.0, 0.0}, {0.0, 0.0}};
  Matrix weight = {{1, 1}, {1, 0}};
  // Keep predictions away from the kink at pred == target.
  Matrix pred = {{0.5, -0.8}, {1.5, 0.3}};
  ExpectGradientsMatch(
      [target, weight](Tape&, const std::vector<Var>& v) {
        return WeightedMaeLoss(v[0], target, weight);
      },
      {pred});
}

TEST(LossTest, MseValueCorrect) {
  Tape tape;
  Var pred = tape.Leaf({{1.0, 2.0}});
  Matrix target = {{0.0, 0.0}};
  Matrix weight = {{1.0, 1.0}};
  Var loss = WeightedMseLoss(pred, target, weight);
  EXPECT_NEAR(loss.scalar(), (1.0 + 4.0) / 2.0, 1e-12);
}

TEST(LossTest, MaeIgnoresZeroWeight) {
  Tape tape;
  Var pred = tape.Leaf({{1.0, 100.0}});
  Matrix target = {{0.0, 0.0}};
  Matrix weight = {{1.0, 0.0}};
  Var loss = WeightedMaeLoss(pred, target, weight);
  EXPECT_NEAR(loss.scalar(), 1.0, 1e-12);
}

// ---- Bit identity of the rewritten ops --------------------------------------

/// The value of a node and the gradients of its inputs.
struct OpResult {
  Matrix value;
  std::vector<Matrix> grads;
};

/// x * w + b through the fused node or through MatMul then AddRowVector,
/// differentiated through a weighted tanh so every gradient is non-trivial.
OpResult RunAffine(Tape& tape, bool fused, const Matrix& x_value,
                   const Matrix& w_value, const Matrix& b_value) {
  Var x = tape.Leaf(x_value);
  Var w = tape.LeafFor(&w_value, w_value);
  Var b = tape.LeafFor(&b_value, b_value);
  Var y = fused ? Affine(x, w, b) : AddRowVector(MatMul(x, w), b);
  const Matrix weights = TestInput(y.rows(), y.cols(), 50);
  tape.Backward(Sum(Mul(Tanh(y), tape.Constant(weights))));
  return {y.value(), {x.grad(), w.grad(), b.grad()}};
}

void ExpectSameResult(const OpResult& actual, const OpResult& expected,
                      const std::string& what) {
  ExpectSameBits(actual.value, expected.value, what + " value");
  ASSERT_EQ(actual.grads.size(), expected.grads.size()) << what;
  for (size_t i = 0; i < actual.grads.size(); ++i) {
    ExpectSameBits(actual.grads[i], expected.grads[i],
                   what + " gradient " + std::to_string(i));
  }
}

TEST(OpsTest, AffineEqualsAddRowVectorOfMatMulBitForBit) {
  const Matrix x = TestInput(7, 6, 51);
  const Matrix w = TestInput(6, 5, 52);
  const Matrix b = TestInput(1, 5, 53);
  Tape unfused_tape;
  const OpResult expected = RunAffine(unfused_tape, false, x, w, b);
  Tape fresh;
  ExpectSameResult(RunAffine(fresh, true, x, w, b), expected, "fresh tape");
  // A larger previous graph leaves stale values in every slot the fused
  // node and its gradients take.
  Tape reused;
  const Matrix big_w = TestInput(9, 8, 55);
  const Matrix big_b = TestInput(1, 8, 56);
  RunAffine(reused, true, TestInput(11, 9, 54), big_w, big_b);
  reused.Reset();
  ExpectSameResult(RunAffine(reused, true, x, w, b), expected, "reset tape");
}

// ---- Weight transposes kept by the tape ------------------------------------

/// The input and weight gradients of a two-layer graph: Affine(x, w, b),
/// Affine again through the same w and b, then MatMul by w2, so every d/dx
/// and d/dh multiplies by a weight's transpose and w's twice. `keyed`
/// materializes the weights as keyed leaves, whose backward reads the
/// transposes the tape keeps; otherwise as copied Leafs, packed per call.
std::vector<Matrix> RunWeightGraph(Tape& tape, bool keyed, const Matrix& x,
                                   const Matrix& w, const Matrix& b,
                                   const Matrix& w2) {
  auto weight = [&](const Matrix& value) {
    return keyed ? tape.LeafFor(&value, value) : tape.Leaf(value);
  };
  Var xv = tape.Leaf(x);
  Var wv = weight(w);
  Var bv = weight(b);
  Var w2v = weight(w2);
  Var h = Tanh(Affine(xv, wv, bv));
  Var y = MatMul(Tanh(Affine(h, wv, bv)), w2v);
  tape.Backward(Sum(Square(y)));
  return {xv.grad(), wv.grad(), bv.grad(), w2v.grad()};
}

void ExpectSameGradients(const std::vector<Matrix>& actual,
                         const std::vector<Matrix>& expected,
                         const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < actual.size(); ++i) {
    ExpectSameBits(actual[i], expected[i],
                   what + " gradient " + std::to_string(i));
  }
}

struct WeightGraphInputs {
  Matrix x = TestInput(5, 6, 60);
  Matrix w = TestInput(6, 6, 61);
  Matrix b = TestInput(1, 6, 62);
  Matrix w2 = TestInput(6, 3, 63);
};

TEST(TapeTest, KeptWeightTransposeGivesTheBitsOfAPerCallPack) {
  const WeightGraphInputs in;
  Tape copied;
  const std::vector<Matrix> expected =
      RunWeightGraph(copied, false, in.x, in.w, in.b, in.w2);
  Tape keyed;
  ExpectSameGradients(RunWeightGraph(keyed, true, in.x, in.w, in.b, in.w2),
                      expected, "keyed leaves");
}

TEST(TapeTest, PlainResetDropsTransposesOfWeightsChangedInPlace) {
  WeightGraphInputs in;
  Tape reused;
  RunWeightGraph(reused, true, in.x, in.w, in.b, in.w2);
  // An optimizer step: every weight changes in place, at the same address
  // and shape, between the two graphs.
  for (Matrix* m : {&in.w, &in.b, &in.w2}) {
    for (int64_t i = 0; i < m->size(); ++i) m->data()[i] -= 0.03 * (i % 7);
  }
  reused.Reset();
  const Matrix x2 = TestInput(4, 6, 64);
  const std::vector<Matrix> got =
      RunWeightGraph(reused, true, x2, in.w, in.b, in.w2);
  Tape fresh;
  ExpectSameGradients(got, RunWeightGraph(fresh, true, x2, in.w, in.b, in.w2),
                      "after an in-place step and a plain reset");
}

TEST(TapeTest, UnchangedWeightsResetKeepsTransposesAndMatchesAFreshTape) {
  const WeightGraphInputs in;
  Tape reused;
  RunWeightGraph(reused, true, in.x, in.w, in.b, in.w2);
  reused.Reset(Tape::Weights::kUnchanged);
  const Matrix x2 = TestInput(4, 6, 64);
  const std::vector<Matrix> got =
      RunWeightGraph(reused, true, x2, in.w, in.b, in.w2);
  Tape fresh;
  ExpectSameGradients(got, RunWeightGraph(fresh, true, x2, in.w, in.b, in.w2),
                      "second graph on unchanged weights");
}

TEST(TapeTest, LeafTransposeIsPackedOnceUntilTheWeightsMayChange) {
  Matrix w = TestInput(3, 4, 65);
  Tape tape;
  EXPECT_EQ(tape.LeafTranspose(tape.Leaf(w).index()), nullptr);
  const double* packed = tape.LeafTranspose(tape.LeafFor(&w, w).index());
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) EXPECT_EQ(packed[c * 3 + r], w(r, c));
  }
  // Reset(kUnchanged) keeps the pack without reading the value again, so
  // a change it was promised not to see stays unseen; a plain Reset
  // repacks, into the same storage.
  const double before = w(0, 1);
  w(0, 1) = before + 1.0;
  tape.Reset(Tape::Weights::kUnchanged);
  const double* kept = tape.LeafTranspose(tape.LeafFor(&w, w).index());
  EXPECT_EQ(kept, packed);
  EXPECT_EQ(kept[3], before);
  tape.Reset();
  const double* repacked = tape.LeafTranspose(tape.LeafFor(&w, w).index());
  EXPECT_EQ(repacked, packed);
  EXPECT_EQ(repacked[3], before + 1.0);
}

TEST(GradCheck, Affine) {
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        return Sum(Tanh(Affine(v[0], v[1], v[2])));
      },
      {TestInput(4, 3, 57), TestInput(3, 5, 58), TestInput(1, 5, 59)});
}

TEST(OpsTest, UnaryOpsMatchTheirScalarExpressions) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> inputs = {nan, inf, -inf, 0.0, -0.0,
                                      0.5, -1.5, 2.0, 1e-300, -800.0};
  const int n = static_cast<int>(inputs.size());
  Matrix x_value = Matrix::RowVector(inputs);
  Matrix gout(1, n);
  for (int i = 0; i < n; ++i) gout(0, i) = 0.25 * (i + 1) * (i % 2 ? -1 : 1);

  struct Case {
    const char* name;
    Var (*op)(const Var&);
    double (*value)(double);
    double (*derivative)(double);
  };
  const Case cases[] = {
      {"Relu", &Relu, [](double x) { return x > 0.0 ? x : 0.0; },
       [](double x) { return x > 0.0 ? 1.0 : 0.0; }},
      {"Tanh", &Tanh, [](double x) { return std::tanh(x); },
       [](double x) { return 1.0 - std::tanh(x) * std::tanh(x); }},
      {"Sigmoid", &Sigmoid, [](double x) { return 1.0 / (1.0 + std::exp(-x)); },
       [](double x) {
         const double s = 1.0 / (1.0 + std::exp(-x));
         return s * (1.0 - s);
       }},
      {"Exp", &Exp, [](double x) { return std::exp(x); },
       [](double x) { return std::exp(x); }},
      {"Log", &Log, [](double x) { return std::log(x); },
       [](double x) { return 1.0 / x; }},
      {"Square", &Square, [](double x) { return x * x; },
       [](double x) { return 2.0 * x; }},
      {"Abs", &Abs, [](double x) { return std::fabs(x); },
       [](double x) { return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0); }},
  };
  for (const Case& c : cases) {
    Tape tape;
    Var x = tape.Leaf(x_value);
    Var y = c.op(x);
    // Mul's backward hands y exactly gout: 0 + 1 * g == g for finite g.
    tape.Backward(Sum(Mul(y, tape.Constant(gout))));
    Matrix value(1, n), grad(1, n);
    for (int i = 0; i < n; ++i) {
      value(0, i) = c.value(inputs[i]);
      grad(0, i) = 0.0 + gout(0, i) * c.derivative(inputs[i]);
    }
    ExpectSameBits(y.value(), value, std::string(c.name) + " value");
    ExpectSameBits(x.grad(), grad, std::string(c.name) + " gradient");
  }
}

/// Every op once, each writing a node of its own; `in` holds three 4 x 3
/// inputs. Returns every node's value and the inputs' gradients.
std::vector<Matrix> RunEveryOp(Tape& tape, const std::vector<Matrix>& in) {
  Var a = tape.Leaf(in[0]);
  Var b = tape.Leaf(in[1]);
  Var w = tape.Leaf(in[2].Block(0, 0, 3, 3));
  Var row = SliceRows(b, 0, 1);
  Matrix mask(4, 4, 1.0);
  mask(0, 1) = 0.0;
  for (int c = 0; c < 4; ++c) mask(2, c) = 0.0;  // Row 2: nothing available.
  Matrix target = in[2].Block(0, 0, 4, 1);
  Matrix weight(4, 1, 1.0);
  weight(1, 0) = 0.0;
  const std::vector<Var> nodes = {
      Add(a, b), Sub(a, b), Mul(a, b), Div(a, AddScalar(Abs(b), 0.5)),
      Neg(a), Scale(a, 1.5), MulConst(a, in[2]), Relu(a), Tanh(a),
      Sigmoid(a), Exp(a), Log(AddScalar(Square(b), 0.1)), Sqrt(Abs(a), 0.01),
      MatMul(a, w), Affine(a, w, row), MatMulTranspose(a, b),
      Transpose(a), Reshape(a, 2, 6), SliceRows(a, 1, 2), SliceCols(a, 1, 2),
      ConcatCols({a, b}), ConcatRows({a, b}), GatherRows(a, {3, 0, 3}),
      AddRowVector(a, row), SubRowVector(a, row), MulRowVector(a, row),
      BroadcastScalar(Sum(b), 2, 3), Mean(a), RowSum(a), ColSum(a),
      SoftmaxRows(a),
      MaskedSoftmaxRows(MatMulTranspose(a, b), tape.Constant(mask))};
  std::vector<Var> sums;
  for (const Var& node : nodes) sums.push_back(Sum(Square(node)));
  sums.push_back(WeightedMseLoss(SliceCols(a, 0, 1), target, weight));
  sums.push_back(WeightedMaeLoss(SliceCols(b, 2, 1), target, weight));
  Var loss = sums[0];
  for (size_t i = 1; i < sums.size(); ++i) loss = Add(loss, sums[i]);
  tape.Backward(loss);
  std::vector<Matrix> out;
  for (const Var& node : nodes) out.push_back(node.value());
  for (const Var& s : sums) out.push_back(s.value());
  out.push_back(a.grad());
  out.push_back(b.grad());
  out.push_back(w.grad());
  return out;
}

TEST(TapeTest, OpsGiveTheSameBitsOnAResetTapeWithStaleValues) {
  const std::vector<Matrix> inputs = {TestInput(4, 3, 60), TestInput(4, 3, 61),
                                      TestInput(4, 3, 62)};
  // The previous graph leaves 16 x 16 non-zero values and gradients in
  // more slots than RunEveryOp takes, and no node of it needs more: any
  // element an op leaves unwritten keeps a stale value.
  Tape reused;
  Var stale = reused.Leaf(Matrix(16, 16, 1.0));
  for (int i = 0; i < 400; ++i) stale = AddScalar(stale, 0.5);
  reused.Backward(Sum(stale));
  reused.Reset();
  const std::vector<Matrix> actual = RunEveryOp(reused, inputs);
  Tape fresh;
  const std::vector<Matrix> expected = RunEveryOp(fresh, inputs);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ExpectSameBits(actual[i], expected[i], "result " + std::to_string(i));
  }
  EXPECT_LT(fresh.num_nodes(), 400);
}

TEST(OpsTest, SecondGemmContributionEqualsTemporaryThenAdd) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Matrix x_value = TestInput(5, 4, 63);
  x_value(0, 0) = 0.0;
  x_value(1, 2) = -0.0;
  const Matrix w1_value = TestInput(4, 3, 64);
  Matrix w2_value = TestInput(4, 3, 65);
  w2_value(3, 1) = -0.0;
  // The products' gradients are these weights: NaN, +-Inf and zeros
  // (a gradient is summed from +0.0, so -0.0 arrives as +0.0).
  Matrix c1 = TestInput(5, 3, 66);
  c1(0, 0) = nan;
  c1(2, 1) = inf;
  c1(4, 2) = -0.0;
  Matrix c2 = TestInput(5, 3, 67);
  c2(1, 0) = -inf;
  c2(3, 2) = 0.0;
  Tape tape;
  Var x = tape.Leaf(x_value);
  Var w1 = tape.Leaf(w1_value);
  Var w2 = tape.Leaf(w2_value);
  Var p1 = MatMul(x, w1);
  Var p2 = MatMul(x, w2);
  tape.Backward(Add(Sum(Mul(p1, tape.Constant(c1))),
                    Sum(Mul(p2, tape.Constant(c2)))));
  // Backward reaches p2 first: its product fills x's untouched gradient,
  // and p1's joins it as a temporary added in.
  const Matrix g1 = p1.grad();
  const Matrix g2 = p2.grad();
  Matrix x_grad(5, 4);
  x_grad += g2.MatMulTranspose(w2_value);
  x_grad += g1.MatMulTranspose(w1_value);
  Matrix w1_grad(4, 3);
  w1_grad += x_value.TransposeMatMul(g1);
  Matrix w2_grad(4, 3);
  w2_grad += x_value.TransposeMatMul(g2);
  ExpectSameBits(x.grad(), x_grad, "gradient of x");
  ExpectSameBits(w1.grad(), w1_grad, "gradient of w1");
  ExpectSameBits(w2.grad(), w2_grad, "gradient of w2");
  EXPECT_TRUE(std::isnan(x.grad()(0, 0)));
}

TEST(OpsTest, InPlaceElementwiseBackwardEqualsTemporaryThenAdd) {
  const Matrix x_value = TestInput(3, 4, 68);
  Rng rng(69);
  const Matrix y_value = Matrix::RandomUniform(3, 4, rng, 0.5, 2.0);
  const std::vector<Matrix> c = {TestInput(3, 4, 70), TestInput(3, 4, 71),
                                 TestInput(3, 4, 72)};
  Tape tape;
  Var x = tape.Leaf(x_value);
  Var y = tape.Leaf(y_value);
  // Backward runs the last-created node first, so the first Div writes
  // into gradients that the Mul and the second Div already touched.
  Var first_div = Div(x, y);
  Var product = Mul(x, y);
  Var second_div = Div(x, y);
  Var loss = Sum(Mul(first_div, tape.Constant(c[0])));
  loss = Add(loss, Sum(Mul(product, tape.Constant(c[1]))));
  loss = Add(loss, Sum(Mul(second_div, tape.Constant(c[2]))));
  tape.Backward(loss);
  // Each contribution as the ops formed it before they added in place: a
  // temporary Matrix, added into the gradient.
  auto div_grad_of_y = [&](const Matrix& g) {
    Matrix out(3, 4);
    for (int r = 0; r < 3; ++r) {
      for (int k = 0; k < 4; ++k) {
        out(r, k) = -g(r, k) * x_value(r, k) / (y_value(r, k) * y_value(r, k));
      }
    }
    return out;
  };
  Matrix x_grad(3, 4);
  x_grad += c[2].CwiseQuotient(y_value);
  x_grad += c[1].CwiseProduct(y_value);
  x_grad += c[0].CwiseQuotient(y_value);
  Matrix y_grad(3, 4);
  y_grad += div_grad_of_y(c[2]);
  y_grad += c[1].CwiseProduct(x_value);
  y_grad += div_grad_of_y(c[0]);
  ExpectSameBits(x.grad(), x_grad, "gradient of x");
  ExpectSameBits(y.grad(), y_grad, "gradient of y");
}

// A composite graph resembling one attention step, checked end to end.
TEST(GradCheck, AttentionLikeComposite) {
  Matrix avail = {{1, 1, 0}, {1, 1, 0}, {0, 1, 1}};
  ExpectGradientsMatch(
      [avail](Tape& tape, const std::vector<Var>& v) {
        Var q = MatMul(v[0], v[1]);
        Var k = MatMul(v[0], v[2]);
        Var scores = Scale(MatMulTranspose(q, k), 1.0 / std::sqrt(2.0));
        Var w = MaskedSoftmaxRows(scores, tape.Constant(avail));
        Var out = MatMul(w, v[0]);
        return Sum(Square(out));
      },
      {TestInput(3, 2, 34), TestInput(2, 2, 35), TestInput(2, 2, 36)}, 1e-5);
}

// Parameterized sweep: gradients of a fixed composite graph must match
// numerics for a range of shapes.
class GradShapeSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GradShapeSweep, CompositeGraph) {
  const auto [rows, cols] = GetParam();
  ExpectGradientsMatch(
      [](Tape&, const std::vector<Var>& v) {
        Var h = Tanh(v[0]);
        Var s = RowSum(Square(h));
        return Add(Sum(s), Mean(Mul(h, h)));
      },
      {TestInput(rows, cols, 100 + rows * 13 + cols)});
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GradShapeSweep,
    ::testing::Values(std::make_pair(1, 1), std::make_pair(1, 7),
                      std::make_pair(5, 1), std::make_pair(3, 3),
                      std::make_pair(8, 2), std::make_pair(2, 9)));

}  // namespace
}  // namespace ad
}  // namespace deepmvi
