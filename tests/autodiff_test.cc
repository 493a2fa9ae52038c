#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "autodiff/ops.h"
#include "autodiff/tape.h"
#include "testing/test_util.h"

namespace deepmvi {
namespace ad {
namespace {

using testutil::ExpectGradientsMatch;

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

/// Byte equality: unlike ==, tells -0.0 from 0.0 and compares NaNs.
void ExpectSameBits(const Matrix& actual, const Matrix& expected,
                    const std::string& what) {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        sizeof(double) * actual.size()),
            0)
      << what;
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
