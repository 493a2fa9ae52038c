#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tensor/data_tensor.h"
#include "tensor/mask.h"
#include "tensor/matmul_kernel.h"
#include "tensor/matrix.h"
#include "testing/test_util.h"

namespace deepmvi {
namespace {

TEST(MatrixTest, ConstructAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m(1, 2), 0.0);
  m(1, 2) = 5.0;
  EXPECT_EQ(m(1, 2), 5.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m = {{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 2), 6.0);
}

TEST(MatrixTest, Identity) {
  Matrix id = Matrix::Identity(3);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(id(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, Arithmetic) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{5, 6}, {7, 8}};
  Matrix sum = a + b;
  EXPECT_EQ(sum(0, 0), 6.0);
  EXPECT_EQ(sum(1, 1), 12.0);
  Matrix diff = b - a;
  EXPECT_EQ(diff(0, 0), 4.0);
  Matrix scaled = a * 2.0;
  EXPECT_EQ(scaled(1, 0), 6.0);
}

TEST(MatrixTest, CwiseOps) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{2, 2}, {2, 2}};
  Matrix prod = a.CwiseProduct(b);
  EXPECT_EQ(prod(1, 1), 8.0);
  Matrix quot = a.CwiseQuotient(b);
  EXPECT_EQ(quot(0, 1), 1.0);
}

TEST(MatrixTest, MatMulCorrectness) {
  Matrix a = {{1, 2, 3}, {4, 5, 6}};
  Matrix b = {{7, 8}, {9, 10}, {11, 12}};
  Matrix c = a.MatMul(b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_EQ(c(0, 0), 58.0);
  EXPECT_EQ(c(0, 1), 64.0);
  EXPECT_EQ(c(1, 0), 139.0);
  EXPECT_EQ(c(1, 1), 154.0);
}

TEST(MatrixTest, TransposeMatMulMatchesExplicit) {
  Rng rng(5);
  Matrix a = Matrix::RandomGaussian(4, 3, rng);
  Matrix b = Matrix::RandomGaussian(4, 5, rng);
  Matrix expected = a.Transpose().MatMul(b);
  EXPECT_TRUE(a.TransposeMatMul(b).ApproxEquals(expected, 1e-12));
}

TEST(MatrixTest, MatMulTransposeMatchesExplicit) {
  Rng rng(6);
  Matrix a = Matrix::RandomGaussian(4, 3, rng);
  Matrix b = Matrix::RandomGaussian(5, 3, rng);
  Matrix expected = a.MatMul(b.Transpose());
  EXPECT_TRUE(a.MatMulTranspose(b).ApproxEquals(expected, 1e-12));
}

// ---- Blocked-kernel regression tests ---------------------------------------
//
// The blocked kernels (matmul_kernel.h) promise bit-identical results to
// the textbook triple loop: blocking reorders which outputs are computed
// when, never the ascending-k accumulation inside one output. These tests
// sweep random and edge shapes — 0-dim, vectors, sizes off the tile
// multiple — against the naive reference for all three product variants,
// through every kernel set this CPU supports and through the public
// Matrix products (the active set).

void ExpectBitIdentical(const Matrix& actual, const Matrix& expected,
                        const std::string& what, int m, int k, int n) {
  testutil::ExpectMatricesBitIdentical(
      actual, expected,
      what + " (" + std::to_string(m) + "x" + std::to_string(k) + " * " +
          std::to_string(k) + "x" + std::to_string(n) + ")");
}

/// The three products of one kernel set for the logical product
/// a(m x k) * b(k x n): TransposeMatMul runs on the materialized a^T and
/// MatMulTranspose on the materialized b^T, so each consumes the operand
/// layout it is specialized for while the result stays the one product.
struct SetProducts {
  Matrix mat_mul, transpose_mat_mul, mat_mul_transpose;
};

SetProducts RunKernelSet(const internal::MatMulKernelSet& set,
                         const Matrix& a, const Matrix& b) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  const Matrix a_t = a.Transpose();
  const Matrix b_t = b.Transpose();
  SetProducts out{Matrix(m, n), Matrix(m, n), Matrix(m, n)};
  std::vector<double> pack(b.size());
  set.mat_mul(a.data(), b.data(), out.mat_mul.data(), m, k, n);
  set.transpose_mat_mul(a_t.data(), b.data(), out.transpose_mat_mul.data(), m,
                        k, n);
  set.mat_mul_transpose(a.data(), b_t.data(), out.mat_mul_transpose.data(), m,
                        k, n, pack.data());
  return out;
}

/// All three product variants, through every kernel set and through the
/// public Matrix methods, against the naive reference.
void CheckAllVariantsMatchNaive(int m, int k, int n, Rng& rng) {
  const Matrix a = Matrix::RandomGaussian(m, k, rng);
  const Matrix b = Matrix::RandomGaussian(k, n, rng);

  Matrix expected(m, n);
  internal::MatMulNaive(a.data(), b.data(), expected.data(), m, k, n);

  for (const internal::MatMulKernelSet& set :
       internal::SupportedMatMulKernelSets()) {
    const SetProducts got = RunKernelSet(set, a, b);
    const std::string name = set.name;
    ExpectBitIdentical(got.mat_mul, expected, name + " MatMul", m, k, n);
    ExpectBitIdentical(got.transpose_mat_mul, expected,
                       name + " TransposeMatMul", m, k, n);
    ExpectBitIdentical(got.mat_mul_transpose, expected,
                       name + " MatMulTranspose", m, k, n);
  }
  ExpectBitIdentical(a.MatMul(b), expected, "MatMul", m, k, n);
  ExpectBitIdentical(a.Transpose().TransposeMatMul(b), expected,
                     "TransposeMatMul", m, k, n);
  ExpectBitIdentical(a.MatMulTranspose(b.Transpose()), expected,
                     "MatMulTranspose", m, k, n);
}

TEST(MatMulKernelTest, KernelSetsArePortableFirstAndActiveLast) {
  const std::vector<internal::MatMulKernelSet>& sets =
      internal::SupportedMatMulKernelSets();
  ASSERT_FALSE(sets.empty());
  EXPECT_STREQ(sets.front().name, "portable");
  EXPECT_EQ(&internal::ActiveMatMulKernelSet(), &sets.back());
  for (const internal::MatMulKernelSet& set : sets) {
    const std::string name = set.name;
    EXPECT_TRUE(name == "portable" || name == "avx2") << name;
  }
}

TEST(MatMulKernelTest, BlockedMatchesNaiveOnRandomShapes) {
  Rng rng(123);
  // Shapes straddling the tile boundaries (k-tile 64, micro kernels of 4
  // rows x 4 k-terms): primes, exact multiples, one-off-from-multiple, and
  // every row and k remainder mod 4. The last six are the transformer's
  // products on a 13-window chunk (conv, Q/K projection, attention scores,
  // decoder input and output) and on a 60-window one.
  const int shapes[][3] = {{1, 1, 1},      {2, 4, 8},      {3, 5, 7},
                           {7, 13, 5},     {8, 64, 8},     {9, 65, 3},
                           {64, 64, 64},   {65, 66, 67},   {1, 128, 1},
                           {2, 130, 31},   {33, 1, 33},    {13, 10, 32},
                           {13, 64, 64},   {13, 64, 13},   {13, 128, 32},
                           {13, 32, 320},  {60, 64, 60}};
  for (const auto& s : shapes) {
    CheckAllVariantsMatchNaive(s[0], s[1], s[2], rng);
  }
}

TEST(MatMulKernelTest, HandlesZeroDimensions) {
  Rng rng(5);
  const int shapes[][3] = {{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {0, 0, 0}};
  for (const auto& s : shapes) {
    const Matrix a = Matrix::RandomGaussian(s[0], s[1], rng);
    const Matrix b = Matrix::RandomGaussian(s[1], s[2], rng);
    std::vector<Matrix> products = {a.MatMul(b)};
    for (const internal::MatMulKernelSet& set :
         internal::SupportedMatMulKernelSets()) {
      SetProducts got = RunKernelSet(set, a, b);
      products.push_back(std::move(got.mat_mul));
      products.push_back(std::move(got.transpose_mat_mul));
      products.push_back(std::move(got.mat_mul_transpose));
    }
    for (const Matrix& c : products) {
      EXPECT_EQ(c.rows(), s[0]);
      EXPECT_EQ(c.cols(), s[2]);
      for (int r = 0; r < c.rows(); ++r) {
        for (int cc = 0; cc < c.cols(); ++cc) EXPECT_EQ(c(r, cc), 0.0);
      }
    }
  }
}

TEST(MatMulKernelTest, NanAndInfPropagateThroughZeroCoefficients) {
  // Historical regression: the ikj loops skipped a == 0.0 terms, so a zero
  // row silently swallowed NaN/Inf in the other operand (0 * NaN became 0).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  Matrix a(2, 2);  // All zeros.
  Matrix b = {{nan, 1.0}, {2.0, inf}};
  Matrix c = a.MatMul(b);
  EXPECT_TRUE(std::isnan(c(0, 0)));
  EXPECT_TRUE(std::isnan(c(1, 0)));
  EXPECT_TRUE(std::isnan(c(0, 1)));  // 0 * inf = NaN.
  EXPECT_TRUE(std::isnan(c(1, 1)));

  Matrix zt(2, 2);  // Zero left operand, accessed transposed.
  Matrix ct = zt.TransposeMatMul(b);
  EXPECT_TRUE(std::isnan(ct(0, 0)));
  EXPECT_TRUE(std::isnan(ct(1, 1)));

  Matrix cmt = a.MatMulTranspose(b);
  EXPECT_TRUE(std::isnan(cmt(0, 0)));
  EXPECT_TRUE(std::isnan(cmt(1, 1)));

  // Every set: a zero a times b must be NaN in every cell, for all three
  // products (b's NaN and Inf reach every output column through the
  // product a * b; the transposed variants read the same logical b).
  for (const internal::MatMulKernelSet& set :
       internal::SupportedMatMulKernelSets()) {
    const SetProducts got = RunKernelSet(set, a, b);
    for (const Matrix* product :
         {&got.mat_mul, &got.transpose_mat_mul, &got.mat_mul_transpose}) {
      for (int r = 0; r < 2; ++r) {
        for (int cc = 0; cc < 2; ++cc) {
          EXPECT_TRUE(std::isnan((*product)(r, cc)))
              << set.name << " (" << r << ", " << cc << ")";
        }
      }
    }
  }

  // Non-finite values anywhere must reach AllFinite() checks downstream.
  Matrix spike = {{1.0, 0.0}, {0.0, 1.0}};
  spike(0, 0) = inf;
  EXPECT_FALSE(spike.MatMul(Matrix::Identity(2)).AllFinite());
}

// ---- Adam kernel sets ---------------------------------------------------------
//
// Every kernel set's Adam update must reproduce the per-element loop that
// nn::Adam::StepWithGrads ran before the update moved into the kernel
// sets, byte for byte: value, first and second moment, over consecutive
// steps, for gradients with NaN, infinities, subnormals and signed zeros.

struct ReferenceAdamConfig {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double clip_norm = 5.0;
};

/// The gradient factor of the global-norm clip, computed as
/// StepWithGrads computes it (one parameter here).
double ClipScale(const Matrix& g, double clip_norm) {
  const double norm = std::sqrt(g.SquaredNorm());
  return clip_norm > 0.0 && norm > clip_norm ? clip_norm / norm : 1.0;
}

/// The historical per-element Adam step of one parameter: the reference
/// every kernel set is held to.
void ReferenceAdamStep(Matrix& value, Matrix& m, Matrix& v, const Matrix& g,
                       const ReferenceAdamConfig& config, int64_t step) {
  const double scale = ClipScale(g, config.clip_norm);
  const double bc1 = 1.0 - std::pow(config.beta1, static_cast<double>(step));
  const double bc2 = 1.0 - std::pow(config.beta2, static_cast<double>(step));
  for (int r = 0; r < value.rows(); ++r) {
    for (int c = 0; c < value.cols(); ++c) {
      const double grad = g(r, c) * scale;
      m(r, c) = config.beta1 * m(r, c) + (1.0 - config.beta1) * grad;
      v(r, c) = config.beta2 * v(r, c) + (1.0 - config.beta2) * grad * grad;
      const double m_hat = m(r, c) / bc1;
      const double v_hat = v(r, c) / bc2;
      value(r, c) -=
          config.learning_rate * m_hat / (std::sqrt(v_hat) + config.epsilon);
    }
  }
}

/// A 1 x n gradient of scale-3 Gaussians; with `specials`, most entries
/// are replaced by NaN, +-Inf, subnormals and +-0 in a fixed pattern.
Matrix AdamTestGradient(int n, bool specials, Rng& rng) {
  Matrix g = Matrix::RandomGaussian(1, n, rng, 0.0, 3.0);
  if (!specials) return g;
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (int i = 0; i < n; ++i) {
    switch (i % 9) {
      case 0: g(0, i) = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: g(0, i) = std::numeric_limits<double>::infinity(); break;
      case 2: g(0, i) = -std::numeric_limits<double>::infinity(); break;
      case 3: g(0, i) = denorm * (i + 1); break;
      case 4: g(0, i) = -denorm * 3; break;
      case 5: g(0, i) = 0.0; break;
      case 6: g(0, i) = -0.0; break;
      default: break;
    }
  }
  return g;
}

/// Byte equality, so NaN payloads and the sign of zero count too.
void ExpectSameBytes(const Matrix& actual, const Matrix& expected,
                     const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (int64_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(std::memcmp(actual.data() + i, expected.data() + i,
                          sizeof(double)),
              0)
        << what << " at " << i << ": " << actual.data()[i] << " vs "
        << expected.data()[i];
  }
}

TEST(AdamKernelTest, EverySetMatchesTheScalarLoopBitForBit) {
  const int lengths[] = {0, 1, 3, 4, 5, 37, 4099};
  for (const internal::MatMulKernelSet& set :
       internal::SupportedMatMulKernelSets()) {
    for (int n : lengths) {
      for (bool specials : {false, true}) {
        for (double clip_norm : {5.0, 0.0}) {
          const std::string what =
              std::string(set.name) + " n=" + std::to_string(n) +
              (specials ? " specials" : " finite") +
              (clip_norm > 0.0 ? " clipped" : " unclipped");
          ReferenceAdamConfig config;
          config.clip_norm = clip_norm;
          Rng rng(static_cast<uint64_t>(n) * 4 + (specials ? 2 : 0) +
                  (clip_norm > 0.0 ? 1 : 0));
          Matrix value = Matrix::RandomGaussian(1, n, rng);
          Matrix m = Matrix::RandomGaussian(1, n, rng, 0.0, 0.1);
          Matrix v = Matrix::RandomUniform(1, n, rng, 0.0, 0.01);
          Matrix ref_value = value, ref_m = m, ref_v = v;
          for (int64_t step = 1; step <= 3; ++step) {
            const Matrix g = AdamTestGradient(n, specials, rng);
            ReferenceAdamStep(ref_value, ref_m, ref_v, g, config, step);
            const internal::AdamStep adam_step = {
                .grad_scale = ClipScale(g, clip_norm),
                .beta1 = config.beta1,
                .beta2 = config.beta2,
                .bias_correction1 =
                    1.0 - std::pow(config.beta1, static_cast<double>(step)),
                .bias_correction2 =
                    1.0 - std::pow(config.beta2, static_cast<double>(step)),
                .learning_rate = config.learning_rate,
                .epsilon = config.epsilon,
            };
            set.adam_update(value.data(), m.data(), v.data(), g.data(), n,
                            adam_step);
          }
          ExpectSameBytes(value, ref_value, what + " value");
          ExpectSameBytes(m, ref_m, what + " m");
          ExpectSameBytes(v, ref_v, what + " v");
        }
      }
    }
  }
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(7);
  Matrix a = Matrix::RandomGaussian(3, 5, rng);
  EXPECT_TRUE(a.Transpose().Transpose().ApproxEquals(a, 0.0));
}

TEST(MatrixTest, BlockAndSetBlock) {
  Matrix m = {{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}};
  Matrix block = m.Block(1, 1, 2, 2);
  EXPECT_EQ(block(0, 0), 6.0);
  EXPECT_EQ(block(1, 1), 11.0);
  Matrix patch = {{0, 0}, {0, 0}};
  m.SetBlock(1, 1, patch);
  EXPECT_EQ(m(1, 1), 0.0);
  EXPECT_EQ(m(2, 2), 0.0);
  EXPECT_EQ(m(0, 0), 1.0);
}

TEST(MatrixTest, RowColAccess) {
  Matrix m = {{1, 2}, {3, 4}, {5, 6}};
  auto row = m.Row(1);
  EXPECT_EQ(row, (std::vector<double>{3, 4}));
  auto col = m.Col(1);
  EXPECT_EQ(col, (std::vector<double>{2, 4, 6}));
  m.SetRow(0, {9, 9});
  EXPECT_EQ(m(0, 1), 9.0);
  m.SetCol(0, {1, 1, 1});
  EXPECT_EQ(m(2, 0), 1.0);
}

TEST(MatrixTest, Reductions) {
  Matrix m = {{1, 2}, {3, 4}};
  EXPECT_EQ(m.Sum(), 10.0);
  EXPECT_EQ(m.Mean(), 2.5);
  EXPECT_EQ(m.Min(), 1.0);
  EXPECT_EQ(m.Max(), 4.0);
  EXPECT_NEAR(m.Norm(), std::sqrt(30.0), 1e-12);
  EXPECT_EQ(m.MaxAbs(), 4.0);
}

TEST(MatrixTest, RowColMeans) {
  Matrix m = {{1, 3}, {5, 7}};
  EXPECT_EQ(m.RowMeans(), (std::vector<double>{2, 6}));
  EXPECT_EQ(m.ColMeans(), (std::vector<double>{3, 5}));
}

TEST(MatrixTest, AllFinite) {
  Matrix m = {{1, 2}};
  EXPECT_TRUE(m.AllFinite());
  m(0, 0) = std::nan("");
  EXPECT_FALSE(m.AllFinite());
}

TEST(MatrixTest, VectorHelpers) {
  std::vector<double> a = {1, 2, 3};
  std::vector<double> b = {4, 5, 6};
  EXPECT_EQ(Dot(a, b), 32.0);
  EXPECT_NEAR(Norm(a), std::sqrt(14.0), 1e-12);
}

TEST(MatrixTest, PearsonCorrelation) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
  std::vector<double> c = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(a, c), -1.0, 1e-12);
  std::vector<double> constant = {5, 5, 5, 5};
  EXPECT_EQ(PearsonCorrelation(a, constant), 0.0);
}

TEST(MaskTest, DefaultAllAvailable) {
  Mask m(3, 4);
  EXPECT_EQ(m.CountMissing(), 0);
  EXPECT_EQ(m.CountAvailable(), 12);
  EXPECT_TRUE(m.available(2, 3));
}

TEST(MaskTest, SetMissing) {
  Mask m(2, 5);
  m.set_missing(1, 2);
  EXPECT_TRUE(m.missing(1, 2));
  EXPECT_EQ(m.CountMissing(), 1);
  EXPECT_NEAR(m.MissingFraction(), 0.1, 1e-12);
}

TEST(MaskTest, SetMissingRangeClamps) {
  Mask m(1, 10);
  m.SetMissingRange(0, -5, 3);
  EXPECT_EQ(m.CountMissing(), 3);
  m.SetMissingRange(0, 8, 100);
  EXPECT_EQ(m.CountMissing(), 5);
}

TEST(MaskTest, MissingIndicesOrder) {
  Mask m(2, 2);
  m.set_missing(0, 1);
  m.set_missing(1, 0);
  auto idx = m.MissingIndices();
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], (CellIndex{0, 1}));
  EXPECT_EQ(idx[1], (CellIndex{1, 0}));
}

TEST(MaskTest, MissingBlockLengths) {
  Mask m(2, 10);
  m.SetMissingRange(0, 2, 5);   // block of 3
  m.SetMissingRange(0, 8, 10);  // block of 2 (to edge)
  m.SetMissingRange(1, 0, 1);   // block of 1
  auto lengths = m.MissingBlockLengths();
  ASSERT_EQ(lengths.size(), 3u);
  EXPECT_EQ(lengths[0], 3);
  EXPECT_EQ(lengths[1], 2);
  EXPECT_EQ(lengths[2], 1);
}

TEST(MaskOverlayTest, MatchesMaskWithSyntheticBlockApplied) {
  // The overlay must answer exactly like a copied mask with
  // SetMissingRange applied to the block rows -- the copy the training
  // loop used to make per sample.
  Mask base(4, 12);
  base.set_missing(0, 3);
  base.set_missing(2, 7);
  std::vector<uint8_t> block_rows = {1, 0, 1, 0};
  const int t0 = 5, t1 = 9;

  Mask copied = base;
  copied.SetMissingRange(0, t0, t1);
  copied.SetMissingRange(2, t0, t1);

  MaskOverlay overlay(base, t0, t1, block_rows);
  MaskOverlay plain(base);
  EXPECT_EQ(overlay.rows(), 4);
  EXPECT_EQ(overlay.cols(), 12);
  for (int r = 0; r < 4; ++r) {
    for (int t = 0; t < 12; ++t) {
      EXPECT_EQ(overlay.available(r, t), copied.available(r, t))
          << r << "," << t;
      EXPECT_EQ(plain.available(r, t), base.available(r, t)) << r << "," << t;
    }
  }
}

TEST(MaskTest, AndIntersection) {
  Mask a(1, 3), b(1, 3);
  a.set_missing(0, 0);
  b.set_missing(0, 2);
  Mask c = a.And(b);
  EXPECT_TRUE(c.missing(0, 0));
  EXPECT_TRUE(c.available(0, 1));
  EXPECT_TRUE(c.missing(0, 2));
}

TEST(DataTensorTest, FromMatrix1D) {
  Matrix values = {{1, 2, 3}, {4, 5, 6}};
  DataTensor data = DataTensor::FromMatrix(values);
  EXPECT_EQ(data.num_dims(), 1);
  EXPECT_EQ(data.num_series(), 2);
  EXPECT_EQ(data.num_times(), 3);
  EXPECT_EQ(data.dim(0).size(), 2);
}

TEST(DataTensorTest, FlattenUnflattenRoundTrip) {
  // 3 items x 4 regions.
  Dimension items{"item", {"i0", "i1", "i2"}};
  Dimension regions{"region", {"r0", "r1", "r2", "r3"}};
  DataTensor data({items, regions}, Matrix(12, 5));
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 4; ++b) {
      int row = data.FlattenIndex({a, b});
      auto k = data.UnflattenRow(row);
      EXPECT_EQ(k[0], a);
      EXPECT_EQ(k[1], b);
    }
  }
  // Last dimension varies fastest.
  EXPECT_EQ(data.FlattenIndex({0, 0}), 0);
  EXPECT_EQ(data.FlattenIndex({0, 1}), 1);
  EXPECT_EQ(data.FlattenIndex({1, 0}), 4);
}

TEST(DataTensorTest, SiblingsMatchPaperExample) {
  // Example from Sec 4.2: items {i0,i1,i2}, regions {r0..r3}; siblings of
  // (i1, r2) along items = {(i0,r2),(i2,r2)}; along regions =
  // {(i1,r0),(i1,r1),(i1,r3)}.
  Dimension items{"item", {"i0", "i1", "i2"}};
  Dimension regions{"region", {"r0", "r1", "r2", "r3"}};
  DataTensor data({items, regions}, Matrix(12, 5));
  const int row = data.FlattenIndex({1, 2});

  auto item_sibs = data.Siblings(row, 0);
  ASSERT_EQ(item_sibs.size(), 2u);
  EXPECT_EQ(item_sibs[0], data.FlattenIndex({0, 2}));
  EXPECT_EQ(item_sibs[1], data.FlattenIndex({2, 2}));

  auto region_sibs = data.Siblings(row, 1);
  ASSERT_EQ(region_sibs.size(), 3u);
  EXPECT_EQ(region_sibs[0], data.FlattenIndex({1, 0}));
  EXPECT_EQ(region_sibs[1], data.FlattenIndex({1, 1}));
  EXPECT_EQ(region_sibs[2], data.FlattenIndex({1, 3}));
}

TEST(DataTensorTest, Flattened1DPreservesValues) {
  Dimension a{"a", {"x", "y"}};
  Dimension b{"b", {"p", "q"}};
  Matrix values = {{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  DataTensor data({a, b}, values);
  DataTensor flat = data.Flattened1D();
  EXPECT_EQ(flat.num_dims(), 1);
  EXPECT_EQ(flat.num_series(), 4);
  EXPECT_TRUE(flat.values().ApproxEquals(values, 0.0));
  EXPECT_EQ(flat.dim(0).members[0], "x|p");
  EXPECT_EQ(flat.dim(0).members[3], "y|q");
}

TEST(DataTensorTest, NormalizationRoundTrip) {
  Matrix values = {{10, 20, 30, 40}, {5, 5, 5, 5}};
  DataTensor data = DataTensor::FromMatrix(values);
  Mask mask(2, 4);
  auto stats = data.ComputeNormalization(mask);
  EXPECT_NEAR(stats.mean[0], 25.0, 1e-12);
  // Constant series gets stddev 1 to avoid division by zero.
  EXPECT_EQ(stats.stddev[1], 1.0);

  DataTensor normalized = data.Normalized(stats);
  EXPECT_NEAR(normalized.values().RowMeans()[0], 0.0, 1e-12);
  Matrix back = DataTensor::Denormalize(normalized.values(), stats);
  EXPECT_TRUE(back.ApproxEquals(values, 1e-9));
}

TEST(DataTensorTest, NormalizationIgnoresMissing) {
  Matrix values = {{1, 2, 1000, 3}};
  DataTensor data = DataTensor::FromMatrix(values);
  Mask mask(1, 4);
  mask.set_missing(0, 2);  // Exclude the outlier.
  auto stats = data.ComputeNormalization(mask);
  EXPECT_NEAR(stats.mean[0], 2.0, 1e-12);
}

}  // namespace
}  // namespace deepmvi
