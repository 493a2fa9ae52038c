#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "nn/adam.h"
#include "nn/layers.h"
#include "nn/parameter.h"
#include "nn/serialize.h"
#include "testing/test_util.h"

namespace deepmvi {
namespace nn {
namespace {

using ad::Tape;
using ad::Var;

TEST(InitTest, XavierWithinLimits) {
  Rng rng(1);
  Matrix w = XavierUniform(10, 20, rng);
  const double limit = std::sqrt(6.0 / 30.0);
  EXPECT_LE(w.MaxAbs(), limit);
  EXPECT_GT(w.MaxAbs(), 0.0);
}

TEST(InitTest, HeNormalVariance) {
  Rng rng(2);
  Matrix w = HeNormal(1000, 50, rng);
  const double var = w.SquaredNorm() / w.size();
  EXPECT_NEAR(var, 2.0 / 1000.0, 5e-4);
}

TEST(ParameterTest, OnTapeReturnsSameVarPerTape) {
  ParameterStore store;
  Parameter* p = store.Create("w", Matrix(2, 2, 1.0));
  Tape tape;
  Var a = p->OnTape(tape);
  Var b = p->OnTape(tape);
  EXPECT_EQ(a.index(), b.index());
  EXPECT_EQ(tape.num_nodes(), 1);
}

TEST(ParameterTest, SharedParameterAccumulatesGradient) {
  ParameterStore store;
  Parameter* p = store.Create("w", Matrix(1, 1, 3.0));
  Tape tape;
  Var w = p->OnTape(tape);
  Var w2 = p->OnTape(tape);
  Var loss = ad::Sum(ad::Mul(w, w2));  // loss = w^2 => dloss/dw = 2w = 6.
  tape.Backward(loss);
  EXPECT_NEAR(p->grad_on(tape)(0, 0), 6.0, 1e-12);
}

TEST(LinearTest, ForwardShapeAndValue) {
  ParameterStore store;
  Rng rng(3);
  Linear layer(&store, "fc", 3, 2, rng);
  Tape tape;
  Var x = tape.Constant(Matrix(4, 3, 1.0));
  Var y = layer.Forward(tape, x);
  EXPECT_EQ(y.rows(), 4);
  EXPECT_EQ(y.cols(), 2);
  // All rows identical since input rows are identical.
  EXPECT_NEAR(y.value()(0, 0), y.value()(3, 0), 1e-12);
}

TEST(LinearTest, LearnsLinearMap) {
  // Fit y = 2x - 1 with a 1->1 linear layer.
  ParameterStore store;
  Rng rng(4);
  Linear layer(&store, "fc", 1, 1, rng);
  Adam adam(&store, {.learning_rate = 0.1, .clip_norm = 0.0});
  Tape tape;
  for (int step = 0; step < 200; ++step) {
    tape.Reset();
    Matrix xs(8, 1), ys(8, 1), w(8, 1, 1.0);
    for (int i = 0; i < 8; ++i) {
      xs(i, 0) = static_cast<double>(i) / 4.0 - 1.0;
      ys(i, 0) = 2.0 * xs(i, 0) - 1.0;
    }
    Var pred = layer.Forward(tape, tape.Constant(xs));
    Var loss = ad::WeightedMseLoss(pred, ys, w);
    tape.Backward(loss);
    adam.Step(tape);
  }
  // Evaluate.
  tape.Reset();
  Matrix probe(1, 1, 0.5);
  Var pred = layer.Forward(tape, tape.Constant(probe));
  EXPECT_NEAR(pred.value()(0, 0), 0.0, 0.05);
}

/// The Linear layer's output and the gradients of its input, weight and
/// bias, from `layer` itself or from MatMul then AddRowVector over the
/// same parameters.
struct LinearResult {
  Matrix value, x_grad, w_grad, b_grad;
  int nodes = 0;
};

LinearResult RunLinear(Tape& tape, const ParameterStore& store,
                       const Linear& layer, bool layer_node,
                       const Matrix& input) {
  Var x = tape.Leaf(input);
  const Parameter* w = store.Find("fc.weight");
  const Parameter* b = store.Find("fc.bias");
  Var y = layer_node ? layer.Forward(tape, x)
                     : ad::AddRowVector(ad::MatMul(x, w->OnTape(tape)),
                                        b->OnTape(tape));
  LinearResult result;
  result.nodes = tape.num_nodes();
  const Matrix weights = testutil::RandomMatrix(y.rows(), y.cols(), 70);
  tape.Backward(ad::Sum(ad::Mul(ad::Tanh(y), tape.Constant(weights))));
  result.value = y.value();
  result.x_grad = x.grad();
  result.w_grad = w->grad_on(tape);
  result.b_grad = b->grad_on(tape);
  return result;
}

TEST(LinearTest, OneNodeBitIdenticalToMatMulThenAddRowVector) {
  ParameterStore store;
  Rng rng(9);
  Linear layer(&store, "fc", 6, 5, rng);
  // A zero bias would hide a missing or misplaced add.
  store.Find("fc.bias")->value() = testutil::RandomMatrix(1, 5, 71);
  const Matrix input = testutil::RandomMatrix(9, 6, 72);
  Tape reference_tape;
  const LinearResult expected =
      RunLinear(reference_tape, store, layer, false, input);
  Tape fresh;
  Tape reused;
  // The previous graph is larger: more rows, so stale values fill every
  // slot the layer's node and gradients take.
  RunLinear(reused, store, layer, true, testutil::RandomMatrix(13, 6, 73));
  reused.Reset();
  for (Tape* tape : {&fresh, &reused}) {
    const LinearResult actual = RunLinear(*tape, store, layer, true, input);
    const std::string what = tape == &fresh ? "fresh tape" : "reset tape";
    // x, the two parameter leaves and one node, against two nodes.
    EXPECT_EQ(actual.nodes, expected.nodes - 1) << what;
    testutil::ExpectSameBits(actual.value, expected.value, what + " value");
    testutil::ExpectSameBits(actual.x_grad, expected.x_grad,
                             what + " input gradient");
    testutil::ExpectSameBits(actual.w_grad, expected.w_grad,
                             what + " weight gradient");
    testutil::ExpectSameBits(actual.b_grad, expected.b_grad,
                             what + " bias gradient");
  }
}

TEST(EmbeddingTest, LookupMatchesTable) {
  ParameterStore store;
  Rng rng(5);
  Embedding emb(&store, "e", 4, 3, rng);
  Tape tape;
  Var rows = emb.Forward(tape, {2, 0});
  EXPECT_EQ(rows.rows(), 2);
  EXPECT_EQ(rows.cols(), 3);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(rows.value()(0, c), emb.table_value()(2, c));
    EXPECT_EQ(rows.value()(1, c), emb.table_value()(0, c));
  }
}

TEST(Conv1dTest, WindowsAreContiguous) {
  ParameterStore store;
  Rng rng(6);
  Conv1dNonOverlap conv(&store, "conv", 2, 3, rng);
  Tape tape;
  // Series of length 6 -> 3 windows.
  Var series = tape.Constant({{1, 2, 3, 4, 5, 6}});
  Var features = conv.Forward(tape, series);
  EXPECT_EQ(features.rows(), 3);
  EXPECT_EQ(features.cols(), 3);
}

TEST(Conv1dTest, EquivalentToManualLinear) {
  ParameterStore store;
  Rng rng(7);
  Conv1dNonOverlap conv(&store, "conv", 3, 2, rng);
  Tape tape;
  Matrix series(1, 6);
  for (int i = 0; i < 6; ++i) series(0, i) = i + 1;
  Var out = conv.Forward(tape, tape.Constant(series));
  // Second window [4,5,6] must produce the same features as feeding it as
  // the only window.
  Tape tape2;
  Matrix window(1, 3);
  for (int i = 0; i < 3; ++i) window(0, i) = i + 4;
  Var out2 = conv.Forward(tape2, tape2.Constant(window));
  for (int c = 0; c < 2; ++c) {
    EXPECT_NEAR(out.value()(1, c), out2.value()(0, c), 1e-12);
  }
}

TEST(FeedForwardTest, ShapeAndGradientFlow) {
  ParameterStore store;
  Rng rng(8);
  FeedForward ff(&store, "ff", 4, 8, 2, rng);
  Tape tape;
  Var x = tape.Leaf(Matrix(3, 4, 0.5));
  Var y = ff.Forward(tape, x);
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.cols(), 2);
  tape.Backward(ad::Sum(y));
  // At least one parameter should get nonzero gradient.
  double total = 0.0;
  for (const auto& p : store.params()) {
    if (p->on_tape(tape)) total += p->grad_on(tape).MaxAbs();
  }
  EXPECT_GT(total, 0.0);
}

TEST(PositionalEncodingTest, MatchesFormula) {
  Matrix enc = SinusoidalPositionalEncoding(16, 8);
  EXPECT_EQ(enc.rows(), 16);
  EXPECT_EQ(enc.cols(), 8);
  // t = 0: sin(0) = 0 for even, cos(0) = 1 for odd.
  for (int r = 0; r < 8; ++r) {
    EXPECT_NEAR(enc(0, r), r % 2 == 0 ? 0.0 : 1.0, 1e-12);
  }
  // Spot check Eq. 2 at t=3, r=2.
  EXPECT_NEAR(enc(3, 2), std::sin(3.0 / std::pow(10000.0, 2.0 / 8.0)), 1e-12);
  EXPECT_NEAR(enc(3, 3), std::cos(3.0 / std::pow(10000.0, 2.0 / 8.0)), 1e-12);
}

TEST(AttentionTest, OutputShapeAndMasking) {
  ParameterStore store;
  Rng rng(9);
  AttentionConfig config{.model_dim = 8, .num_heads = 2};
  MultiHeadSelfAttention attn(&store, "attn", config, rng);
  Tape tape;
  Var x = tape.Leaf(Matrix::RandomGaussian(5, 8, rng));
  std::vector<double> avail = {1, 1, 0, 1, 1};
  Var y = attn.Forward(tape, x, avail);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 8);
  EXPECT_TRUE(y.value().AllFinite());
}

TEST(AttentionTest, MaskedKeyDoesNotInfluenceOutput) {
  ParameterStore store;
  Rng rng(10);
  AttentionConfig config{.model_dim = 4, .num_heads = 1};
  MultiHeadSelfAttention attn(&store, "attn", config, rng);

  Matrix x1 = Matrix::RandomGaussian(4, 4, rng);
  Matrix x2 = x1;
  // Change only row 2, which is masked out as a key everywhere.
  for (int c = 0; c < 4; ++c) x2(2, c) += 10.0;
  std::vector<double> avail = {1, 1, 0, 1};

  Tape t1;
  Var y1 = attn.Forward(t1, t1.Constant(x1), avail);
  Tape t2;
  Var y2 = attn.Forward(t2, t2.Constant(x2), avail);
  // Outputs at other query positions must be identical: the masked key
  // cannot contribute value vectors.
  for (int q = 0; q < 4; ++q) {
    if (q == 2) continue;  // Its own query uses its own (changed) input.
    for (int c = 0; c < 4; ++c) {
      EXPECT_NEAR(y1.value()(q, c), y2.value()(q, c), 1e-9) << "q=" << q;
    }
  }
}

TEST(GruTest, StateShapeAndBounds) {
  ParameterStore store;
  Rng rng(11);
  GruCell cell(&store, "gru", 3, 5, rng);
  Tape tape;
  Var x = tape.Constant(Matrix(1, 3, 0.5));
  Var h = tape.Constant(Matrix(1, 5, 0.0));
  Var h1 = cell.Forward(tape, x, h);
  EXPECT_EQ(h1.rows(), 1);
  EXPECT_EQ(h1.cols(), 5);
  // GRU state from zero state is bounded by tanh range.
  EXPECT_LE(h1.value().MaxAbs(), 1.0);
}

TEST(GruTest, LearnsToRememberInput) {
  // Train a GRU to output the first input after 3 steps (memory task).
  ParameterStore store;
  Rng rng(12);
  const int hidden = 8;
  GruCell cell(&store, "gru", 1, hidden, rng);
  Linear readout(&store, "read", hidden, 1, rng);
  Adam adam(&store, {.learning_rate = 0.02, .clip_norm = 5.0});
  Tape tape;
  Rng data_rng(13);
  double final_loss = 1e9;
  for (int step = 0; step < 300; ++step) {
    tape.Reset();
    const double target = data_rng.Uniform(-1.0, 1.0);
    Var h = tape.Constant(Matrix(1, hidden));
    for (int t = 0; t < 3; ++t) {
      Matrix input(1, 1, t == 0 ? target : 0.0);
      h = cell.Forward(tape, tape.Constant(input), h);
    }
    Var pred = readout.Forward(tape, h);
    Matrix target_m(1, 1, target);
    Var loss = ad::WeightedMseLoss(pred, target_m, Matrix(1, 1, 1.0));
    tape.Backward(loss);
    adam.Step(tape);
    final_loss = loss.scalar();
  }
  EXPECT_LT(final_loss, 0.05);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize ||x - 3||^2.
  ParameterStore store;
  Parameter* p = store.Create("x", Matrix(1, 1, 0.0));
  Adam adam(&store, {.learning_rate = 0.1, .clip_norm = 0.0});
  Tape tape;
  for (int i = 0; i < 300; ++i) {
    tape.Reset();
    Var x = p->OnTape(tape);
    Var loss = ad::Sum(ad::Square(ad::AddScalar(x, -3.0)));
    tape.Backward(loss);
    adam.Step(tape);
  }
  EXPECT_NEAR(p->value()(0, 0), 3.0, 1e-2);
}

TEST(AdamTest, SkipsUnusedParameters) {
  ParameterStore store;
  Parameter* used = store.Create("used", Matrix(1, 1, 1.0));
  Parameter* unused = store.Create("unused", Matrix(1, 1, 7.0));
  Adam adam(&store);
  Tape tape;
  Var x = used->OnTape(tape);
  Var loss = ad::Sum(ad::Square(x));
  tape.Backward(loss);
  adam.Step(tape);
  EXPECT_EQ(unused->value()(0, 0), 7.0);
  EXPECT_NE(used->value()(0, 0), 1.0);
}

TEST(AdamTest, HandlesSeveralOnTapeParametersWithoutGradients) {
  // Regression: parameters materialized on the tape but disconnected from
  // the loss have no allocated gradient. Step must hand the optimizer a
  // correctly-shaped zero per parameter — collecting references to the
  // tape's shared zero-matrix cache handed every such parameter the shape
  // of the last one queried (out-of-bounds reads for differing shapes).
  ParameterStore store;
  Parameter* connected = store.Create("connected", Matrix(1, 1, 1.0));
  Parameter* idle_big = store.Create("idle_big", Matrix(3, 4, 2.0));
  Parameter* idle_small = store.Create("idle_small", Matrix(2, 3, 5.0));
  Adam adam(&store);
  Tape tape;
  idle_big->OnTape(tape);
  idle_small->OnTape(tape);
  Var loss = ad::Sum(ad::Square(connected->OnTape(tape)));
  tape.Backward(loss);
  adam.Step(tape);
  EXPECT_NE(connected->value()(0, 0), 1.0);
  // Zero gradient + zero moments: the idle parameters stay untouched.
  EXPECT_TRUE(idle_big->value().ApproxEquals(Matrix(3, 4, 2.0), 0.0));
  EXPECT_TRUE(idle_small->value().ApproxEquals(Matrix(2, 3, 5.0), 0.0));
}

TEST(AdamTest, ClippingBoundsUpdateReportsNorm) {
  ParameterStore store;
  Parameter* p = store.Create("x", Matrix(1, 1, 0.0));
  Adam adam(&store, {.learning_rate = 1.0, .clip_norm = 0.001});
  Tape tape;
  Var x = p->OnTape(tape);
  Var loss = ad::Sum(ad::Scale(x, 1000.0));
  tape.Backward(loss);
  double norm = adam.Step(tape);
  EXPECT_NEAR(norm, 1000.0, 1e-9);
}

// ---- Serialization (nn/serialize.h) ----------------------------------------

/// A store with irrational-valued parameters (every bit pattern exercised)
/// and nonzero Adam moments.
void FillStore(ParameterStore& store, uint64_t seed) {
  Rng rng(seed);
  Parameter* a = store.Create("layer.weight", Matrix::RandomGaussian(7, 3, rng));
  Parameter* b = store.Create("layer.bias", Matrix::RandomGaussian(1, 3, rng));
  a->adam_m() = Matrix::RandomGaussian(7, 3, rng);
  a->adam_v() = Matrix::RandomGaussian(7, 3, rng);
  b->adam_m() = Matrix::RandomGaussian(1, 3, rng);
  b->adam_v() = Matrix::RandomGaussian(1, 3, rng);
}

using testutil::ExpectMatricesBitIdentical;

TEST(SerializeTest, EmptyMatrixRoundTrips) {
  ParameterStore store;
  FillStore(store, 21);
  store.Create("empty", Matrix());
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameterStore(store, buffer).ok());
  ParameterStore fresh;
  FillStore(fresh, 22);
  fresh.Create("empty", Matrix());
  ASSERT_TRUE(LoadParameterStore(buffer, fresh).ok());
  EXPECT_EQ(fresh.Find("empty")->value().size(), 0);
  ExpectMatricesBitIdentical(fresh.Find("layer.bias")->value(),
                             store.Find("layer.bias")->value());
}

TEST(SerializeTest, StoreRoundTripsThroughFileBitIdentical) {
  ParameterStore store;
  FillStore(store, 22);
  const std::string path = testutil::TempPath("store_roundtrip.dmvp");
  ASSERT_TRUE(SaveParameterStoreToFile(store, path).ok());

  // Destination rebuilt with different values; load must restore value and
  // both Adam moments exactly.
  ParameterStore fresh;
  FillStore(fresh, 23);
  Status loaded = LoadParameterStoreFromFile(path, fresh);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  ASSERT_EQ(fresh.params().size(), store.params().size());
  for (const auto& p : store.params()) {
    Parameter* q = fresh.Find(p->name());
    ASSERT_NE(q, nullptr) << p->name();
    ExpectMatricesBitIdentical(q->value(), p->value());
    ExpectMatricesBitIdentical(q->adam_m(), p->adam_m());
    ExpectMatricesBitIdentical(q->adam_v(), p->adam_v());
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadIsNameKeyedNotOrderKeyed) {
  ParameterStore store;
  FillStore(store, 24);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameterStore(store, buffer).ok());

  // Same parameters created in the opposite order.
  ParameterStore reordered;
  reordered.Create("layer.bias", Matrix(1, 3, -1.0));
  reordered.Create("layer.weight", Matrix(7, 3, -1.0));
  ASSERT_TRUE(LoadParameterStore(buffer, reordered).ok());
  ExpectMatricesBitIdentical(reordered.Find("layer.weight")->value(),
                     store.Find("layer.weight")->value());
  ExpectMatricesBitIdentical(reordered.Find("layer.bias")->value(),
                     store.Find("layer.bias")->value());
}

TEST(SerializeTest, CorruptMagicIsAnErrorNotACrash) {
  ParameterStore store;
  FillStore(store, 25);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameterStore(store, buffer).ok());
  std::string bytes = buffer.str();
  bytes[0] = 'X';  // Break the magic.
  std::stringstream corrupt(bytes);
  ParameterStore dst;
  FillStore(dst, 25);
  Status status = LoadParameterStore(corrupt, dst);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, TruncatedFileIsAnErrorNotACrash) {
  ParameterStore store;
  FillStore(store, 26);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameterStore(store, buffer).ok());
  const std::string bytes = buffer.str();
  // Cut at several depths: inside the header, inside a name, inside a
  // matrix body.
  for (size_t cut : {size_t{2}, size_t{9}, size_t{17}, bytes.size() - 5}) {
    std::stringstream truncated(bytes.substr(0, cut));
    ParameterStore dst;
    FillStore(dst, 26);
    Status status = LoadParameterStore(truncated, dst);
    EXPECT_FALSE(status.ok()) << "cut at " << cut;
  }
}

TEST(SerializeTest, ParameterCountMismatchIsAnError) {
  ParameterStore store;
  FillStore(store, 27);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameterStore(store, buffer).ok());
  ParameterStore smaller;
  smaller.Create("layer.weight", Matrix(7, 3));
  Status status = LoadParameterStore(buffer, smaller);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, ShapeMismatchIsAnError) {
  ParameterStore store;
  FillStore(store, 28);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameterStore(store, buffer).ok());
  ParameterStore wrong_shape;
  wrong_shape.Create("layer.weight", Matrix(7, 4));  // 3 -> 4 columns.
  wrong_shape.Create("layer.bias", Matrix(1, 3));
  Status status = LoadParameterStore(buffer, wrong_shape);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, DuplicateParameterRecordIsAnError) {
  // Count equality alone would accept a file naming one parameter twice
  // and another never — that must not count as a complete restore.
  ParameterStore store;
  FillStore(store, 29);
  // Forge a store section: header (magic + version + count=2) followed by
  // the same parameter record twice.
  std::stringstream forged;
  forged.write("DMVP", 4);
  WritePod(forged, static_cast<uint32_t>(1));
  WritePod(forged, static_cast<uint64_t>(2));
  ASSERT_TRUE(WriteParameter(forged, *store.params()[0]).ok());
  ASSERT_TRUE(WriteParameter(forged, *store.params()[0]).ok());
  ParameterStore dst;
  FillStore(dst, 29);
  Status status = LoadParameterStore(forged, dst);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("twice"), std::string::npos);
}

TEST(SerializeTest, StringRecordBoundHoldsForWriterAndReader) {
  std::stringstream buffer;
  const std::string at_bound(1 << 20, 'x');
  ASSERT_TRUE(WriteString(buffer, at_bound).ok());
  StatusOr<std::string> back = ReadString(buffer);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, at_bound);

  std::stringstream past;
  EXPECT_EQ(WriteString(past, at_bound + "x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(past.str().empty());
  WritePod(past, static_cast<uint32_t>((1 << 20) + 1));
  EXPECT_EQ(ReadString(past).status().code(), StatusCode::kInvalidArgument);
}

using testutil::RawDims;
using testutil::UniformDims;

TEST(SerializeTest, DimensionTableBoundsHoldForWriterAndReader) {
  // At each bound (kMaxDims dimensions, kMaxTableSeries series) the table
  // round-trips and both sides count its series.
  for (const auto& [dims, series] :
       {std::make_pair(UniformDims(64, 1), 1),
        std::make_pair(UniformDims(24, 2), 1 << 24),
        std::make_pair(UniformDims(1, 1 << 12), 1 << 12)}) {
    std::stringstream buffer;
    StatusOr<int> written = WriteDims(buffer, dims);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    EXPECT_EQ(*written, series);
    EXPECT_EQ(buffer.str(), RawDims(dims));
    std::vector<Dimension> back;
    StatusOr<int> read = ReadDims(buffer, &back);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, series);
    ASSERT_EQ(back.size(), dims.size());
    for (size_t d = 0; d < dims.size(); ++d) {
      EXPECT_EQ(back[d].name, dims[d].name);
      EXPECT_EQ(back[d].members, dims[d].members);
    }
  }
  // One past a bound, the writer refuses before writing a byte and the
  // reader rejects the same table. 64 two-member dimensions would
  // overflow a 64-bit series count.
  for (const std::vector<Dimension>& dims :
       {UniformDims(65, 1), UniformDims(25, 2), UniformDims(64, 2),
        UniformDims(0, 1), UniformDims(2, 0)}) {
    std::stringstream buffer;
    EXPECT_EQ(WriteDims(buffer, dims).status().code(),
              StatusCode::kInvalidArgument)
        << dims.size() << " dims";
    EXPECT_TRUE(buffer.str().empty());
    std::stringstream raw(RawDims(dims));
    std::vector<Dimension> back;
    StatusOr<int> read = ReadDims(raw, &back);
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument)
        << dims.size() << " dims: " << read.status().ToString();
    EXPECT_NE(read.status().message().find("dimension table"),
              std::string::npos);
  }
}

TEST(SerializeTest, MissingFileIsAnIoError) {
  ParameterStore store;
  Status status =
      LoadParameterStoreFromFile("/nonexistent/nowhere.dmvp", store);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace nn
}  // namespace deepmvi
