#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/simple.h"
#include "core/deepmvi.h"
#include "core/quality_profile.h"
#include "core/trained_deepmvi.h"
#include "core/deepmvi_modules.h"
#include "core/kernel_regression.h"
#include "core/temporal_transformer.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "scenario/scenarios.h"
#include "testing/test_util.h"

namespace deepmvi {
namespace {

using testutil::FastDeepMviConfig;

TEST(TemporalTransformerTest, OutputShape) {
  nn::ParameterStore store;
  Rng rng(1);
  DeepMviConfig config;
  config.window = 5;
  config.filters = 8;
  config.num_heads = 2;
  TemporalTransformer tt(&store, config, rng);
  ad::Tape tape;
  Matrix series(1, 30);
  std::vector<double> window_avail(6, 1.0);
  ad::Var htt = tt.Forward(tape, series, window_avail);
  EXPECT_EQ(htt.rows(), 30);
  EXPECT_EQ(htt.cols(), 8);
  EXPECT_TRUE(htt.value().AllFinite());
}

TEST(TemporalTransformerTest, MaskedWindowValuesCannotLeakPastNeighbours) {
  // A window's content reaches other positions through (a) its own key and
  // value, and (b) its neighbours' queries/keys (Eq. 8-9). When windows
  // j-1, j, j+1 are all unavailable, every such path for window j is
  // either key-masked or belongs to an excluded key, so positions at least
  // two windows away must be unaffected by window j's values.
  nn::ParameterStore store;
  Rng rng(2);
  DeepMviConfig config;
  config.window = 4;
  config.filters = 8;
  config.num_heads = 1;
  TemporalTransformer tt(&store, config, rng);

  Matrix series1 = Matrix::RandomGaussian(1, 32, rng);
  Matrix series2 = series1;
  // Perturb window 3 (positions 12..15).
  for (int t = 12; t < 16; ++t) series2(0, t) += 5.0;
  std::vector<double> avail(8, 1.0);
  avail[2] = avail[3] = avail[4] = 0.0;

  ad::Tape t1, t2;
  Matrix out1 = tt.Forward(t1, series1, avail).value();
  Matrix out2 = tt.Forward(t2, series2, avail).value();
  for (int t = 0; t < 32; ++t) {
    if (t >= 8 && t < 24) continue;  // Windows 2..5 may change (5 via 4's query).
    for (int c = 0; c < 8; ++c) {
      EXPECT_NEAR(out1(t, c), out2(t, c), 1e-9) << "t=" << t;
    }
  }
}

TEST(TemporalTransformerTest, GradientsFlowToAllParameters) {
  nn::ParameterStore store;
  Rng rng(3);
  DeepMviConfig config;
  config.window = 5;
  config.filters = 8;
  config.num_heads = 2;
  TemporalTransformer tt(&store, config, rng);
  ad::Tape tape;
  Matrix series = Matrix::RandomGaussian(1, 40, rng);
  std::vector<double> avail(8, 1.0);
  ad::Var htt = tt.Forward(tape, series, avail);
  tape.Backward(ad::Sum(ad::Square(htt)));
  int with_grad = 0, total = 0;
  for (const auto& p : store.params()) {
    ++total;
    if (p->on_tape(tape) && p->grad_on(tape).MaxAbs() > 0.0) ++with_grad;
  }
  // ReLU dead units can zero a few gradients, but most parameters must
  // receive signal.
  EXPECT_GT(with_grad, total / 2);
}

TEST(TemporalTransformerTest, CachedEncodingMatchesComputedEncoding) {
  // Same weights, four encoding tables: one longer than the chunk (read
  // as a prefix), one exactly its length, one too short, which falls back
  // to computing the encoding, and one whose unbounded max_context is
  // capped at kMaxTableContext. Forward must be bit-equal for all, in both
  // the context-window model and the positional-only ablation.
  for (const bool context_window : {true, false}) {
    std::vector<Matrix> outputs;
    for (const int max_context : {1024, 40, 10, INT32_MAX}) {
      nn::ParameterStore store;
      Rng rng(11);
      DeepMviConfig config;
      config.window = 5;
      config.filters = 8;
      config.num_heads = 2;
      config.max_context = max_context;
      config.use_context_window = context_window;
      TemporalTransformer tt(&store, config, rng);
      Rng data_rng(12);
      const Matrix series = Matrix::RandomGaussian(1, 40, data_rng);
      std::vector<double> avail(8, 1.0);
      avail[3] = 0.0;
      ad::Tape tape;
      outputs.push_back(tt.Forward(tape, series, avail).value());
    }
    for (size_t i = 1; i < outputs.size(); ++i) {
      testutil::ExpectMatricesBitIdentical(
          outputs[i], outputs[0],
          "table " + std::to_string(i) + (context_window ? "" : " (no ctx)"));
    }
  }
}

/// Every parameter gradient `tape` holds, in store order.
std::vector<Matrix> ParameterGrads(const nn::ParameterStore& store,
                                   const ad::Tape& tape) {
  std::vector<Matrix> grads;
  for (const auto& p : store.params()) {
    grads.push_back(p->on_tape(tape) ? p->grad_on(tape) : Matrix());
  }
  return grads;
}

TEST(TemporalTransformerTest, DecodedWindowsMatchEveryWindowBitForBit) {
  // Forward(series, avail, windows) must equal the matching rows of the
  // every-window Forward, in its output and in every parameter gradient of
  // a loss that reads only those rows. Windows 3 and 7 are not available
  // as keys.
  constexpr int kWindow = 5, kWindows = 10;
  const std::vector<std::vector<int>> window_sets = {
      {0, kWindows - 1},  // The first and the last window.
      {4, 5},             // Two adjacent windows.
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},  // Every window.
      {3},                // A window whose own key is masked.
      {6},                // A decoded window that is also an available key.
      {2, 6, 7},          // Both kinds at once.
  };
  for (const bool context_window : {true, false}) {
    nn::ParameterStore store;
    Rng rng(21);
    DeepMviConfig config;
    config.window = kWindow;
    config.filters = 8;
    config.num_heads = 3;
    config.use_context_window = context_window;
    TemporalTransformer tt(&store, config, rng);
    const Matrix series = Matrix::RandomGaussian(1, kWindow * kWindows, rng);
    std::vector<double> avail(kWindows, 1.0);
    avail[3] = avail[7] = 0.0;
    // Leaves stale, larger node buffers on `reused` before its first
    // decode-set graph.
    ad::Tape reused;
    {
      const Matrix longer = Matrix::RandomGaussian(1, 2 * kWindow * kWindows, rng);
      ad::Var out = tt.Forward(reused, longer, std::vector<double>(2 * kWindows, 1.0));
      reused.Backward(ad::Sum(ad::Square(out)));
      reused.Reset();
    }
    for (size_t s = 0; s < window_sets.size(); ++s) {
      const std::vector<int>& windows = window_sets[s];
      const std::string what = "set " + std::to_string(s) +
                               (context_window ? "" : " (no ctx)");
      const int rows = static_cast<int>(windows.size()) * kWindow;
      std::vector<int> every_rows, own_rows;
      for (size_t i = 0; i < windows.size(); ++i) {
        for (int p = 0; p < kWindow; ++p) {
          every_rows.push_back(windows[i] * kWindow + p);
          own_rows.push_back(static_cast<int>(i) * kWindow + p);
        }
      }
      Rng target_rng(100 + s);
      const Matrix target = Matrix::RandomGaussian(rows, config.filters, target_rng);
      const Matrix weight(rows, config.filters, 1.0);

      ad::Tape every;
      ad::Var every_out =
          ad::GatherRows(tt.Forward(every, series, avail), every_rows);
      ad::Var every_loss = ad::WeightedMseLoss(every_out, target, weight);
      every.Backward(every_loss);

      reused.Reset();
      ad::Var own_out =
          ad::GatherRows(tt.Forward(reused, series, avail, windows), own_rows);
      ad::Var own_loss = ad::WeightedMseLoss(own_out, target, weight);
      reused.Backward(own_loss);

      testutil::ExpectSameBits(own_out.value(), every_out.value(),
                               what + " output");
      testutil::ExpectSameBits(own_loss.value(), every_loss.value(),
                               what + " loss");
      const std::vector<Matrix> every_grads = ParameterGrads(store, every);
      const std::vector<Matrix> own_grads = ParameterGrads(store, reused);
      int nonzero = 0;
      for (size_t p = 0; p < every_grads.size(); ++p) {
        testutil::ExpectSameBits(own_grads[p], every_grads[p],
                                 what + " gradient of " + store.params()[p]->name());
        if (every_grads[p].size() > 0 && every_grads[p].MaxAbs() > 0.0) ++nonzero;
      }
      EXPECT_GT(nonzero, static_cast<int>(every_grads.size()) / 2) << what;
    }
  }
}

TEST(DeepMviTest, TargetWindowTrainingMatchesEveryWindowBitForBit) {
  // Fit's sample loss, run through PredictPositions once decoding only the
  // target windows and once decoding every window: the loss and every
  // parameter gradient must carry the same bits. Samples vary the row, the
  // block length and the blackout rows; JanataHack's 13-window chunks
  // clamp to the series start or end, and so do the short-context AirQ
  // chunks.
  struct Case {
    std::string dataset;
    int max_context;
  };
  for (const Case& c : {Case{"JanataHack", 1024}, Case{"AirQ", 1024},
                        Case{"AirQ", 200}}) {
    const DataTensor data = MakeDataset(c.dataset, DatasetScale::kReduced, 1);
    ScenarioConfig scenario;
    scenario.kind = ScenarioKind::kMcar;
    scenario.percent_incomplete = 1.0;
    scenario.seed = 7;
    const Mask mask =
        GenerateScenario(scenario, data.num_series(), data.num_times());
    DeepMviConfig config;
    config.window = 10;
    config.max_context = c.max_context;
    Rng init_rng(config.seed);
    nn::ParameterStore store;
    const internal::DeepMviModules model =
        internal::BuildDeepMviModules(&store, config, data.dims(), init_rng);
    const int t_len = data.num_times();
    Rng rng(31);
    ad::Tape targets_tape, every_tape;
    int samples = 0, at_start = 0, at_end = 0, compared = 0, mismatched = 0;
    while (samples < 40) {
      const int row = rng.UniformInt(data.num_series());
      const int len = 1 + rng.UniformInt(30);
      // A quarter of the blocks sit at the series start or end.
      const int where = rng.UniformInt(8);
      const int start = where == 0   ? 0
                        : where == 1 ? t_len - len
                                     : rng.UniformInt(t_len - len + 1);
      std::vector<uint8_t> block_rows(data.num_series(), 0);
      block_rows[row] = 1;
      for (int r = 0; r < data.num_series(); ++r) {
        if (rng.Bernoulli(0.3)) block_rows[r] = 1;
      }
      const internal::Chunk chunk = internal::MakeChunk(
          t_len, config.window, config.max_context, start + len / 2);
      std::vector<int> targets;
      for (int t = std::max(start, chunk.start);
           t < std::min(start + len, chunk.start + chunk.len); ++t) {
        if (mask.available(row, t)) targets.push_back(t);
      }
      if (targets.empty()) continue;
      ++samples;
      at_start += chunk.start == 0;
      at_end += chunk.start + chunk.len == t_len;
      const MaskOverlay synthetic(mask, start, start + len, block_rows);
      Matrix truth(static_cast<int>(targets.size()), 1);
      for (size_t i = 0; i < targets.size(); ++i) {
        truth(static_cast<int>(i), 0) = data.values()(row, targets[i]);
      }
      const Matrix weight(static_cast<int>(targets.size()), 1, 1.0);
      std::vector<Matrix> losses, grads[2];
      int side = 0;
      for (ad::Tape* tape : {&targets_tape, &every_tape}) {
        tape->Reset();
        ad::Var pred = internal::PredictPositions(
            *tape, model, config, data, data.values(), synthetic, row, chunk,
            targets, /*every_window=*/tape == &every_tape);
        ad::Var loss = ad::WeightedMseLoss(pred, truth, weight);
        tape->Backward(loss);
        losses.push_back(loss.value());
        grads[side++] = ParameterGrads(store, *tape);
      }
      const std::string what = c.dataset + "/" + std::to_string(c.max_context) +
                               " sample " + std::to_string(samples);
      testutil::ExpectSameBits(losses[0], losses[1], what + " loss");
      ASSERT_EQ(grads[0].size(), grads[1].size());
      for (size_t p = 0; p < grads[0].size(); ++p) {
        ++compared;
        if (grads[0][p].rows() != grads[1][p].rows() ||
            grads[0][p].cols() != grads[1][p].cols() ||
            std::memcmp(grads[0][p].data(), grads[1][p].data(),
                        sizeof(double) * grads[0][p].size()) != 0) {
          ++mismatched;
          ADD_FAILURE() << what << ": gradient of "
                        << store.params()[p]->name() << " differs";
        }
      }
    }
    EXPECT_EQ(mismatched, 0) << "of " << compared << " gradients";
    if (c.dataset == "JanataHack" || c.max_context < t_len) {
      EXPECT_GT(at_start, 0) << c.dataset << " has no chunk at the start";
      EXPECT_GT(at_end, 0) << c.dataset << " has no chunk at the end";
    }
  }
}

TEST(KernelRegressionTest, FeatureShapeAndValues) {
  // 2 stores x 3 items.
  Dimension stores{"store", {"s0", "s1"}};
  Dimension items{"item", {"i0", "i1", "i2"}};
  Matrix values(6, 4, 1.0);
  values(3, 2) = 7.0;  // store 1, item 0 at t=2.
  DataTensor data({stores, items}, values);
  Mask mask(6, 4);

  nn::ParameterStore store;
  Rng rng(4);
  DeepMviConfig config;
  config.embedding_dim = 4;
  KernelRegression kr(&store, data.dims(), config, rng);
  EXPECT_EQ(kr.feature_dim(), 6);

  ad::Tape tape;
  // Row (store 0, item 0): store-sibling is (store 1, item 0) = row 3.
  const int row = data.FlattenIndex({0, 0});
  ad::Var features = kr.Forward(tape, data, values, mask, row, {2, 3});
  EXPECT_EQ(features.rows(), 2);
  EXPECT_EQ(features.cols(), 6);
  // U along the store dimension at t=2 must equal the single sibling's
  // value (7.0) regardless of kernel weight; at t=3 it is 1.0.
  EXPECT_NEAR(features.value()(0, 0), 7.0, 1e-6);
  EXPECT_NEAR(features.value()(1, 0), 1.0, 1e-6);
  // Variance of a single sibling is 0.
  EXPECT_NEAR(features.value()(0, 2), 0.0, 1e-12);
}

TEST(KernelRegressionTest, UnavailableSiblingsExcluded) {
  Dimension dim{"series", {"a", "b", "c"}};
  Matrix values = {{0, 0}, {5, 5}, {9, 9}};
  DataTensor data({dim}, values);
  Mask mask(3, 2);
  mask.set_missing(2, 0);  // Series c unavailable at t=0.

  nn::ParameterStore store;
  Rng rng(5);
  DeepMviConfig config;
  KernelRegression kr(&store, data.dims(), config, rng);
  ad::Tape tape;
  ad::Var features = kr.Forward(tape, data, values, mask, 0, {0});
  // Only series b is available at t=0: U = 5 exactly.
  EXPECT_NEAR(features.value()(0, 0), 5.0, 1e-6);
}

TEST(KernelRegressionTest, TopSiblingsKeepNearestWithTiesToLowerRow) {
  // Six members, top_siblings = 2, target member 2. Hand-set 1-d
  // embeddings give squared distances m0: 9, m1: 1, m3: 1, m4: 0.25,
  // m5: 1, so the kept pair is m4 and — of the three-way tie at 1 — m1,
  // the lowest row. Each member's value identifies it in the features.
  Dimension dim{"series", {"m0", "m1", "m2", "m3", "m4", "m5"}};
  const Matrix values = {{100}, {10}, {0}, {20}, {1}, {1000}};
  DataTensor data({dim}, values);
  Mask mask(6, 1);

  nn::ParameterStore store;
  Rng rng(8);
  DeepMviConfig config;
  config.embedding_dim = 1;
  config.top_siblings = 2;
  KernelRegression kr(&store, data.dims(), config, rng);
  nn::Parameter* table = store.Find("kr.embed.series0.table");
  ASSERT_NE(table, nullptr);
  table->value() = Matrix{{5.0}, {3.0}, {2.0}, {1.0}, {2.5}, {3.0}};

  ad::Tape tape;
  const Matrix features = kr.Forward(tape, data, values, mask, 2, {0}).value();
  ASSERT_EQ(features.cols(), 3);
  const double k4 = std::exp(-0.25);
  const double k1 = std::exp(-1.0);
  EXPECT_NEAR(features(0, 0), (k4 * 1 + k1 * 10) / (k4 + k1 + 1e-8), 1e-12);
  EXPECT_NEAR(features(0, 1), k4 + k1, 1e-12);
  // Variance of the kept values {1, 10}: 50.5 - 5.5^2, exact.
  EXPECT_EQ(features(0, 2), 20.25);
}

TEST(KernelRegressionTest, GradientsReachEmbeddings) {
  Dimension dim{"series", {"a", "b", "c", "d"}};
  Rng data_rng(6);
  Matrix values = Matrix::RandomGaussian(4, 6, data_rng);
  DataTensor data({dim}, values);
  Mask mask(4, 6);

  nn::ParameterStore store;
  Rng rng(7);
  DeepMviConfig config;
  KernelRegression kr(&store, data.dims(), config, rng);
  ad::Tape tape;
  ad::Var features = kr.Forward(tape, data, values, mask, 1, {0, 3});
  tape.Backward(ad::Sum(ad::Square(features)));
  bool embedding_got_grad = false;
  for (const auto& p : store.params()) {
    if (p->on_tape(tape) && p->grad_on(tape).MaxAbs() > 0.0) {
      embedding_got_grad = true;
    }
  }
  EXPECT_TRUE(embedding_got_grad);
}

TEST(DeepMviTest, NamesReflectAblations) {
  EXPECT_EQ(DeepMviImputer().name(), "DeepMVI");
  DeepMviConfig no_tt;
  no_tt.use_temporal_transformer = false;
  EXPECT_EQ(DeepMviImputer(no_tt).name(), "DeepMVI-NoTT");
  DeepMviConfig flat;
  flat.flatten_multidim = true;
  EXPECT_EQ(DeepMviImputer(flat).name(), "DeepMVI1D");
  DeepMviConfig no_ctx;
  no_ctx.use_context_window = false;
  EXPECT_EQ(DeepMviImputer(no_ctx).name(), "DeepMVI-NoContext");
}

TEST(DeepMviTest, ContractOnSmallData) {
  SyntheticConfig data_config;
  data_config.num_series = 6;
  data_config.length = 120;
  data_config.seed = 8;
  Matrix x = GenerateSeriesMatrix(data_config);
  DataTensor data = DataTensor::FromMatrix(x);
  ScenarioConfig scenario;
  scenario.kind = ScenarioKind::kMcar;
  scenario.percent_incomplete = 1.0;
  scenario.seed = 9;
  Mask mask = GenerateScenario(scenario, 6, 120);

  DeepMviImputer imputer(FastDeepMviConfig());
  Matrix out = imputer.Impute(data, mask);
  ASSERT_EQ(out.rows(), 6);
  ASSERT_EQ(out.cols(), 120);
  EXPECT_TRUE(out.AllFinite());
  for (int r = 0; r < 6; ++r) {
    for (int t = 0; t < 120; ++t) {
      if (mask.available(r, t)) {
        EXPECT_EQ(out(r, t), x(r, t));
      }
    }
  }
  EXPECT_GT(imputer.train_stats().epochs_run, 0);
  EXPECT_EQ(imputer.train_stats().window_used, 10);
}

TEST(DeepMviTest, BeatsMeanImputationOnSeasonalData) {
  SyntheticConfig data_config;
  data_config.num_series = 8;
  data_config.length = 240;
  data_config.seasonal_periods = {24.0};
  data_config.seasonality_strength = 0.9;
  data_config.cross_correlation = 0.6;
  data_config.noise_level = 0.05;
  data_config.seed = 10;
  Matrix x = GenerateSeriesMatrix(data_config);
  DataTensor data = DataTensor::FromMatrix(x);
  ScenarioConfig scenario;
  scenario.kind = ScenarioKind::kMcar;
  scenario.percent_incomplete = 1.0;
  scenario.missing_fraction = 0.1;
  scenario.seed = 11;
  Mask mask = GenerateScenario(scenario, 8, 240);

  DeepMviConfig config = FastDeepMviConfig();
  config.max_epochs = 25;
  DeepMviImputer deep(config);
  MeanImputer mean;
  const double deep_mae = MaeOnMissing(deep.Impute(data, mask), x, mask);
  const double mean_mae = MaeOnMissing(mean.Impute(data, mask), x, mask);
  EXPECT_LT(deep_mae, 0.8 * mean_mae)
      << "DeepMVI " << deep_mae << " vs Mean " << mean_mae;
}

TEST(DeepMviTest, KernelRegressionCarriesBlackMarketSiblingSignal) {
  // Two nearly identical series; a long block missing in one. With cross
  // signal the error must be far below the series' own variation.
  Rng rng(12);
  Matrix x(4, 200);
  for (int t = 0; t < 200; ++t) {
    const double base = std::sin(2 * M_PI * t / 35.0) + 0.3 * std::sin(t * 0.91);
    for (int r = 0; r < 4; ++r) {
      x(r, t) = base * (1.0 + 0.05 * r) + 0.02 * rng.Gaussian();
    }
  }
  DataTensor data = DataTensor::FromMatrix(x);
  Mask mask(4, 200);
  mask.SetMissingRange(0, 80, 120);

  DeepMviConfig config = FastDeepMviConfig();
  config.max_epochs = 25;
  DeepMviImputer imputer(config);
  Matrix out = imputer.Impute(data, mask);
  const double mae = MaeOnMissing(out, x, mask);
  EXPECT_LT(mae, 0.25) << "sibling signal not exploited";
}

TEST(DeepMviTest, HandlesBlackoutWithoutSiblings) {
  // Blackout: all series missing in the same range; only within-series
  // signal available. Seasonal data keeps it learnable.
  SyntheticConfig data_config;
  data_config.num_series = 5;
  data_config.length = 300;
  data_config.seasonal_periods = {30.0};
  data_config.seasonality_strength = 0.95;
  data_config.cross_correlation = 0.1;
  data_config.noise_level = 0.05;
  data_config.seed = 13;
  Matrix x = GenerateSeriesMatrix(data_config);
  DataTensor data = DataTensor::FromMatrix(x);
  ScenarioConfig scenario;
  scenario.kind = ScenarioKind::kBlackout;
  scenario.block_size = 30;
  scenario.seed = 14;
  Mask mask = GenerateScenario(scenario, 5, 300);

  DeepMviConfig config = FastDeepMviConfig();
  config.max_epochs = 25;
  DeepMviImputer deep(config);
  MeanImputer mean;
  const double deep_mae = MaeOnMissing(deep.Impute(data, mask), x, mask);
  const double mean_mae = MaeOnMissing(mean.Impute(data, mask), x, mask);
  EXPECT_TRUE(deep.Impute(data, mask).AllFinite());
  EXPECT_LT(deep_mae, mean_mae * 1.05)
      << "DeepMVI " << deep_mae << " vs Mean " << mean_mae;
}

TEST(DeepMviTest, MultidimensionalSiblingsUsed) {
  // 3 stores x 4 items with strong store coherence: sibling stores carry
  // the signal for a missing block.
  Rng rng(15);
  Dimension stores{"store", {"s0", "s1", "s2"}};
  Dimension items{"item", {"i0", "i1", "i2", "i3"}};
  Matrix values(12, 150);
  for (int i = 0; i < 4; ++i) {
    std::vector<double> base(150);
    for (int t = 0; t < 150; ++t) {
      base[t] = std::sin(2 * M_PI * t / (20.0 + 7 * i)) + 0.1 * rng.Gaussian();
    }
    for (int s = 0; s < 3; ++s) {
      for (int t = 0; t < 150; ++t) {
        values(s * 4 + i, t) = base[t] * (1.0 + 0.1 * s) + 0.02 * rng.Gaussian();
      }
    }
  }
  DataTensor data({stores, items}, values);
  Mask mask(12, 150);
  mask.SetMissingRange(0, 50, 90);  // (s0, i0)

  DeepMviConfig config = FastDeepMviConfig();
  DeepMviImputer imputer(config);
  Matrix out = imputer.Impute(data, mask);
  EXPECT_LT(MaeOnMissing(out, values, mask), 0.3);
}

TEST(DeepMviTest, AblationsRunAndHonourContract) {
  SyntheticConfig data_config;
  data_config.num_series = 5;
  data_config.length = 100;
  data_config.seed = 16;
  Matrix x = GenerateSeriesMatrix(data_config);
  DataTensor data = DataTensor::FromMatrix(x);
  ScenarioConfig scenario;
  scenario.kind = ScenarioKind::kMcar;
  scenario.percent_incomplete = 1.0;
  scenario.seed = 17;
  Mask mask = GenerateScenario(scenario, 5, 100);

  for (int variant = 0; variant < 4; ++variant) {
    DeepMviConfig config = FastDeepMviConfig();
    config.max_epochs = 3;
    if (variant == 0) config.use_temporal_transformer = false;
    if (variant == 1) config.use_context_window = false;
    if (variant == 2) config.use_kernel_regression = false;
    if (variant == 3) config.use_fine_grained = false;
    DeepMviImputer imputer(config);
    Matrix out = imputer.Impute(data, mask);
    EXPECT_TRUE(out.AllFinite()) << imputer.name();
    for (int r = 0; r < 5; ++r) {
      for (int t = 0; t < 100; ++t) {
        if (mask.available(r, t)) {
          ASSERT_EQ(out(r, t), x(r, t)) << imputer.name();
        }
      }
    }
  }
}

TEST(DeepMviTest, Flatten1DVariantRuns) {
  Rng rng(18);
  Dimension stores{"store", {"s0", "s1"}};
  Dimension items{"item", {"i0", "i1", "i2"}};
  Matrix values = Matrix::RandomGaussian(6, 80, rng);
  DataTensor data({stores, items}, values);
  Mask mask(6, 80);
  mask.SetMissingRange(2, 20, 30);

  DeepMviConfig config = FastDeepMviConfig();
  config.max_epochs = 3;
  config.flatten_multidim = true;
  DeepMviImputer imputer(config);
  Matrix out = imputer.Impute(data, mask);
  EXPECT_TRUE(out.AllFinite());
  EXPECT_EQ(imputer.name(), "DeepMVI1D");
}

TEST(DeepMviTest, WindowAutoSelection) {
  // Large missing blocks (mean > 100) must select w = 20.
  SyntheticConfig data_config;
  data_config.num_series = 4;
  data_config.length = 600;
  data_config.seed = 19;
  Matrix x = GenerateSeriesMatrix(data_config);
  DataTensor data = DataTensor::FromMatrix(x);
  Mask mask(4, 600);
  mask.SetMissingRange(0, 100, 250);  // Block of 150.

  DeepMviConfig config = FastDeepMviConfig();
  config.max_epochs = 1;
  DeepMviImputer imputer(config);
  imputer.Impute(data, mask);
  EXPECT_EQ(imputer.train_stats().window_used, 20);
}

TEST(DeepMviTest, ImputationIsBitIdenticalForSameSeed) {
  // Determinism regression guard: training and inference draw every random
  // number from the config seed, so two fresh imputers with the same
  // config must produce bit-identical matrices.
  testutil::SeasonalCase c = testutil::MakeSeasonalCase(17, 5, 120);
  DeepMviConfig config = testutil::TinyDeepMviConfig();
  config.seed = 99;

  DeepMviImputer first(config);
  Matrix out1 = first.Impute(c.data, c.mask);
  DeepMviImputer second(config);
  Matrix out2 = second.Impute(c.data, c.mask);

  testutil::ExpectMatricesBitIdentical(out1, out2, "same-seed impute");
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(DeepMviTest, BatchSizeBelowOneIsAnError) {
  // Samples are drawn a batch at a time, so a batch with no room would
  // never finish an epoch.
  testutil::SeasonalCase c = testutil::MakeSeasonalCase(29, 4, 80);
  for (int batch_size : {0, -3}) {
    DeepMviConfig config = testutil::TinyDeepMviConfig();
    config.batch_size = batch_size;
    storage::InMemoryDataSource source(&c.data);
    StatusOr<TrainedDeepMvi> trained = DeepMviImputer(config).Fit(source, c.mask);
    ASSERT_FALSE(trained.ok()) << "batch_size=" << batch_size;
    EXPECT_EQ(trained.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(trained.status().message().find("batch_size"), std::string::npos)
        << trained.status().ToString();
  }
  // The in-core overload aborts with the same error.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DeepMviConfig config = testutil::TinyDeepMviConfig();
  config.batch_size = 0;
  EXPECT_DEATH(DeepMviImputer(config).Fit(c.data, c.mask), "batch_size");
}

// ---- Training reference profile ---------------------------------------------

TEST(QualityProfileTest, FitAttachesProfileMatchingTrainingData) {
  testutil::SeasonalCase c = testutil::MakeSeasonalCase(71, 5, 120);
  DeepMviConfig config = testutil::TinyDeepMviConfig();
  TrainedDeepMvi trained = DeepMviImputer(config).Fit(c.data, c.mask);

  const QualityProfile* profile = trained.quality_profile();
  ASSERT_NE(profile, nullptr);
  ASSERT_EQ(profile->num_series(), 5);
  for (int r = 0; r < 5; ++r) {
    const QualityProfile::Series& series =
        profile->series[static_cast<size_t>(r)];
    // Counts partition the timeline by the training mask.
    int64_t available = 0;
    for (int t = 0; t < 120; ++t) {
      if (!c.mask.missing(r, t)) ++available;
    }
    EXPECT_EQ(series.count, available) << "series " << r;
    EXPECT_EQ(series.count + series.missing, 120) << "series " << r;
    ASSERT_EQ(series.decile_edges.size(),
              static_cast<size_t>(QualityProfile::kNumDecileEdges));
    // Moments are over raw (unnormalized) available values.
    double mean = 0.0, lo = 0.0, hi = 0.0;
    bool first = true;
    for (int t = 0; t < 120; ++t) {
      if (c.mask.missing(r, t)) continue;
      const double v = c.data.values()(r, t);
      mean += v;
      lo = first ? v : std::min(lo, v);
      hi = first ? v : std::max(hi, v);
      first = false;
    }
    mean /= static_cast<double>(available);
    EXPECT_NEAR(series.mean, mean, 1e-9) << "series " << r;
    EXPECT_DOUBLE_EQ(series.min, lo) << "series " << r;
    EXPECT_DOUBLE_EQ(series.max, hi) << "series " << r;
    // Decile edges are nondecreasing and inside the observed range.
    for (size_t d = 0; d < series.decile_edges.size(); ++d) {
      EXPECT_GE(series.decile_edges[d], lo);
      EXPECT_LE(series.decile_edges[d], hi);
      if (d > 0) {
        EXPECT_GE(series.decile_edges[d], series.decile_edges[d - 1]);
      }
    }
  }
  EXPECT_NEAR(profile->MissingRate(), 0.1, 0.05);
}

TEST(QualityProfileTest, RecordSurvivesSaveLoadRoundTrip) {
  testutil::SeasonalCase c = testutil::MakeSeasonalCase(73, 5, 120);
  TrainedDeepMvi trained =
      DeepMviImputer(testutil::TinyDeepMviConfig()).Fit(c.data, c.mask);
  const std::string path = testutil::TempPath("profile_roundtrip.dmvi");
  ASSERT_TRUE(trained.Save(path).ok());

  StatusOr<TrainedDeepMvi> loaded = TrainedDeepMvi::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const QualityProfile* original = trained.quality_profile();
  const QualityProfile* restored = loaded->quality_profile();
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->num_series(), original->num_series());
  for (int r = 0; r < original->num_series(); ++r) {
    const auto& want = original->series[static_cast<size_t>(r)];
    const auto& got = restored->series[static_cast<size_t>(r)];
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.missing, want.missing);
    EXPECT_EQ(got.mean, want.mean);        // Bit-exact: doubles round-trip.
    EXPECT_EQ(got.stddev, want.stddev);
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
    EXPECT_EQ(got.decile_edges, want.decile_edges);
  }

  // Re-saving the loaded model reproduces the original file exactly —
  // the profile record is part of the checkpoint's byte identity.
  const std::string resaved = testutil::TempPath("profile_resave.dmvi");
  ASSERT_TRUE(loaded->Save(resaved).ok());
  EXPECT_EQ(FileBytes(path), FileBytes(resaved));
}

TEST(QualityProfileTest, LegacyCheckpointWithoutRecordLoadsAndServes) {
  testutil::SeasonalCase c = testutil::MakeSeasonalCase(79, 5, 120);
  TrainedDeepMvi trained =
      DeepMviImputer(testutil::TinyDeepMviConfig()).Fit(c.data, c.mask);
  const std::string full_path = testutil::TempPath("profile_full.dmvi");
  ASSERT_TRUE(trained.Save(full_path).ok());

  // Synthesize a pre-profile checkpoint by stripping the trailing DMVQ
  // record: serialize the model's own profile to learn the record's exact
  // size, then truncate the file by that many bytes.
  std::ostringstream record;
  ASSERT_TRUE(
      AppendQualityProfileRecord(record, *trained.quality_profile()).ok());
  const std::string full_bytes = FileBytes(full_path);
  ASSERT_GT(full_bytes.size(), record.str().size());
  const std::string legacy_bytes =
      full_bytes.substr(0, full_bytes.size() - record.str().size());
  const std::string legacy_path = testutil::TempPath("profile_legacy.dmvi");
  {
    std::ofstream out(legacy_path, std::ios::binary);
    out << legacy_bytes;
  }

  StatusOr<TrainedDeepMvi> legacy = TrainedDeepMvi::Load(legacy_path);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy->quality_profile(), nullptr);
  // Inference is untouched by the missing profile.
  testutil::ExpectMatricesBitIdentical(legacy->Predict(c.data, c.mask),
                                       trained.Predict(c.data, c.mask),
                                       "legacy predict");
  // Re-saving a legacy model writes legacy bytes: loading never invents a
  // profile, so old checkpoints stay byte-stable through load/save cycles.
  const std::string legacy_resaved =
      testutil::TempPath("profile_legacy_resave.dmvi");
  ASSERT_TRUE(legacy->Save(legacy_resaved).ok());
  EXPECT_EQ(FileBytes(legacy_resaved), legacy_bytes);
}

TEST(QualityProfileTest, CorruptTrailingRecordIsAnError) {
  testutil::SeasonalCase c = testutil::MakeSeasonalCase(83, 5, 120);
  TrainedDeepMvi trained =
      DeepMviImputer(testutil::TinyDeepMviConfig()).Fit(c.data, c.mask);
  const std::string path = testutil::TempPath("profile_corrupt.dmvi");
  ASSERT_TRUE(trained.Save(path).ok());
  std::string bytes = FileBytes(path);
  // Chop mid-record: a partial DMVQ body must fail loudly, not silently
  // degrade to "no profile".
  bytes.resize(bytes.size() - 3);
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  EXPECT_FALSE(TrainedDeepMvi::Load(path).ok());

  // A 16-byte record (magic, version 1, count 2^26) in place of the real
  // one: the count must equal the model's 5 series, checked before the
  // profile is sized for 2^26 series.
  std::ostringstream record;
  ASSERT_TRUE(
      AppendQualityProfileRecord(record, *trained.quality_profile()).ok());
  ASSERT_TRUE(trained.Save(path).ok());
  std::string forged = FileBytes(path);
  forged.resize(forged.size() - record.str().size());
  forged += "DMVQ";
  forged.append(4, '\0');
  forged[forged.size() - 4] = 1;
  const int64_t count = int64_t{1} << 26;
  forged.append(reinterpret_cast<const char*>(&count), sizeof(count));
  WriteFileBytes(path, forged);
  testutil::ExpectErrorUnderAddressSpaceLimit(
      [&] { return TrainedDeepMvi::Load(path).status(); });
  const Status status = TrainedDeepMvi::Load(path).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("quality profile covers 67108864"),
            std::string::npos)
      << status.ToString();
}

TEST(CheckpointTest, OutOfRangeArchitectureFieldsFailBeforeAllocating) {
  testutil::SeasonalCase c = testutil::MakeSeasonalCase(89, 5, 120);
  TrainedDeepMvi trained =
      DeepMviImputer(testutil::TinyDeepMviConfig()).Fit(c.data, c.mask);
  const std::string path = testutil::TempPath("header_bounds.dmvi");
  ASSERT_TRUE(trained.Save(path).ok());
  const std::string bytes = FileBytes(path);

  // The header is "DMVC", a uint32 version, then int32 filters, window,
  // num_heads and embedding_dim, a double kernel_gamma, int32 top_siblings
  // (offset 32), and after five more fields int32 max_context (offset 68).
  // Unbounded, the large values make BuildDeepMviModules allocate tens to
  // hundreds of GB (max_context sizes the positional-encoding table), and
  // a negative top_siblings indexes before the sibling candidates.
  struct Field {
    const char* name;
    size_t offset;
    std::vector<int32_t> values;
  };
  const std::vector<int32_t> too_big_or_small = {1 << 16, 1 << 20, 0, -1};
  const Field fields[] = {
      {"filters", 8, too_big_or_small},
      {"window", 12, too_big_or_small},
      {"num_heads", 16, too_big_or_small},
      {"embedding_dim", 20, too_big_or_small},
      {"top_siblings", 32, {0, -1, -5, INT32_MIN, 1 << 30}},
      {"max_context", 68, {1 << 16, 1 << 20, 0, -1, INT32_MAX}}};
  const std::string mutated_path = testutil::TempPath("header_mutated.dmvi");
  for (const Field& field : fields) {
    for (const int32_t value : field.values) {
      std::string mutated = bytes;
      std::memcpy(&mutated[field.offset], &value, sizeof(value));
      {
        std::ofstream out(mutated_path, std::ios::binary);
        out << mutated;
      }
      StatusOr<TrainedDeepMvi> loaded = TrainedDeepMvi::Load(mutated_path);
      ASSERT_FALSE(loaded.ok()) << field.name << " = " << value;
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(loaded.status().message().find(field.name), std::string::npos)
          << loaded.status().ToString();
    }
  }
  // The untouched file still loads.
  EXPECT_TRUE(TrainedDeepMvi::Load(path).ok());
}

TEST(CheckpointTest, FitAndLoadShareEveryConfigBound) {
  // Every bounded DeepMviConfig field at each end of its range and one
  // past it. At the bound Fit trains and its checkpoint loads; one past,
  // Fit returns InvalidArgument naming the field, and so does Load of a
  // checkpoint whose header holds that value.
  testutil::SeasonalCase c = testutil::MakeSeasonalCase(97, 4, 60);
  storage::InMemoryDataSource source(&c.data);
  const std::string base_path = testutil::TempPath("bounds_base.dmvi");
  ASSERT_TRUE(DeepMviImputer(testutil::TinyDeepMviConfig())
                  .Fit(c.data, c.mask)
                  .Save(base_path)
                  .ok());
  const std::string base = FileBytes(base_path);
  struct Bound {
    const char* name;
    int DeepMviConfig::*field;
    int at;
    int past;
    int offset;  // Of the int32 in the checkpoint header; -1: not stored.
  };
  const Bound bounds[] = {
      {"filters", &DeepMviConfig::filters, 1, 0, 8},
      {"filters", &DeepMviConfig::filters, 128, 129, 8},
      {"window", &DeepMviConfig::window, 0, -1, 12},
      {"window", &DeepMviConfig::window, 512, 513, 12},
      {"num_heads", &DeepMviConfig::num_heads, 1, 0, 16},
      {"num_heads", &DeepMviConfig::num_heads, 32, 33, 16},
      {"embedding_dim", &DeepMviConfig::embedding_dim, 1, 0, 20},
      {"embedding_dim", &DeepMviConfig::embedding_dim, 256, 257, 20},
      {"top_siblings", &DeepMviConfig::top_siblings, 1, 0, 32},
      {"top_siblings", &DeepMviConfig::top_siblings, 1 << 24,
       (1 << 24) + 1, 32},
      {"max_epochs", &DeepMviConfig::max_epochs, 0, -1, 44},
      {"samples_per_epoch", &DeepMviConfig::samples_per_epoch, 0, -1, 48},
      {"batch_size", &DeepMviConfig::batch_size, 1, 0, 52},
      {"max_context", &DeepMviConfig::max_context, 1, 0, 68},
      {"max_context", &DeepMviConfig::max_context, 8192, 8193, 68}};
  const std::string path = testutil::TempPath("bounds.dmvi");
  for (const Bound& bound : bounds) {
    const std::string where =
        std::string(bound.name) + " = " + std::to_string(bound.at);
    DeepMviConfig config = testutil::TinyDeepMviConfig();
    config.max_epochs = 1;
    config.*bound.field = bound.at;
    StatusOr<TrainedDeepMvi> trained = DeepMviImputer(config).Fit(source, c.mask);
    ASSERT_TRUE(trained.ok()) << where << ": " << trained.status().ToString();
    ASSERT_TRUE(trained->Save(path).ok()) << where;
    StatusOr<TrainedDeepMvi> loaded = TrainedDeepMvi::Load(path);
    EXPECT_TRUE(loaded.ok()) << where << ": " << loaded.status().ToString();

    config.*bound.field = bound.past;
    const Status fit = DeepMviImputer(config).Fit(source, c.mask).status();
    EXPECT_EQ(fit.code(), StatusCode::kInvalidArgument) << bound.name;
    EXPECT_NE(fit.message().find(bound.name), std::string::npos)
        << fit.ToString();
    if (bound.offset < 0) continue;
    std::string mutated = base;
    const int32_t past = bound.past;
    std::memcpy(&mutated[bound.offset], &past, sizeof(past));
    WriteFileBytes(path, mutated);
    const Status load = TrainedDeepMvi::Load(path).status();
    EXPECT_EQ(load.code(), StatusCode::kInvalidArgument) << bound.name;
    EXPECT_NE(load.message().find(bound.name), std::string::npos)
        << load.ToString();
  }
  // A stored window was resolved by Fit, so Load rejects 0 as well.
  std::string unresolved = base;
  std::memset(&unresolved[12], 0, sizeof(int32_t));
  WriteFileBytes(path, unresolved);
  const Status load = TrainedDeepMvi::Load(path).status();
  EXPECT_EQ(load.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(load.message().find("window"), std::string::npos)
      << load.ToString();

  // The double fields, NaN and the infinities included: an accepted value
  // trains and its header loads; a rejected one fails Fit and Load alike,
  // naming the field. (A NaN kernel_gamma used to load and serve NaN.)
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct RealBound {
    const char* name;
    double DeepMviConfig::*field;
    double value;
    bool accepted;
    int offset;  // Of the double in the checkpoint header.
  };
  const RealBound real_bounds[] = {
      {"kernel_gamma", &DeepMviConfig::kernel_gamma, nan, false, 24},
      {"kernel_gamma", &DeepMviConfig::kernel_gamma, inf, false, 24},
      {"kernel_gamma", &DeepMviConfig::kernel_gamma, -inf, false, 24},
      {"kernel_gamma", &DeepMviConfig::kernel_gamma, 0.0, false, 24},
      {"kernel_gamma", &DeepMviConfig::kernel_gamma, -5.0, false, 24},
      {"learning_rate", &DeepMviConfig::learning_rate, nan, false, 36},
      {"learning_rate", &DeepMviConfig::learning_rate, inf, false, 36},
      {"learning_rate", &DeepMviConfig::learning_rate, -inf, false, 36},
      {"learning_rate", &DeepMviConfig::learning_rate, 0.0, false, 36},
      {"learning_rate", &DeepMviConfig::learning_rate, -1e-3, false, 36},
      {"validation_fraction", &DeepMviConfig::validation_fraction, nan, false,
       60},
      {"validation_fraction", &DeepMviConfig::validation_fraction, -0.1, false,
       60},
      {"validation_fraction", &DeepMviConfig::validation_fraction, 1.5, false,
       60},
      {"validation_fraction", &DeepMviConfig::validation_fraction, 0.0, true,
       60},
      {"validation_fraction", &DeepMviConfig::validation_fraction, 1.0, true,
       60}};
  for (const RealBound& bound : real_bounds) {
    const std::string where =
        std::string(bound.name) + " = " + std::to_string(bound.value);
    DeepMviConfig config = testutil::TinyDeepMviConfig();
    config.max_epochs = 1;
    config.*bound.field = bound.value;
    const Status fit = DeepMviImputer(config).Fit(source, c.mask).status();
    std::string mutated = base;
    std::memcpy(&mutated[bound.offset], &bound.value, sizeof(double));
    WriteFileBytes(path, mutated);
    const Status load = TrainedDeepMvi::Load(path).status();
    for (const Status& status : {fit, load}) {
      if (bound.accepted) {
        EXPECT_TRUE(status.ok()) << where << ": " << status.ToString();
        continue;
      }
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << where;
      EXPECT_NE(status.message().find(bound.name), std::string::npos)
          << where << ": " << status.ToString();
    }
  }
}

TEST(CheckpointTest, CraftedRecordsFailBeforeAllocating) {
  testutil::SeasonalCase c = testutil::MakeSeasonalCase(101, 5, 120);
  TrainedDeepMvi trained =
      DeepMviImputer(testutil::TinyDeepMviConfig()).Fit(c.data, c.mask);
  const std::string path = testutil::TempPath("crafted.dmvi");
  ASSERT_TRUE(trained.Save(path).ok());
  const std::string bytes = FileBytes(path);
  auto expect_rejected = [&](const std::string& crafted,
                             const std::string& message) {
    WriteFileBytes(path, crafted);
    testutil::ExpectErrorUnderAddressSpaceLimit(
        [&] { return TrainedDeepMvi::Load(path).status(); });
    const Status status = TrainedDeepMvi::Load(path).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << message;
    EXPECT_NE(status.message().find(message), std::string::npos)
        << status.ToString();
  };

  // The first matrix record claims 65536x65536 (32 GiB of doubles): its
  // shape is checked against the parameter before any body is allocated.
  // The store section is "DMVP", uint32 version, uint64 count, then the
  // record's name string and its int32 rows and cols.
  const size_t store = bytes.find("DMVP");
  ASSERT_NE(store, std::string::npos);
  uint32_t name_length = 0;
  std::memcpy(&name_length, &bytes[store + 16], sizeof(name_length));
  std::string wide = bytes;
  const int32_t huge = 65536;
  const size_t shape = store + 20 + name_length;
  std::memcpy(&wide[shape], &huge, sizeof(huge));
  std::memcpy(&wide[shape + 4], &huge, sizeof(huge));
  expect_rejected(wide, "65536x65536");

  // 64 two-member dimensions in place of the real table: their 2^64
  // series overflow any count, and the table is rejected as it is read,
  // before the model is built. The config ends at byte 85.
  constexpr size_t kConfigEnd = 85;
  const std::string table = testutil::RawDims(trained.dims());
  ASSERT_EQ(bytes.compare(kConfigEnd, table.size(), table), 0);
  expect_rejected(bytes.substr(0, kConfigEnd) +
                      testutil::RawDims(testutil::UniformDims(64, 2)) +
                      bytes.substr(kConfigEnd + table.size()),
                  "dimension table");
}

TEST(CheckpointTest, ShortNormalizationBodyAllocatesOnlyWhatTheFileHolds) {
  // A real header, then 24 two-member dimensions (2^24 series, the table
  // bound) and a mean vector that claims all 2^24 entries, 128 MiB, but
  // the file ends there. Load must fail on the missing bytes without first
  // sizing the vector from the claim: the child's cap leaves it 64 MiB.
  testutil::SeasonalCase c = testutil::MakeSeasonalCase(107, 5, 120);
  TrainedDeepMvi trained =
      DeepMviImputer(testutil::TinyDeepMviConfig()).Fit(c.data, c.mask);
  const std::string path = testutil::TempPath("short_vector.dmvi");
  ASSERT_TRUE(trained.Save(path).ok());
  constexpr size_t kConfigEnd = 85;
  const uint32_t count = uint32_t{1} << 24;
  std::string crafted = FileBytes(path).substr(0, kConfigEnd) +
                        testutil::RawDims(testutil::UniformDims(24, 2));
  crafted.append(reinterpret_cast<const char*>(&count), sizeof(count));
  WriteFileBytes(path, crafted);
  testutil::ExpectErrorUnderAddressSpaceLimit(
      [&] { return TrainedDeepMvi::Load(path).status(); },
      testutil::AddressSpaceCap::kCurrentPlus64MiB);
  const Status status = TrainedDeepMvi::Load(path).status();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("vector body missing"), std::string::npos)
      << status.ToString();
}

TEST(CheckpointTest, SaveRejectsATableLoadWouldReject) {
  // 65 dimensions, one past nn::kMaxDims: the model trains, but Save fails
  // instead of writing a checkpoint Load would refuse.
  testutil::SeasonalCase c = testutil::MakeSeasonalCase(103, 5, 120);
  std::vector<Dimension> dims = c.data.dims();
  for (const Dimension& extra : testutil::UniformDims(64, 1)) {
    dims.push_back(extra);
  }
  const DataTensor data(dims, c.data.values());
  TrainedDeepMvi trained =
      DeepMviImputer(testutil::TinyDeepMviConfig()).Fit(data, c.mask);
  const Status saved = trained.Save(testutil::TempPath("65_dims.dmvi"));
  EXPECT_EQ(saved.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(saved.message().find("dimension count 65"), std::string::npos)
      << saved.ToString();
}

TEST(QualityProfileTest, ComputeIsMaskAware) {
  // Direct unit check of the computation: a hand-built source with known
  // values, one masked cell, and one NaN in an *available* slot — the NaN
  // is excluded from moments but still counted as available.
  Matrix values(2, 6);
  for (int t = 0; t < 6; ++t) {
    values(0, t) = static_cast<double>(t + 1);  // 1..6
    values(1, t) = 10.0;
  }
  values(1, 2) = std::nan("");
  DataTensor data = DataTensor::FromMatrix(values);
  Mask mask(2, 6);
  mask.set_missing(0, 3);
  storage::InMemoryDataSource source(&data);

  StatusOr<QualityProfile> profile = ComputeQualityProfile(source, mask);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ASSERT_EQ(profile->num_series(), 2);
  EXPECT_EQ(profile->series[0].count, 5);
  EXPECT_EQ(profile->series[0].missing, 1);
  EXPECT_NEAR(profile->series[0].mean, (1 + 2 + 3 + 5 + 6) / 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(profile->series[0].min, 1.0);
  EXPECT_DOUBLE_EQ(profile->series[0].max, 6.0);
  EXPECT_EQ(profile->series[1].count, 6);  // NaN slot is still "available".
  EXPECT_EQ(profile->series[1].missing, 0);
  EXPECT_DOUBLE_EQ(profile->series[1].mean, 10.0);
  EXPECT_DOUBLE_EQ(profile->series[1].stddev, 0.0);
}

}  // namespace
}  // namespace deepmvi
