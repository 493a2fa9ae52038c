#include "core/temporal_transformer.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace deepmvi {

using ad::Tape;
using ad::Var;

TemporalTransformer::TemporalTransformer(nn::ParameterStore* store,
                                         const DeepMviConfig& config, Rng& rng)
    : window_(config.window),
      filters_(config.filters),
      num_heads_(config.num_heads),
      use_context_window_(config.use_context_window),
      conv_(store, "tt.conv", config.window, config.filters, rng),
      decoder_fc1_(store, "tt.dec1", config.filters * config.num_heads,
                   config.filters, rng),
      decoder_fc2_(store, "tt.dec2", config.filters, config.filters, rng),
      decoder_out_(store, "tt.out", config.filters,
                   config.window * config.filters, rng) {
  DMVI_CHECK_GT(window_, 0);
  pos_enc_ = nn::SinusoidalPositionalEncoding(
      std::max(std::min(config.max_context, kMaxTableContext) / window_, 2),
      2 * filters_);
  const int context_dim = 2 * config.filters;
  for (int h = 0; h < num_heads_; ++h) {
    const std::string prefix = "tt.head" + std::to_string(h);
    query_.emplace_back(store, prefix + ".q", context_dim, context_dim, rng);
    key_.emplace_back(store, prefix + ".k", context_dim, context_dim, rng);
    value_.emplace_back(store, prefix + ".v", config.filters, config.filters, rng);
  }
}

Var TemporalTransformer::Forward(
    Tape& tape, const Matrix& series,
    const std::vector<double>& window_fully_available) const {
  DMVI_CHECK_EQ(series.rows(), 1);
  DMVI_CHECK_EQ(series.cols() % window_, 0);
  const int num_windows = series.cols() / window_;
  DMVI_CHECK_EQ(static_cast<int>(window_fully_available.size()), num_windows);
  DMVI_CHECK_GE(num_windows, 2) << "series too short for the transformer";

  // ---- Window features (Eq. 7). -----------------------------------------
  Var x = tape.Constant(series);
  Var y = conv_.Forward(tape, x);  // num_windows x p

  // ---- Neighbour context [Y_{j-1}, Y_{j+1}] (Eq. 8-9). ------------------
  Var zero_row = tape.Constant(Matrix(1, filters_));
  Var y_prev = ad::ConcatRows({zero_row, ad::SliceRows(y, 0, num_windows - 1)});
  Var y_next = ad::ConcatRows({ad::SliceRows(y, 1, num_windows - 1), zero_row});
  Matrix pos_enc =
      num_windows <= pos_enc_.rows()
          ? pos_enc_.Block(0, 0, num_windows, pos_enc_.cols())
          : nn::SinusoidalPositionalEncoding(num_windows, 2 * filters_);
  Var context;
  if (use_context_window_) {
    context = ad::Add(ad::ConcatCols({y_prev, y_next}),
                      tape.Constant(std::move(pos_enc)));
  } else {
    // Ablation "No Context Window": positional information only.
    context = tape.Constant(std::move(pos_enc));
  }

  // ---- Attention availability: keys must be fully-available windows and
  // self-attention to the own window is excluded (its key would leak the
  // values being imputed during training).
  // One constant node that every head's softmax reads.
  Matrix avail(num_windows, num_windows);
  for (int q = 0; q < num_windows; ++q) {
    for (int k = 0; k < num_windows; ++k) {
      avail(q, k) = (k != q) ? window_fully_available[k] : 0.0;
    }
  }
  Var avail_node = tape.Constant(std::move(avail));

  const double inv_sqrt = 1.0 / std::sqrt(2.0 * filters_);
  std::vector<Var> heads;
  heads.reserve(num_heads_);
  for (int h = 0; h < num_heads_; ++h) {
    Var q = query_[h].Forward(tape, context);
    Var k = key_[h].Forward(tape, context);
    Var v = value_[h].Forward(tape, y);
    Var scores = ad::Scale(ad::MatMulTranspose(q, k), inv_sqrt);
    Var weights = ad::MaskedSoftmaxRows(scores, avail_node);
    heads.push_back(ad::MatMul(weights, v));  // num_windows x p
  }
  Var h = ad::ConcatCols(heads);  // num_windows x (p * num_heads)

  // ---- Decoder (Eq. 13-14). ----------------------------------------------
  Var hff = ad::Relu(
      decoder_fc2_.Forward(tape, ad::Relu(decoder_fc1_.Forward(tape, ad::Relu(h)))));
  Var decoded = ad::Relu(decoder_out_.Forward(tape, hff));  // n x (w * p)
  // Row-major reshape: window j's w positions become w consecutive rows.
  return ad::Reshape(decoded, num_windows * window_, filters_);
}

}  // namespace deepmvi
