#include "nn/layers.h"

#include <cmath>
#include <utility>
#include <vector>

namespace deepmvi {
namespace nn {

using ad::Tape;
using ad::Var;

// ---- Linear -----------------------------------------------------------------

Linear::Linear(ParameterStore* store, const std::string& name, int in_features,
               int out_features, Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = store->Create(name + ".weight", XavierUniform(in_features, out_features, rng));
  bias_ = store->Create(name + ".bias", Matrix(1, out_features));
}

Var Linear::Forward(Tape& tape, const Var& x) const {
  DMVI_CHECK(weight_ != nullptr) << "Linear used before construction";
  DMVI_CHECK_EQ(x.cols(), in_features_);
  Var w = weight_->OnTape(tape);
  Var b = bias_->OnTape(tape);
  return ad::Affine(x, w, b);
}

// ---- Embedding ---------------------------------------------------------------

Embedding::Embedding(ParameterStore* store, const std::string& name,
                     int num_embeddings, int dim, Rng& rng)
    : num_embeddings_(num_embeddings), dim_(dim) {
  table_ = store->Create(name + ".table", GaussianInit(num_embeddings, dim, rng));
}

Var Embedding::Forward(Tape& tape, const std::vector<int>& indices) const {
  DMVI_CHECK(table_ != nullptr);
  return ad::GatherRows(table_->OnTape(tape), indices);
}

Var Embedding::Table(Tape& tape) const {
  DMVI_CHECK(table_ != nullptr);
  return table_->OnTape(tape);
}

// ---- Conv1dNonOverlap ----------------------------------------------------------

Conv1dNonOverlap::Conv1dNonOverlap(ParameterStore* store, const std::string& name,
                                   int window, int filters, Rng& rng)
    : window_(window), filters_(filters),
      linear_(store, name + ".conv", window, filters, rng) {}

Var Conv1dNonOverlap::Forward(Tape& tape, const Var& series) const {
  DMVI_CHECK_EQ(series.rows(), 1);
  DMVI_CHECK_EQ(series.cols() % window_, 0);
  const int num_windows = series.cols() / window_;
  // Row-major reshape turns contiguous windows into rows.
  Var windows = ad::Reshape(series, num_windows, window_);
  return linear_.Forward(tape, windows);
}

// ---- FeedForward -----------------------------------------------------------------

FeedForward::FeedForward(ParameterStore* store, const std::string& name,
                         int in_features, int hidden, int out_features, Rng& rng)
    : fc1_(store, name + ".fc1", in_features, hidden, rng),
      fc2_(store, name + ".fc2", hidden, out_features, rng) {}

Var FeedForward::Forward(Tape& tape, const Var& x) const {
  return fc2_.Forward(tape, ad::Relu(fc1_.Forward(tape, x)));
}

// ---- Positional encoding ------------------------------------------------------------

Matrix SinusoidalPositionalEncoding(int length, int dim) {
  // Columns 2i and 2i+1 share the wavelength 10000^{2i/dim}.
  std::vector<double> wavelength(dim);
  for (int r = 0; r < dim; ++r) {
    wavelength[r] = std::pow(10000.0, static_cast<double>(r - r % 2) / dim);
  }
  Matrix enc(length, dim);
  for (int t = 0; t < length; ++t) {
    for (int r = 0; r < dim; ++r) {
      enc(t, r) = r % 2 == 0 ? std::sin(t / wavelength[r])
                             : std::cos(t / wavelength[r]);
    }
  }
  return enc;
}

// ---- MultiHeadSelfAttention ------------------------------------------------------------

MultiHeadSelfAttention::MultiHeadSelfAttention(ParameterStore* store,
                                               const std::string& name,
                                               const AttentionConfig& config,
                                               Rng& rng)
    : config_(config) {
  DMVI_CHECK_EQ(config.model_dim % config.num_heads, 0);
  head_dim_ = config.model_dim / config.num_heads;
  for (int h = 0; h < config.num_heads; ++h) {
    const std::string prefix = name + ".head" + std::to_string(h);
    q_.emplace_back(store, prefix + ".q", config.model_dim, head_dim_, rng);
    k_.emplace_back(store, prefix + ".k", config.model_dim, head_dim_, rng);
    v_.emplace_back(store, prefix + ".v", config.model_dim, head_dim_, rng);
  }
  out_ = Linear(store, name + ".out", config.model_dim, config.model_dim, rng);
}

Var MultiHeadSelfAttention::Forward(Tape& tape, const Var& x,
                                    const std::vector<double>& key_avail) const {
  DMVI_CHECK_EQ(x.cols(), config_.model_dim);
  const int t_len = x.rows();
  DMVI_CHECK_EQ(static_cast<int>(key_avail.size()), t_len);

  // Availability of each key position, broadcast over queries: one
  // constant node that every head's softmax reads.
  Matrix avail(t_len, t_len, 0.0);
  for (int q = 0; q < t_len; ++q) {
    for (int k = 0; k < t_len; ++k) avail(q, k) = key_avail[k];
  }
  Var avail_node = tape.Constant(std::move(avail));

  const double inv_sqrt = 1.0 / std::sqrt(static_cast<double>(head_dim_));
  std::vector<Var> heads;
  heads.reserve(config_.num_heads);
  for (int h = 0; h < config_.num_heads; ++h) {
    Var q = q_[h].Forward(tape, x);
    Var k = k_[h].Forward(tape, x);
    Var v = v_[h].Forward(tape, x);
    Var scores = ad::Scale(ad::MatMulTranspose(q, k), inv_sqrt);
    Var weights = ad::MaskedSoftmaxRows(scores, avail_node);
    heads.push_back(ad::MatMul(weights, v));
  }
  return out_.Forward(tape, ad::ConcatCols(heads));
}

// ---- GruCell ------------------------------------------------------------------------------

GruCell::GruCell(ParameterStore* store, const std::string& name, int input_dim,
                 int hidden_dim, Rng& rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim),
      xz_(store, name + ".xz", input_dim, hidden_dim, rng),
      hz_(store, name + ".hz", hidden_dim, hidden_dim, rng),
      xr_(store, name + ".xr", input_dim, hidden_dim, rng),
      hr_(store, name + ".hr", hidden_dim, hidden_dim, rng),
      xh_(store, name + ".xh", input_dim, hidden_dim, rng),
      hh_(store, name + ".hh", hidden_dim, hidden_dim, rng) {}

Var GruCell::Forward(Tape& tape, const Var& x, const Var& h) const {
  DMVI_CHECK_EQ(x.cols(), input_dim_);
  DMVI_CHECK_EQ(h.cols(), hidden_dim_);
  Var z = ad::Sigmoid(ad::Add(xz_.Forward(tape, x), hz_.Forward(tape, h)));
  Var r = ad::Sigmoid(ad::Add(xr_.Forward(tape, x), hr_.Forward(tape, h)));
  Var candidate =
      ad::Tanh(ad::Add(xh_.Forward(tape, x), hh_.Forward(tape, ad::Mul(r, h))));
  // h' = (1 - z) * h + z * candidate.
  Var one_minus_z = ad::AddScalar(ad::Neg(z), 1.0);
  return ad::Add(ad::Mul(one_minus_z, h), ad::Mul(z, candidate));
}

}  // namespace nn
}  // namespace deepmvi
