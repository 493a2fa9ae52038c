#ifndef DEEPMVI_CORE_TEMPORAL_TRANSFORMER_H_
#define DEEPMVI_CORE_TEMPORAL_TRANSFORMER_H_

#include <vector>

#include "core/deepmvi_config.h"
#include "nn/layers.h"

namespace deepmvi {

/// The paper's Temporal Transformer (Sec 4.1).
///
/// Differences from a vanilla transformer:
///  - features are per-window (non-overlapping convolution, Eq. 7), not
///    per-position;
///  - the query/key of window j are built from the NEIGHBOUR windows
///    [Y_{j-1}, Y_{j+1}] plus a positional encoding (Eq. 8-9), so
///    attention matches the context around a missing block against the
///    context around candidate windows;
///  - keys of windows containing any missing value are removed from the
///    attention (the availability product in Eq. 9);
///  - a decoder maps each window's attention output back to per-position
///    vectors (Eq. 13-14).
class TemporalTransformer {
 public:
  TemporalTransformer() = default;
  TemporalTransformer(nn::ParameterStore* store, const DeepMviConfig& config,
                      Rng& rng);

  /// Runs the transformer over one series chunk and decodes every window.
  ///
  /// `series` is a 1 x T row (T divisible by the window size) with
  /// unavailable values zeroed; `window_fully_available[j]` is 1.0 when
  /// every value of window j is available. Returns a T x p matrix of
  /// per-position output vectors htt (Eq. 14). The same body as the
  /// overload below with every window listed, which adds no gather node.
  ad::Var Forward(ad::Tape& tape, const Matrix& series,
                  const std::vector<double>& window_fully_available) const;

  /// Decodes only the listed windows: `windows` is non-empty, ascending
  /// and distinct, each in [0, T / w). Window windows[i] comes back at
  /// rows [i*w, i*w + w) of the (|windows| * w) x p result. Conv, the
  /// neighbour context, K and V still run on every window, since any
  /// window can be a key; Q, the attention rows (the availability rows of
  /// the listed windows), the decoder and the reshape run only for the
  /// listed windows.
  ///
  /// Each returned row, and every parameter gradient of a loss that reads
  /// only these rows, equals the every-window call's bit for bit. Each
  /// GEMM output element is one ascending-k chain that starts at +0.0, so
  /// it is never -0.0, and an undecoded row only ever added a ±0 product
  /// (a zero gradient times an activation) to such a chain. Each head
  /// gathers its own query rows right before its Q projection, so its
  /// query gradient still joins the context gradient right after its key
  /// gradient. One gather shared by the heads would sum their query
  /// gradients first, which changes the conv gradients whenever a decoded
  /// window is also an available key.
  ///
  /// The one semantic edge: a NaN or Inf activation in an undecoded window
  /// no longer reaches the weight gradients, where its product with a zero
  /// gradient used to make them NaN. This is the class of case that
  /// matmul_kernel.h's "no `a == 0.0` skip" note keeps visible; here the
  /// product is not formed at all.
  ad::Var Forward(ad::Tape& tape, const Matrix& series,
                  const std::vector<double>& window_fully_available,
                  const std::vector<int>& windows) const;

  int window() const { return window_; }
  int filters() const { return filters_; }

  /// Chunks of up to this many time steps read their positional encoding
  /// from the table built at construction; a longer max_context does not
  /// grow the table past 16 MiB (window 1, 128 filters).
  static constexpr int kMaxTableContext = 8192;

 private:
  int window_ = 0;
  int filters_ = 0;
  int num_heads_ = 0;
  bool use_context_window_ = true;

  nn::Conv1dNonOverlap conv_;
  // Per-head projections: queries/keys act on the 2p-dim neighbour
  // context, values on the p-dim window feature (Eq. 8-10).
  std::vector<nn::Linear> query_;
  std::vector<nn::Linear> key_;
  std::vector<nn::Linear> value_;
  // Decoder (Eq. 13-14).
  nn::Linear decoder_fc1_;  // p * num_heads -> p
  nn::Linear decoder_fc2_;  // p -> p
  nn::Linear decoder_out_;  // p -> window * p
  // Positional encoding of the first max(max_context / window, 2) windows
  // (max_context capped at kMaxTableContext), the most a MakeChunk chunk
  // holds. Row t depends only on t, so a chunk of n windows reads the
  // first n rows.
  Matrix pos_enc_;
};

}  // namespace deepmvi

#endif  // DEEPMVI_CORE_TEMPORAL_TRANSFORMER_H_
