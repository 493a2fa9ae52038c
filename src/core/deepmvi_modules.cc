#include "core/deepmvi_modules.h"

#include <algorithm>

namespace deepmvi {
namespace internal {

using ad::Tape;
using ad::Var;

DeepMviModules BuildDeepMviModules(nn::ParameterStore* store,
                                   const DeepMviConfig& config,
                                   const std::vector<Dimension>& dims,
                                   Rng& rng) {
  DMVI_CHECK_GT(config.window, 0) << "window must be resolved before build";
  DeepMviModules model;
  model.transformer = TemporalTransformer(store, config, rng);
  model.kernel_regression = KernelRegression(store, dims, config, rng);
  model.feature_dim = config.filters + 1 + 3 * static_cast<int>(dims.size());
  model.output = nn::Linear(store, "head", model.feature_dim, 1, rng);
  return model;
}

Chunk MakeChunk(int t_len, int window, int max_context, int center) {
  Chunk chunk;
  chunk.len = std::min((t_len / window) * window, (max_context / window) * window);
  chunk.len = std::max(chunk.len, std::min(2 * window, (t_len / window) * window));
  chunk.start = std::clamp(center - chunk.len / 2, 0, t_len - chunk.len);
  return chunk;
}

Matrix FineGrainedSignal(const ValueWindow& values, const MaskOverlay& avail,
                         int row, int chunk_start, int window,
                         const std::vector<int>& times) {
  Matrix out(static_cast<int>(times.size()), 1);
  for (size_t i = 0; i < times.size(); ++i) {
    const int local = times[i] - chunk_start;
    const int w0 = chunk_start + (local / window) * window;
    double sum = 0.0;
    int count = 0;
    for (int t = w0; t < w0 + window; ++t) {
      if (t >= values.t_begin() && t < values.t_end() &&
          avail.available(row, t)) {
        sum += values(row, t);
        ++count;
      }
    }
    out(static_cast<int>(i), 0) = count > 0 ? sum / count : 0.0;
  }
  return out;
}

Var PredictPositions(Tape& tape, const DeepMviModules& model,
                     const DeepMviConfig& config, const DataTensor& data,
                     const ValueWindow& values, const MaskOverlay& avail,
                     int row, const Chunk& chunk,
                     const std::vector<int>& target_times) {
  const int n_pos = static_cast<int>(target_times.size());
  const int window = model.transformer.window();
  const int num_windows = chunk.len / window;

  std::vector<Var> features;

  // ---- Temporal transformer features. ---------------------------------
  if (config.use_temporal_transformer && num_windows >= 2) {
    Matrix series(1, chunk.len);
    std::vector<double> window_avail(num_windows, 1.0);
    for (int t = 0; t < chunk.len; ++t) {
      const int abs_t = chunk.start + t;
      if (avail.available(row, abs_t)) {
        series(0, t) = values(row, abs_t);
      } else {
        window_avail[t / window] = 0.0;
      }
    }
    Var htt_all = model.transformer.Forward(tape, series, window_avail);
    std::vector<int> local(n_pos);
    for (int i = 0; i < n_pos; ++i) local[i] = target_times[i] - chunk.start;
    features.push_back(ad::GatherRows(htt_all, local));
  } else {
    features.push_back(tape.Constant(Matrix(n_pos, config.filters)));
  }

  // ---- Fine-grained local signal. ----------------------------------------
  if (config.use_fine_grained) {
    features.push_back(tape.Constant(FineGrainedSignal(
        values, avail, row, chunk.start, window, target_times)));
  } else {
    features.push_back(tape.Constant(Matrix(n_pos, 1)));
  }

  // ---- Kernel regression features. -----------------------------------------
  if (config.use_kernel_regression && data.num_series() > 1) {
    features.push_back(model.kernel_regression.Forward(tape, data, values, avail,
                                                       row, target_times));
  } else {
    features.push_back(
        tape.Constant(Matrix(n_pos, 3 * data.num_dims())));
  }

  // ---- Output head (Eq. 6). --------------------------------------------------
  return model.output.Forward(tape, ad::ConcatCols(features));
}

}  // namespace internal
}  // namespace deepmvi
