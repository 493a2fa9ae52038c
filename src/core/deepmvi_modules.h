#ifndef DEEPMVI_CORE_DEEPMVI_MODULES_H_
#define DEEPMVI_CORE_DEEPMVI_MODULES_H_

#include <vector>

#include "core/deepmvi_config.h"
#include "core/kernel_regression.h"
#include "core/temporal_transformer.h"
#include "nn/layers.h"
#include "tensor/data_tensor.h"
#include "tensor/value_window.h"

namespace deepmvi {
namespace internal {

/// The assembled DeepMVI model: all modules share one parameter store.
/// The struct holds Parameter pointers into the store (whoever owns the
/// ParameterStore owns the weights) plus the transformer's positional-
/// encoding table, so move it rather than copy it.
///
/// It is shared so that the training path (DeepMviImputer::Fit) and the
/// serving path (TrainedDeepMvi::PredictCells, checkpoint loading)
/// assemble and run exactly the same model.
struct DeepMviModules {
  TemporalTransformer transformer;
  KernelRegression kernel_regression;
  nn::Linear output;
  int feature_dim = 0;
};

/// Builds the modules in the canonical order (transformer, kernel
/// regression, output head), drawing initial values from `rng` exactly as
/// training does. A model rebuilt from the same config and dimensions is
/// therefore parameter-for-parameter (name and shape) compatible with a
/// checkpoint written from a trained instance. `config.window` must
/// already be resolved (> 0).
DeepMviModules BuildDeepMviModules(nn::ParameterStore* store,
                                   const DeepMviConfig& config,
                                   const std::vector<Dimension>& dims,
                                   Rng& rng);

/// Chunk geometry: [start, start + len) with len a positive multiple of
/// the window size, len <= max_context, covering as much of the series as
/// possible around `center`.
struct Chunk {
  int start = 0;
  int len = 0;
};

Chunk MakeChunk(int t_len, int window, int max_context, int center);

/// Per-position fine-grained signal (Eq. 15): masked mean of the window
/// containing each target position. All windows containing a target lie
/// inside [chunk_start, chunk_start + chunk_len) and therefore inside
/// `values` when the window covers the chunk.
Matrix FineGrainedSignal(const ValueWindow& values, const MaskOverlay& avail,
                         int row, int chunk_start, int window,
                         const std::vector<int>& times);

/// Runs the full forward pass for one (series, chunk, targets) triple and
/// returns the predictions (|targets| x 1). `values` is a normalized value
/// window covering at least the chunk's time range (in-core callers pass
/// the full matrix, which converts implicitly) and `avail` the
/// availability view the forward pass may read. `data` supplies index
/// metadata only (dims, siblings) and may be values-free (LayoutOnly):
/// every data read goes through `values`.
ad::Var PredictPositions(ad::Tape& tape, const DeepMviModules& model,
                         const DeepMviConfig& config, const DataTensor& data,
                         const ValueWindow& values, const MaskOverlay& avail,
                         int row, const Chunk& chunk,
                         const std::vector<int>& target_times);

}  // namespace internal
}  // namespace deepmvi

#endif  // DEEPMVI_CORE_DEEPMVI_MODULES_H_
