#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// In-process per-layer measurements: calls into the public functions of
// core, tensor, autodiff, nn and storage on a workload's own inputs, with
// the benchmark's spans around each call. Nothing here changes the
// program under test; every replay is checked against the public
// TrainedDeepMvi::Predict it mirrors.

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/deepmvi_modules.h"
#include "core/trained_deepmvi.h"
#include "nn/parameter.h"
#include "obs/trace.h"
#include "tensor/data_tensor.h"
#include "tensor/mask.h"

namespace perfbench {

/// A checkpoint's modules rebuilt from its file with their own parameter
/// store, so each module's Forward can be called (and trained) on its own.
struct ModelInternals {
  deepmvi::DeepMviConfig config;
  std::vector<deepmvi::Dimension> dims;
  deepmvi::DataTensor::NormalizationStats stats;
  std::unique_ptr<deepmvi::nn::ParameterStore> store;
  deepmvi::internal::DeepMviModules modules;
};

/// Reads the checkpoint at `path` (written by TrainedDeepMvi::Save for
/// `model`) into `out`.
deepmvi::Status LoadInternals(const std::string& path,
                              const deepmvi::TrainedDeepMvi& model,
                              ModelInternals* out);

/// One Predict input of a workload.
struct PredictInput {
  const deepmvi::DataTensor* data = nullptr;
  deepmvi::Mask mask;
};

/// Core-layer figures, per Predict call (averaged over the inputs).
struct CoreStats {
  double predict_ms = 0.0;  // Median public Predict wall time, 1 thread.
  // Mean of the same calls. They alternate with the replica walks, so a
  // slow phase of the machine weighs on both means alike: the module-sum
  // check compares the walk's self times with this.
  double predict_mean_ms = 0.0;
  double walk_ms = 0.0;     // The traced replica walk, whole call.
  double chunks = 0.0;
  double tt_ms = 0.0;    // TemporalTransformer::Forward.
  double kr_ms = 0.0;    // KernelRegression::Forward.
  double fg_ms = 0.0;    // internal::FineGrainedSignal.
  double head_ms = 0.0;  // PredictPositions self time (gather, concat, head).
  double walk_self_ms = 0.0;  // The walk's own time: normalize, plan, restore.
  double useful_share = 0.0;  // Target positions / positions decoded.
  double tape_nodes = 0.0;    // Tape nodes after one chunk.
  bool replica_exact = false;  // Replica output == Predict, bit for bit.
};

/// Times `model.Predict` on every input `repeats` times, then replays the
/// same chunk walk module by module under spans recorded on `tracer`
/// (whose sink must be `sink`).
CoreStats MeasureCore(const deepmvi::TrainedDeepMvi& model,
                      const ModelInternals& internals,
                      const std::vector<PredictInput>& inputs, int repeats,
                      deepmvi::obs::Tracer* tracer,
                      const deepmvi::obs::CollectingTraceSink* sink);

/// The GEMMs of one Predict: shapes captured from the tensor layer's own
/// kernel spans, then re-issued untraced through Matrix::MatMul,
/// TransposeMatMul and MatMulTranspose.
struct GemmStats {
  int calls = 0;
  double flops = 0.0;  // 2 m k n summed over the calls.
  double ms = 0.0;     // Median over repeats of the summed call time.
  double gflops = 0.0;
};
GemmStats MeasureGemm(const deepmvi::TrainedDeepMvi& model,
                      const PredictInput& input, int repeats);

/// Training steps replayed on the workload's data: blocks drawn from the
/// mask's block-length distribution, forward (PredictPositions + weighted
/// MSE on a tape), Tape::Backward, and one Adam step per batch. Mutates
/// the internals' parameters.
struct TrainStepStats {
  int samples = 0;
  double forward_ms = 0.0;      // Per sample.
  double backward_ms = 0.0;     // Per sample.
  double adam_ms = 0.0;         // Per batch.
  double window_read_us = 0.0;  // WindowReader::Read per sample.
};
TrainStepStats MeasureTrainSteps(ModelInternals* internals,
                                 const deepmvi::DataTensor& data,
                                 const deepmvi::Mask& mask, int samples,
                                 uint64_t seed, deepmvi::obs::Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
