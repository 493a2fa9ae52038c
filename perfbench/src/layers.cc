#include "layers.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <tuple>

#include "autodiff/ops.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "nn/adam.h"
#include "nn/serialize.h"
#include "stats.h"
#include "storage/data_source.h"

namespace perfbench {

using deepmvi::DataTensor;
using deepmvi::Mask;
using deepmvi::MaskOverlay;
using deepmvi::Matrix;
using deepmvi::Status;
using deepmvi::Stopwatch;
using deepmvi::ValueWindow;
using deepmvi::ad::Tape;
using deepmvi::ad::Var;
using deepmvi::internal::Chunk;
using deepmvi::internal::MakeChunk;
using deepmvi::obs::Span;

namespace {

// Keeps the GEMM replay's results observable so none is optimized away.
volatile double g_gemm_sink = 0.0;

// Checkpoint layout before the dimension table (TrainedDeepMvi::Save):
// "DMVC", a u32 version, and the fixed-width config record (4 x i32,
// f64, i32, f64, 4 x i32, f64, i32, u64, 5 x u8).
constexpr std::streamoff kConfigEnd = 4 + 4 + 77;

/// internal::PredictPositions, statement for statement, with a span
/// around each module call. MeasureCore checks that the walk built on it
/// reproduces TrainedDeepMvi::Predict bit for bit.
Var TracedPredictPositions(Tape& tape,
                           const deepmvi::internal::DeepMviModules& model,
                           const deepmvi::DeepMviConfig& config,
                           const DataTensor& data, const ValueWindow& values,
                           const MaskOverlay& avail, int row,
                           const Chunk& chunk,
                           const std::vector<int>& target_times,
                           deepmvi::obs::Tracer* tracer) {
  Span span(tracer, "core.predict_positions");
  const int n_pos = static_cast<int>(target_times.size());
  const int window = model.transformer.window();
  const int num_windows = chunk.len / window;
  std::vector<Var> features;
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
    Var htt_all;
    {
      Span tt(tracer, "core.tt");
      htt_all = model.transformer.Forward(tape, series, window_avail);
    }
    std::vector<int> local(n_pos);
    for (int i = 0; i < n_pos; ++i) local[i] = target_times[i] - chunk.start;
    features.push_back(deepmvi::ad::GatherRows(htt_all, local));
  } else {
    features.push_back(tape.Constant(Matrix(n_pos, config.filters)));
  }
  if (config.use_fine_grained) {
    Span fg(tracer, "core.fg");
    features.push_back(tape.Constant(deepmvi::internal::FineGrainedSignal(
        values, avail, row, chunk.start, window, target_times)));
  } else {
    features.push_back(tape.Constant(Matrix(n_pos, 1)));
  }
  if (config.use_kernel_regression && data.num_series() > 1) {
    Span kr(tracer, "core.kr");
    features.push_back(model.kernel_regression.Forward(tape, data, values,
                                                       avail, row, target_times));
  } else {
    features.push_back(tape.Constant(Matrix(n_pos, 3 * data.num_dims())));
  }
  return model.output.Forward(tape, deepmvi::ad::ConcatCols(features));
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

}  // namespace

Status LoadInternals(const std::string& path,
                     const deepmvi::TrainedDeepMvi& model,
                     ModelInternals* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IoError("cannot open " + path);
  is.seekg(kConfigEnd);
  uint32_t num_dims = 0;
  if (!deepmvi::nn::ReadPod(is, &num_dims)) {
    return Status::IoError("truncated checkpoint " + path);
  }
  for (uint32_t d = 0; d < num_dims; ++d) {
    DMVI_RETURN_IF_ERROR(deepmvi::nn::ReadString(is).status());
    uint32_t members = 0;
    if (!deepmvi::nn::ReadPod(is, &members)) {
      return Status::IoError("truncated checkpoint " + path);
    }
    for (uint32_t m = 0; m < members; ++m) {
      DMVI_RETURN_IF_ERROR(deepmvi::nn::ReadString(is).status());
    }
  }
  for (std::vector<double>* v : {&out->stats.mean, &out->stats.stddev}) {
    uint32_t count = 0;
    if (!deepmvi::nn::ReadPod(is, &count)) {
      return Status::IoError("truncated checkpoint " + path);
    }
    v->resize(count);
    is.read(reinterpret_cast<char*>(v->data()),
            static_cast<std::streamsize>(count * sizeof(double)));
  }
  if (!is || static_cast<int>(out->stats.mean.size()) != model.num_series()) {
    return Status::InvalidArgument("unexpected checkpoint layout in " + path);
  }
  out->config = model.config();
  out->dims = model.dims();
  out->store = std::make_unique<deepmvi::nn::ParameterStore>();
  deepmvi::Rng rng(out->config.seed);
  out->modules = deepmvi::internal::BuildDeepMviModules(
      out->store.get(), out->config, out->dims, rng);
  return deepmvi::nn::LoadParameterStore(is, *out->store);
}

namespace {

/// TrainedDeepMvi::Predict rebuilt from the public pieces: normalize, walk
/// the chunks through TracedPredictPositions, denormalize, restore the
/// available cells. Adds the walk's chunk and position counts to `stats`.
Matrix ReplicaPredict(const ModelInternals& internals, const PredictInput& input,
                      deepmvi::obs::Tracer* tracer, CoreStats* stats,
                      long long* targets_total, long long* positions_total) {
  Span walk_span(tracer, "core.walk");
  const deepmvi::DeepMviConfig& config = internals.config;
  const DataTensor& raw = *input.data;
  const Mask& mask = input.mask;
  const DataTensor data = raw.Normalized(internals.stats);
  const Matrix& values = data.values();
  Matrix imputed = values;
  Tape tape;
  const int t_len = data.num_times();
  for (int row = 0; row < data.num_series(); ++row) {
    std::vector<int> missing;
    for (int t = 0; t < t_len; ++t) {
      if (mask.missing(row, t)) missing.push_back(t);
    }
    size_t next = 0;
    while (next < missing.size()) {
      const Chunk chunk =
          MakeChunk(t_len, config.window, config.max_context, missing[next]);
      std::vector<int> targets;
      while (next < missing.size() && missing[next] < chunk.start + chunk.len) {
        if (missing[next] >= chunk.start) targets.push_back(missing[next]);
        ++next;
      }
      if (targets.empty()) break;
      tape.Reset();
      Var pred = TracedPredictPositions(tape, internals.modules, config, data,
                                        values, mask, row, chunk, targets,
                                        tracer);
      if (stats->chunks == 0) stats->tape_nodes = tape.num_nodes();
      stats->chunks += 1;
      *targets_total += static_cast<long long>(targets.size());
      *positions_total += chunk.len;
      for (size_t k = 0; k < targets.size(); ++k) {
        imputed(row, targets[k]) = pred.value()(static_cast<int>(k), 0);
      }
    }
  }
  imputed = DataTensor::Denormalize(imputed, internals.stats);
  for (int r = 0; r < imputed.rows(); ++r) {
    for (int t = 0; t < imputed.cols(); ++t) {
      if (mask.available(r, t)) imputed(r, t) = raw.values()(r, t);
    }
  }
  return imputed;
}

}  // namespace

CoreStats MeasureCore(const deepmvi::TrainedDeepMvi& model,
                      const ModelInternals& internals,
                      const std::vector<PredictInput>& inputs, int repeats,
                      deepmvi::obs::Tracer* tracer,
                      const deepmvi::obs::CollectingTraceSink* sink) {
  CoreStats stats;
  const size_t first_record = sink->records().size();
  std::vector<double> predict_ms;
  long long targets_total = 0, positions_total = 0;
  double walk_ms = 0.0;
  stats.replica_exact = true;
  // Public Predict and the traced replica alternate on each input, after
  // one untimed warm-up call, so both see the same machine state.
  for (const PredictInput& input : inputs) {
    const Matrix expected = model.Predict(*input.data, input.mask);
    for (int r = 0; r < repeats; ++r) {
      Stopwatch predict_watch;
      model.Predict(*input.data, input.mask);
      predict_ms.push_back(predict_watch.ElapsedMillis());
      Stopwatch walk_watch;
      const Matrix replica = ReplicaPredict(internals, input, tracer, &stats,
                                            &targets_total, &positions_total);
      walk_ms += walk_watch.ElapsedMillis();
      stats.replica_exact = stats.replica_exact && BitEqual(replica, expected);
    }
  }
  stats.predict_ms = Median(predict_ms);
  for (double ms : predict_ms) stats.predict_mean_ms += ms / predict_ms.size();

  // Self times from the spans: a span's duration minus its children's.
  const std::vector<deepmvi::obs::SpanRecord> records = sink->records();
  std::map<uint64_t, double> child_seconds;
  for (size_t r = first_record; r < records.size(); ++r) {
    child_seconds[records[r].parent_span_id] += records[r].duration_seconds;
  }
  std::map<std::string, double> self_ms;
  for (size_t r = first_record; r < records.size(); ++r) {
    const deepmvi::obs::SpanRecord& rec = records[r];
    auto children = child_seconds.find(rec.span_id);
    const double self = rec.duration_seconds -
                        (children == child_seconds.end() ? 0.0 : children->second);
    self_ms[rec.name] += self * 1e3;
  }
  const double walks = static_cast<double>(inputs.size()) * repeats;
  stats.walk_ms = walk_ms / walks;
  stats.chunks /= walks;
  stats.tt_ms = self_ms["core.tt"] / walks;
  stats.kr_ms = self_ms["core.kr"] / walks;
  stats.fg_ms = self_ms["core.fg"] / walks;
  stats.head_ms = self_ms["core.predict_positions"] / walks;
  stats.walk_self_ms = self_ms["core.walk"] / walks;
  stats.useful_share = positions_total > 0
                           ? static_cast<double>(targets_total) / positions_total
                           : 0.0;
  return stats;
}

GemmStats MeasureGemm(const deepmvi::TrainedDeepMvi& model,
                      const PredictInput& input, int repeats) {
  struct Call {
    int kind;  // 0 MatMul, 1 TransposeMatMul, 2 MatMulTranspose.
    int m, k, n;
  };
  std::vector<Call> calls;
  {
    deepmvi::obs::CollectingTraceSink sink;
    deepmvi::obs::Tracer tracer(&sink, deepmvi::obs::TraceLevel::kKernel);
    deepmvi::obs::SetGlobalTracer(&tracer);
    model.Predict(*input.data, input.mask);
    deepmvi::obs::SetGlobalTracer(nullptr);
    for (const deepmvi::obs::SpanRecord& rec : sink.records()) {
      int kind = -1;
      if (rec.name == "matmul.blocked") kind = 0;
      if (rec.name == "matmul.transpose_a") kind = 1;
      if (rec.name == "matmul.transpose_b") kind = 2;
      if (kind < 0) continue;
      Call call{kind, 0, 0, 0};
      for (const auto& [key, value] : rec.args) {
        if (key == "m") call.m = std::stoi(value);
        if (key == "k") call.k = std::stoi(value);
        if (key == "n") call.n = std::stoi(value);
      }
      calls.push_back(call);
    }
  }
  // Operands per distinct shape, in the layout each entry point expects.
  std::map<std::tuple<int, int, int, int>, std::pair<Matrix, Matrix>> operands;
  GemmStats stats;
  for (const Call& c : calls) {
    stats.flops += 2.0 * c.m * c.k * c.n;
    auto key = std::make_tuple(c.kind, c.m, c.k, c.n);
    if (operands.count(key)) continue;
    if (c.kind == 0) {
      operands[key] = {Matrix(c.m, c.k, 0.5), Matrix(c.k, c.n, 0.25)};
    } else if (c.kind == 1) {
      operands[key] = {Matrix(c.k, c.m, 0.5), Matrix(c.k, c.n, 0.25)};
    } else {
      operands[key] = {Matrix(c.m, c.k, 0.5), Matrix(c.n, c.k, 0.25)};
    }
  }
  stats.calls = static_cast<int>(calls.size());
  std::vector<double> totals;
  double checksum = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    for (const Call& c : calls) {
      const auto& [a, b] = operands[std::make_tuple(c.kind, c.m, c.k, c.n)];
      const Matrix out = c.kind == 0   ? a.MatMul(b)
                         : c.kind == 1 ? a.TransposeMatMul(b)
                                       : a.MatMulTranspose(b);
      checksum += out.data()[0];
    }
    totals.push_back(watch.ElapsedMillis());
  }
  g_gemm_sink = checksum;
  stats.ms = Median(totals);
  stats.gflops = stats.ms > 0.0 ? stats.flops / (stats.ms * 1e-3) / 1e9 : 0.0;
  return stats;
}

TrainStepStats MeasureTrainSteps(ModelInternals* internals,
                                 const DataTensor& data, const Mask& mask,
                                 int samples, uint64_t seed,
                                 deepmvi::obs::Tracer* tracer) {
  const deepmvi::DeepMviConfig& config = internals->config;
  deepmvi::storage::InMemoryDataSource source(&data);
  auto reader_or = source.MakeReader(internals->stats);
  DMVI_CHECK(reader_or.ok()) << reader_or.status().ToString();
  const deepmvi::storage::WindowReader& reader = **reader_or;
  const DataTensor layout = DataTensor::LayoutOnly(internals->dims);
  deepmvi::nn::Adam adam(internals->store.get(),
                         {.learning_rate = config.learning_rate});
  const auto& params = internals->store->params();
  std::vector<int> lengths = mask.MissingBlockLengths();
  if (lengths.empty()) lengths.push_back(config.window);
  const int num_series = data.num_series();
  const int t_len = data.num_times();

  TrainStepStats stats;
  double forward_ms = 0.0, backward_ms = 0.0, adam_ms = 0.0, read_us = 0.0;
  int batches = 0, in_batch = 0;
  std::vector<Matrix> reduced(params.size());
  deepmvi::Rng rng(seed);
  Tape tape;
  for (int attempt = 0; stats.samples < samples && attempt < 50 * samples;
       ++attempt) {
    const int row = rng.UniformInt(num_series);
    const int len = std::max(
        1, std::min(lengths[rng.UniformInt(static_cast<int>(lengths.size()))],
                    t_len / 2));
    const int start = std::clamp(rng.UniformInt(t_len) - rng.UniformInt(len), 0,
                                 t_len - len);
    const Chunk chunk =
        MakeChunk(t_len, config.window, config.max_context, start + len / 2);
    std::vector<int> targets;
    for (int t = std::max(start, chunk.start);
         t < std::min(start + len, chunk.start + chunk.len); ++t) {
      if (mask.available(row, t)) targets.push_back(t);
    }
    if (targets.empty()) continue;
    Stopwatch read_watch;
    auto window = reader.Read(chunk.start, chunk.len);
    read_us += read_watch.ElapsedSeconds() * 1e6;
    DMVI_CHECK(window.ok()) << window.status().ToString();
    std::vector<uint8_t> block_rows(num_series, 0);
    block_rows[row] = 1;
    const MaskOverlay synthetic(mask, start, start + len, block_rows);

    tape.Reset();
    Stopwatch forward_watch;
    Var loss;
    {
      Span forward(tracer, "autodiff.forward");
      Var pred = deepmvi::internal::PredictPositions(
          tape, internals->modules, config, layout, *window, synthetic, row,
          chunk, targets);
      Matrix truth(static_cast<int>(targets.size()), 1);
      for (size_t i = 0; i < targets.size(); ++i) {
        truth(static_cast<int>(i), 0) = (*window)(row, targets[i]);
      }
      loss = deepmvi::ad::WeightedMseLoss(
          pred, truth, Matrix(static_cast<int>(targets.size()), 1, 1.0));
    }
    forward_ms += forward_watch.ElapsedMillis();
    Stopwatch backward_watch;
    {
      Span backward(tracer, "autodiff.backward");
      tape.Backward(loss);
    }
    backward_ms += backward_watch.ElapsedMillis();
    for (size_t p = 0; p < params.size(); ++p) {
      const int leaf = tape.LeafIndexFor(params[p].get());
      if (leaf < 0) continue;
      if (const Matrix* g = tape.AllocatedGrad(leaf)) {
        if (reduced[p].size() == 0) {
          reduced[p] = *g;
        } else {
          reduced[p] += *g;
        }
      }
    }
    ++stats.samples;
    if (++in_batch == config.batch_size) {
      std::vector<const Matrix*> grads(params.size(), nullptr);
      for (size_t p = 0; p < params.size(); ++p) {
        if (reduced[p].size() == 0) continue;
        reduced[p] *= 1.0 / in_batch;
        grads[p] = &reduced[p];
      }
      Stopwatch adam_watch;
      {
        Span step(tracer, "nn.adam");
        adam.StepWithGrads(grads);
      }
      adam_ms += adam_watch.ElapsedMillis();
      ++batches;
      in_batch = 0;
      reduced.assign(params.size(), Matrix());
    }
  }
  if (stats.samples > 0) {
    stats.forward_ms = forward_ms / stats.samples;
    stats.backward_ms = backward_ms / stats.samples;
    stats.window_read_us = read_us / stats.samples;
  }
  if (batches > 0) stats.adam_ms = adam_ms / batches;
  return stats;
}

}  // namespace perfbench
