// Micro-benchmarks (google-benchmark) for the substrates: dense matmul,
// Jacobi SVD, centroid decomposition, autodiff attention forward/backward,
// kernel regression features, one DeepMVI training step, one training
// sample's forward and backward pass, concurrent Predict calls, and one
// pass of the offline Predict + per-store PredictCells call pattern.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>

#include "autodiff/ops.h"
#include "common/stopwatch.h"
#include "core/deepmvi.h"
#include "core/deepmvi_modules.h"
#include "core/kernel_regression.h"
#include "core/temporal_transformer.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "linalg/centroid.h"
#include "linalg/svd.h"
#include "nn/layers.h"
#include "scenario/scenarios.h"
#include "tensor/matmul_kernel.h"

namespace deepmvi {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Matrix a = Matrix::RandomGaussian(n, n, rng);
  Matrix b = Matrix::RandomGaussian(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMul(b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{2} * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

// The naive ijk reference the blocked kernel is tested against; kept as a
// benchmark so the blocked-vs-naive speedup stays visible PR over PR.
void BM_MatMulNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Matrix a = Matrix::RandomGaussian(n, n, rng);
  Matrix b = Matrix::RandomGaussian(n, n, rng);
  for (auto _ : state) {
    Matrix c(n, n);
    internal::MatMulNaive(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * int64_t{2} * n * n * n);
}
BENCHMARK(BM_MatMulNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_TransposeMatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Matrix a = Matrix::RandomGaussian(n, n, rng);
  Matrix b = Matrix::RandomGaussian(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.TransposeMatMul(b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{2} * n * n * n);
}
BENCHMARK(BM_TransposeMatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulTranspose(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Matrix a = Matrix::RandomGaussian(n, n, rng);
  Matrix b = Matrix::RandomGaussian(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMulTranspose(b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{2} * n * n * n);
}
BENCHMARK(BM_MatMulTranspose)->Arg(64)->Arg(128)->Arg(256);

// One full DeepMVI training step fanned over worker threads; Arg is the
// thread count. Results are bit-identical across Args — only time moves.
void BM_DeepMviFitThreads(benchmark::State& state) {
  SyntheticConfig data_config;
  data_config.num_series = 8;
  data_config.length = 240;
  data_config.seed = 21;
  Matrix x = GenerateSeriesMatrix(data_config);
  DataTensor data = DataTensor::FromMatrix(x);
  Mask mask(8, 240);
  for (int r = 0; r < 8; ++r) mask.SetMissingRange(r, 30 * r, 30 * r + 12);
  DeepMviConfig config;
  config.max_epochs = 2;
  config.samples_per_epoch = 32;
  config.batch_size = 8;
  config.patience = 1;
  config.filters = 16;
  config.num_heads = 2;
  config.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    DeepMviImputer imputer(config);
    benchmark::DoNotOptimize(imputer.Fit(data, mask));
  }
}
BENCHMARK(BM_DeepMviFitThreads)->Arg(1)->Arg(2)->Arg(4);

// One training sample's forward and backward pass on a reused tape, as
// Fit's slot tapes run it (PredictPositions, WeightedMseLoss, Backward),
// without Fit's sampling schedule and Adam step. Arg 0 is a
// JanataHack-shaped chunk (134 steps: 13 windows of 10, 2 dims), Arg 1 an
// AirQ-shaped one (600 steps: 60 windows). The sample hides a 10-step
// block of row 3 and predicts its cells.
void BM_TrainSample(benchmark::State& state) {
  const DataTensor data = MakeDataset(state.range(0) == 0 ? "JanataHack" : "AirQ",
                                      DatasetScale::kReduced, /*seed=*/1);
  DeepMviConfig config;
  config.window = 10;
  Rng rng(config.seed);
  nn::ParameterStore store;
  const internal::DeepMviModules model =
      internal::BuildDeepMviModules(&store, config, data.dims(), rng);
  const Mask mask(data.num_series(), data.num_times());
  const int row = 3, block_start = data.num_times() / 2 - 5, block_len = 10;
  std::vector<uint8_t> block_rows(data.num_series(), 0);
  block_rows[row] = 1;
  const MaskOverlay synthetic(mask, block_start, block_start + block_len,
                              block_rows);
  const internal::Chunk chunk =
      internal::MakeChunk(data.num_times(), config.window, config.max_context,
                          block_start + block_len / 2);
  std::vector<int> targets;
  for (int t = block_start; t < block_start + block_len; ++t) targets.push_back(t);
  Matrix truth(block_len, 1);
  for (int i = 0; i < block_len; ++i) truth(i, 0) = data.values()(row, targets[i]);
  const Matrix weight(block_len, 1, 1.0);
  ad::Tape tape;
  for (auto _ : state) {
    tape.Reset();
    ad::Var pred = internal::PredictPositions(tape, model, config, data,
                                              data.values(), synthetic, row,
                                              chunk, targets);
    ad::Var loss = ad::WeightedMseLoss(pred, truth, weight);
    tape.Backward(loss);
    benchmark::DoNotOptimize(loss.scalar());
  }
  state.counters["windows"] = chunk.len / config.window;
  state.counters["tape_nodes"] = tape.num_nodes();
}
BENCHMARK(BM_TrainSample)->Arg(0)->Arg(1);

// Predict with the model of CI's AirQ recipe (dmvi_train --preset AirQ
// --max-epochs 2 --samples 32: reduced AirQ, MCAR over every series,
// scenario seed 7) from 1 and 3 concurrent callers, as a server's HTTP
// workers call it; each call builds its own tape. Google Benchmark's time
// column divides the wall time by the calls of all threads, so the
// `call_ms` counter reports one call's wall time, averaged over threads:
// its 3-thread over 1-thread ratio is what concurrent callers cost each
// other.
struct PredictFixture {
  DataTensor data;
  Mask mask;
  TrainedDeepMvi model;
};

PredictFixture MakeAirQRecipeFixture() {
  PredictFixture fixture;
  fixture.data = MakeDataset("AirQ", DatasetScale::kReduced, /*seed=*/1);
  ScenarioConfig scenario;
  scenario.kind = ScenarioKind::kMcar;
  scenario.percent_incomplete = 1.0;
  scenario.seed = 7;
  fixture.mask = GenerateScenario(scenario, fixture.data.num_series(),
                                  fixture.data.num_times());
  DeepMviConfig config;
  config.max_epochs = 2;
  config.samples_per_epoch = 32;
  DeepMviImputer imputer(config);
  fixture.model = imputer.Fit(fixture.data, fixture.mask);
  return fixture;
}

void BM_PredictConcurrent(benchmark::State& state) {
  static const PredictFixture fixture = MakeAirQRecipeFixture();
  double call_seconds = 0.0;
  for (auto _ : state) {
    Stopwatch watch;
    benchmark::DoNotOptimize(fixture.model.Predict(fixture.data, fixture.mask));
    call_seconds += watch.ElapsedSeconds();
  }
  state.counters["call_ms"] = benchmark::Counter(
      1e3 * call_seconds / static_cast<double>(state.iterations()),
      benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_PredictConcurrent)->Threads(1)->Threads(3)->UseRealTime();

// One pass of the repository benchmark's offline call pattern: full-scale
// JanataHack (2128 x 134, 10% MCAR, mask seed 7) after a short fit, one
// Predict, then one PredictCells per store (28 series each) in store
// order, all against the same mask; each store's predictions must equal
// the pass's Predict output, which stays alive until the pass ends.
// Besides each call's wall time (`predict_ms`, `cells_call_ms`) it
// reports the minor page faults (getrusage ru_minflt) per Predict and per
// PredictCells call: a call whose buffers come back from the kernel each
// time pays for it here.
struct OfflineFixture {
  DataTensor data;
  Mask mask;
  TrainedDeepMvi model;
  std::vector<std::vector<CellIndex>> store_cells;
};

OfflineFixture MakeOfflineFixture() {
  constexpr int kStoreSeries = 28;
  OfflineFixture fixture;
  fixture.data = MakeDataset("JanataHack", DatasetScale::kFull, /*seed=*/1);
  ScenarioConfig scenario;
  scenario.kind = ScenarioKind::kMcar;
  scenario.percent_incomplete = 1.0;
  scenario.seed = 7;
  fixture.mask = GenerateScenario(scenario, fixture.data.num_series(),
                                  fixture.data.num_times());
  DeepMviConfig config;
  config.max_epochs = 2;
  config.samples_per_epoch = 32;
  config.num_threads = 1;
  DeepMviImputer imputer(config);
  fixture.model = imputer.Fit(fixture.data, fixture.mask);
  const int stores = fixture.data.num_series() / kStoreSeries;
  fixture.store_cells.resize(stores);
  for (const CellIndex& cell : fixture.mask.MissingIndices()) {
    fixture.store_cells[std::min(cell.series / kStoreSeries, stores - 1)]
        .push_back(cell);
  }
  return fixture;
}

long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

void BM_OfflinePass(benchmark::State& state) {
  static const OfflineFixture fixture = MakeOfflineFixture();
  const storage::InMemoryDataSource source(&fixture.data);
  double predict_s = 0.0, cells_s = 0.0;
  long predict_faults = 0, cells_faults = 0;
  for (auto _ : state) {
    long faults = MinorFaults();
    Stopwatch watch;
    Matrix imputed = fixture.model.Predict(fixture.data, fixture.mask);
    benchmark::DoNotOptimize(imputed);
    predict_s += watch.ElapsedSeconds();
    predict_faults += MinorFaults() - faults;
    for (const std::vector<CellIndex>& cells : fixture.store_cells) {
      faults = MinorFaults();
      Stopwatch call_watch;
      StatusOr<std::vector<double>> predicted =
          fixture.model.PredictCells(source, fixture.mask, cells);
      benchmark::DoNotOptimize(predicted);
      cells_s += call_watch.ElapsedSeconds();
      cells_faults += MinorFaults() - faults;
      bool same = predicted.ok();
      for (size_t i = 0; same && i < cells.size(); ++i) {
        same = (*predicted)[i] == imputed(cells[i].series, cells[i].time);
      }
      if (!same) {
        state.SkipWithError("PredictCells differs from Predict");
        return;
      }
    }
  }
  const double passes = static_cast<double>(state.iterations());
  const double calls = passes * static_cast<double>(fixture.store_cells.size());
  state.counters["predict_ms"] = 1e3 * predict_s / passes;
  state.counters["cells_call_ms"] = 1e3 * cells_s / calls;
  state.counters["predict_minflt"] =
      static_cast<double>(predict_faults) / passes;
  state.counters["cells_call_minflt"] =
      static_cast<double>(cells_faults) / calls;
}
BENCHMARK(BM_OfflinePass)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_JacobiSvd(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  Matrix a = Matrix::RandomGaussian(n, 2 * n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(JacobiSvd(a));
  }
}
BENCHMARK(BM_JacobiSvd)->Arg(16)->Arg(32)->Arg(64);

void BM_CentroidDecomposition(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  Matrix a = Matrix::RandomGaussian(n, 4 * n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CentroidDecomposition(a, 3));
  }
}
BENCHMARK(BM_CentroidDecomposition)->Arg(16)->Arg(64);

void BM_MaskedAttentionForwardBackward(benchmark::State& state) {
  const int t_len = static_cast<int>(state.range(0));
  Rng rng(4);
  nn::ParameterStore store;
  nn::MultiHeadSelfAttention attn(&store, "attn",
                                  {.model_dim = 32, .num_heads = 4}, rng);
  Matrix x = Matrix::RandomGaussian(t_len, 32, rng);
  std::vector<double> avail(t_len, 1.0);
  for (auto _ : state) {
    ad::Tape tape;
    ad::Var out = attn.Forward(tape, tape.Leaf(x), avail);
    tape.Backward(ad::Sum(ad::Square(out)));
    benchmark::DoNotOptimize(out.grad());
  }
}
BENCHMARK(BM_MaskedAttentionForwardBackward)->Arg(64)->Arg(128)->Arg(256);

void BM_TemporalTransformerForward(benchmark::State& state) {
  const int t_len = static_cast<int>(state.range(0));
  Rng rng(5);
  nn::ParameterStore store;
  DeepMviConfig config;
  config.window = 10;
  TemporalTransformer tt(&store, config, rng);
  Matrix series = Matrix::RandomGaussian(1, t_len, rng);
  std::vector<double> avail(t_len / 10, 1.0);
  for (auto _ : state) {
    ad::Tape tape;
    benchmark::DoNotOptimize(tt.Forward(tape, series, avail));
  }
}
BENCHMARK(BM_TemporalTransformerForward)->Arg(500)->Arg(1000)->Arg(2000);

void BM_KernelRegressionForward(benchmark::State& state) {
  const int num_sib = static_cast<int>(state.range(0));
  Rng rng(6);
  Dimension dim{"series", {}};
  for (int i = 0; i <= num_sib; ++i) dim.members.push_back("s" + std::to_string(i));
  Matrix values = Matrix::RandomGaussian(num_sib + 1, 256, rng);
  DataTensor data({dim}, values);
  Mask mask(num_sib + 1, 256);
  nn::ParameterStore store;
  DeepMviConfig config;
  KernelRegression kr(&store, data.dims(), config, rng);
  std::vector<int> times;
  for (int t = 100; t < 120; ++t) times.push_back(t);
  for (auto _ : state) {
    ad::Tape tape;
    benchmark::DoNotOptimize(kr.Forward(tape, data, values, mask, 0, times));
  }
}
BENCHMARK(BM_KernelRegressionForward)->Arg(10)->Arg(50)->Arg(200);

}  // namespace
}  // namespace deepmvi

BENCHMARK_MAIN();
