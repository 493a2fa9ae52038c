// Tests for the train-once/serve-many split: TrainedDeepMvi (Fit /
// Predict / Save / Load) and the src/serve layer (registry, service and
// its metrics, workload helpers). The central contract is determinism:
// Predict consumes no randomness, so repeated calls, loaded checkpoints,
// and any thread count or interleaving of concurrent callers must all
// produce bit-identical matrices.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/simple.h"
#include "core/deepmvi.h"
#include "core/quality_profile.h"
#include "obs/flight_recorder.h"
#include "scenario/scenarios.h"
#include "serve/quality_monitor.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/response_cache.h"
#include "serve/service.h"
#include "serve/workload.h"
#include "testing/test_util.h"

namespace deepmvi {
namespace {

using testutil::ExpectMatricesBitIdentical;
using testutil::MakeSeasonalCase;
using testutil::McarMask;
using testutil::RandomMatrix;
using testutil::ScopedProcessTracer;
using testutil::SeasonalCase;
using testutil::TempPath;
using testutil::TinyDeepMviConfig;

/// One small trained model shared by the expensive suites. Fit is the slow
/// part; everything downstream is inference.
struct TrainedCase {
  SeasonalCase data_case;
  TrainedDeepMvi model;
};
TrainedCase MakeTrainedCase(uint64_t seed = 31) {
  TrainedCase out{MakeSeasonalCase(seed, 5, 120), TrainedDeepMvi()};
  DeepMviConfig config = TinyDeepMviConfig();
  config.seed = 77;
  DeepMviImputer imputer(config);
  out.model = imputer.Fit(out.data_case.data, out.data_case.mask);
  return out;
}

/// A serving counter's current value in the service's registry.
int64_t CounterValue(serve::ImputationService& service,
                     const std::string& name) {
  return service.metrics().CounterNamed(name, "")->value();
}

// ---- TrainedDeepMvi ---------------------------------------------------------

TEST(TrainedDeepMviTest, FitOncePredictTwiceIsBitIdentical) {
  TrainedCase c = MakeTrainedCase();
  Matrix first = c.model.Predict(c.data_case.data, c.data_case.mask);
  Matrix second = c.model.Predict(c.data_case.data, c.data_case.mask);
  ExpectMatricesBitIdentical(first, second, "repeated Predict");
}

TEST(TrainedDeepMviTest, ImputeEqualsFitPlusPredict) {
  // The historical single-shot API must be exactly the composition, so the
  // determinism contract in core_test keeps covering the split pipeline.
  SeasonalCase c = MakeSeasonalCase(32, 5, 120);
  DeepMviConfig config = TinyDeepMviConfig();
  config.seed = 78;

  DeepMviImputer one_shot(config);
  Matrix via_impute = one_shot.Impute(c.data, c.mask);

  DeepMviImputer split(config);
  TrainedDeepMvi model = split.Fit(c.data, c.mask);
  Matrix via_predict = model.Predict(c.data, c.mask);

  ExpectMatricesBitIdentical(via_impute, via_predict, "Impute vs Fit+Predict");
}

TEST(TrainedDeepMviTest, PredictOnNewMissingPattern) {
  // Serve-time queries hide blocks the training mask never saw.
  TrainedCase c = MakeTrainedCase();
  Mask query = c.data_case.mask;
  query.SetMissingRange(2, 40, 60);
  Matrix out = c.model.Predict(c.data_case.data, query);
  EXPECT_TRUE(out.AllFinite());
  for (int t = 0; t < out.cols(); ++t) {
    if (query.available(2, t)) {
      EXPECT_EQ(out(2, t), c.data_case.data.values()(2, t));
    }
  }
}

TEST(TrainedDeepMviTest, SaveLoadPredictIsBitIdentical) {
  TrainedCase c = MakeTrainedCase();
  Matrix direct = c.model.Predict(c.data_case.data, c.data_case.mask);

  const std::string path = TempPath("trained_deepmvi.dmvi");
  Status saved = c.model.Save(path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  StatusOr<TrainedDeepMvi> loaded = TrainedDeepMvi::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_parameters(), c.model.num_parameters());
  EXPECT_EQ(loaded->config().window, c.model.config().window);
  Matrix from_checkpoint = loaded->Predict(c.data_case.data, c.data_case.mask);
  ExpectMatricesBitIdentical(direct, from_checkpoint, "after Save/Load");
  std::remove(path.c_str());
}

TEST(TrainedDeepMviTest, LoadRejectsCorruptAndTruncatedCheckpoints) {
  TrainedCase c = MakeTrainedCase();
  const std::string path = TempPath("trained_corrupt.dmvi");
  ASSERT_TRUE(c.model.Save(path).ok());

  {  // Corrupt magic.
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GT(bytes.size(), 100u);
    const std::string corrupt_path = TempPath("trained_badmagic.dmvi");
    bytes[1] = 'X';
    std::ofstream(corrupt_path, std::ios::binary) << bytes;
    StatusOr<TrainedDeepMvi> corrupt = TrainedDeepMvi::Load(corrupt_path);
    EXPECT_FALSE(corrupt.ok());
    EXPECT_EQ(corrupt.status().code(), StatusCode::kInvalidArgument);
    std::remove(corrupt_path.c_str());

    // Truncate at several depths (header, config, parameter bodies).
    for (size_t cut : {size_t{3}, size_t{20}, size_t{70}, bytes.size() / 2}) {
      const std::string cut_path = TempPath("trained_truncated.dmvi");
      std::ofstream(cut_path, std::ios::binary) << bytes.substr(0, cut);
      StatusOr<TrainedDeepMvi> truncated = TrainedDeepMvi::Load(cut_path);
      EXPECT_FALSE(truncated.ok()) << "cut at " << cut;
      std::remove(cut_path.c_str());
    }
  }
  std::remove(path.c_str());
}

TEST(TrainedDeepMviTest, PredictCellsRejectsWhatValidateInputRejects) {
  // A non-flattening model trained on store x item = 2 x 6.
  const int t_len = 80;
  const Dimension stores{"store", {"a", "b"}};
  const Dimension items{"item", {"s", "t", "u", "v", "w", "x"}};
  const DataTensor data({stores, items}, RandomMatrix(12, t_len, 39));
  const Mask mask = McarMask(12, t_len, 0.1, 40);
  DeepMviImputer imputer(TinyDeepMviConfig());
  const TrainedDeepMvi model = imputer.Fit(data, mask);
  const TrainedDeepMvi untrained;
  const int window = model.config().window;
  ASSERT_GT(window, 1);

  const DataTensor seven_series =
      DataTensor::FromMatrix(RandomMatrix(7, t_len, 41));
  const DataTensor short_data({stores, items},
                              RandomMatrix(12, window - 1, 42));
  Mask short_mask(12, window - 1);
  short_mask.set_missing(0, 0);
  // Same 12 series, but 3 x 4 members.
  const DataTensor regrouped(
      {Dimension{"store", {"a", "b", "c"}},
       Dimension{"item", {"w", "x", "y", "z"}}},
      data.values());

  struct Case {
    const char* name;
    const TrainedDeepMvi* model;
    const DataTensor* data;
    Mask mask;
  };
  const Case cases[] = {
      {"untrained model", &untrained, &data, mask},
      {"mask of the wrong shape", &model, &data,
       McarMask(12, t_len / 2, 0.1, 43)},
      {"wrong series count", &model, &seven_series,
       McarMask(7, t_len, 0.1, 44)},
      {"shorter than one window", &model, &short_data, short_mask},
      {"dims 3x4 for a 2x6 model", &model, &regrouped, mask},
  };
  for (const Case& c : cases) {
    const Status validated = c.model->ValidateInput(*c.data, c.mask);
    const StatusOr<std::vector<double>> predicted = c.model->PredictCells(
        storage::InMemoryDataSource(c.data), c.mask, c.mask.MissingIndices());
    EXPECT_FALSE(validated.ok()) << c.name;
    EXPECT_FALSE(predicted.ok()) << c.name;
    EXPECT_EQ(predicted.status().code(), validated.code()) << c.name;
  }
  // The control: the training input passes both.
  EXPECT_TRUE(model.ValidateInput(data, mask).ok());
  EXPECT_TRUE(model
                  .PredictCells(storage::InMemoryDataSource(&data), mask,
                                mask.MissingIndices())
                  .ok());
}

TEST(TrainedDeepMviTest, RejectsSeriesShorterThanOneWindow) {
  // Below one window the chunk walk degenerates and cells would come back
  // unimputed; ValidateInput must refuse instead of silently succeeding,
  // and the service must surface that as an error response. Between one
  // and two windows imputation still works (transformer contributes
  // nothing, local/kernel signals carry it) — the historical behavior.
  TrainedCase c = MakeTrainedCase();
  const int window = c.model.config().window;
  ASSERT_GT(window, 1);
  const int num_series = c.data_case.data.num_series();

  DataTensor short_data =
      DataTensor::FromMatrix(Matrix(num_series, window - 1, 1.0));
  Mask short_mask(num_series, window - 1);
  short_mask.set_missing(0, 0);
  EXPECT_FALSE(c.model.ValidateInput(short_data, short_mask).ok());

  DataTensor one_window =
      DataTensor::FromMatrix(Matrix(num_series, window, 1.0));
  Mask one_window_mask(num_series, window);
  one_window_mask.set_missing(0, window / 2);
  EXPECT_TRUE(c.model.ValidateInput(one_window, one_window_mask).ok());
  EXPECT_TRUE(c.model.Predict(one_window, one_window_mask).AllFinite());

  serve::ImputationService service;
  ASSERT_TRUE(service.registry().Register("m", std::move(c.model)).ok());
  serve::ImputationRequest request;
  request.model = "m";
  request.data = std::make_shared<const DataTensor>(short_data);
  request.mask = short_mask;
  serve::ImputationResponse response = service.Impute(request);
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST(TrainedDeepMviTest, DegenerateSingleStepDatasetStillImputes) {
  // The pre-split Impute() tolerated pathological shapes like 3 series x
  // 1 step (window shrinks to 1); the Fit/Predict composition must not
  // regress that into an abort.
  DataTensor tiny = DataTensor::FromMatrix(Matrix(3, 1, 2.5));
  Mask mask(3, 1);
  mask.set_missing(1, 0);
  DeepMviConfig config = TinyDeepMviConfig();
  config.max_epochs = 1;
  Matrix out = DeepMviImputer(config).Impute(tiny, mask);
  EXPECT_TRUE(out.AllFinite());
  EXPECT_EQ(out(0, 0), 2.5);
  EXPECT_EQ(out(2, 0), 2.5);
}

// ---- Imputer state hygiene (regression for cross-call leakage) --------------

TEST(DeepMviImputerTest, TrainStatsResetAtTopOfEveryCall) {
  // First call: long blocks force window 20. Second call on small-block
  // data must report window 10 and its own epoch count, not remnants of
  // the first call — train_stats_ is reset at the top of Fit/Impute.
  SyntheticConfig data_config;
  data_config.num_series = 4;
  data_config.length = 600;
  data_config.seed = 34;
  Matrix x = GenerateSeriesMatrix(data_config);
  DataTensor big = DataTensor::FromMatrix(x);
  Mask big_mask(4, 600);
  big_mask.SetMissingRange(0, 100, 250);  // Mean block 150 -> window 20.

  DeepMviConfig config = TinyDeepMviConfig();
  config.max_epochs = 1;
  DeepMviImputer reused(config);
  reused.Impute(big, big_mask);
  ASSERT_EQ(reused.train_stats().window_used, 20);

  SeasonalCase small = MakeSeasonalCase(35, 5, 120);
  reused.Impute(small.data, small.mask);
  DeepMviImputer fresh(config);
  fresh.Impute(small.data, small.mask);
  EXPECT_EQ(reused.train_stats().window_used,
            fresh.train_stats().window_used);
  EXPECT_EQ(reused.train_stats().epochs_run, fresh.train_stats().epochs_run);
  EXPECT_EQ(reused.train_stats().best_validation_loss,
            fresh.train_stats().best_validation_loss);
  EXPECT_EQ(reused.train_stats().final_train_loss,
            fresh.train_stats().final_train_loss);
}

// ---- ImputationService ------------------------------------------------------

TEST(ImputationServiceTest, UnknownModelYieldsNotFound) {
  serve::ImputationService service;
  serve::ImputationRequest request;
  request.model = "missing";
  serve::ImputationResponse response = service.Impute(request);
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(CounterValue(service, "dmvi_failures_total"), 1);
}

TEST(ImputationServiceTest, BadShapeYieldsErrorResponseNotCrash) {
  TrainedCase c = MakeTrainedCase();
  serve::ImputationService service;
  ASSERT_TRUE(service.registry().Register("m", std::move(c.model)).ok());
  serve::ImputationRequest request;
  request.model = "m";
  request.data = std::make_shared<const DataTensor>(c.data_case.data);
  request.mask = Mask(2, 7);  // Nonsense shape.
  serve::ImputationResponse response = service.Impute(request);
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST(ImputationServiceTest, RegistryListsAndSwapsModels) {
  serve::ImputationService service;
  EXPECT_EQ(service.registry().size(), 0);
  EXPECT_EQ(service.registry().Get("m"), nullptr);
  EXPECT_FALSE(
      service.registry().Register("", TrainedDeepMvi()).ok());  // Empty name.
  EXPECT_FALSE(
      service.registry().Register("m", TrainedDeepMvi()).ok());  // Untrained.

  TrainedCase c = MakeTrainedCase();
  ASSERT_TRUE(service.registry().Register("m", std::move(c.model)).ok());
  const TrainedDeepMvi* first = service.registry().Get("m");
  ASSERT_NE(first, nullptr);

  // Re-register (deployment update): old pointer must stay valid.
  TrainedCase updated = MakeTrainedCase(36);
  ASSERT_TRUE(service.registry().Register("m", std::move(updated.model)).ok());
  EXPECT_EQ(service.registry().size(), 1);
  EXPECT_NE(service.registry().Get("m"), first);
  EXPECT_GT(first->num_parameters(), 0);  // Retired, not destroyed.
  EXPECT_EQ(service.registry().Names(),
            std::vector<std::string>{std::string("m")});
}

/// The workload used by the determinism suites: distinct block queries.
std::vector<serve::ImputationRequest> MakeWorkloadRequests(
    const TrainedCase& c, int count) {
  std::vector<serve::WorkloadQuery> queries = serve::SynthesizeWorkload(
      count, /*max_block_len=*/12, c.data_case.data.num_series(),
      c.data_case.data.num_times(), /*seed=*/41);
  auto shared_data = std::make_shared<const DataTensor>(c.data_case.data);
  std::vector<serve::ImputationRequest> requests;
  requests.reserve(queries.size());
  for (const serve::WorkloadQuery& query : queries) {
    requests.push_back(
        serve::MakeQueryRequest("m", shared_data, c.data_case.mask, query));
  }
  return requests;
}

/// Answers `requests` by calling Impute from `callers` threads at once;
/// caller c takes requests c, c + callers, ... and writes only those
/// response slots, so slot i always belongs to request i.
std::vector<serve::ImputationResponse> ImputeConcurrently(
    serve::ImputationService& service,
    const std::vector<serve::ImputationRequest>& requests, int callers) {
  std::vector<serve::ImputationResponse> responses(requests.size());
  std::vector<std::thread> threads;
  for (int caller = 0; caller < callers; ++caller) {
    threads.emplace_back([&, caller] {
      for (size_t i = caller; i < requests.size(); i += callers) {
        responses[i] = service.Impute(requests[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return responses;
}

TEST(ImputationServiceTest, ConcurrentBatchesMatchSingleThreadBitForBit) {
  TrainedCase c = MakeTrainedCase();
  std::vector<serve::ImputationRequest> requests = MakeWorkloadRequests(c, 10);

  // Reference: single-threaded service, one request at a time.
  serve::ServiceConfig serial_config;
  serial_config.threads = 1;
  serve::ImputationService serial(serial_config);
  {
    TrainedCase ref = MakeTrainedCase();
    ASSERT_TRUE(serial.registry().Register("m", std::move(ref.model)).ok());
  }
  std::vector<Matrix> reference;
  for (const auto& request : requests) {
    serve::ImputationResponse response = serial.Impute(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    reference.push_back(std::move(response.imputed));
  }

  // Same queries through the parallel sync-batch path...
  serve::ServiceConfig parallel_config;
  parallel_config.threads = 4;
  serve::ImputationService parallel(parallel_config);
  ASSERT_TRUE(parallel.registry().Register("m", std::move(c.model)).ok());
  std::vector<serve::ImputationResponse> batched =
      parallel.ImputeBatch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t i = 0; i < batched.size(); ++i) {
    ASSERT_TRUE(batched[i].status.ok());
    ExpectMatricesBitIdentical(batched[i].imputed, reference[i],
                       "ImputeBatch slot " + std::to_string(i));
  }

  // ...and through Impute called from several threads at once, the way
  // HTTP workers call it.
  std::vector<serve::ImputationResponse> concurrent =
      ImputeConcurrently(parallel, requests, 2);
  for (size_t i = 0; i < concurrent.size(); ++i) {
    ASSERT_TRUE(concurrent[i].status.ok()) << concurrent[i].status.ToString();
    ExpectMatricesBitIdentical(concurrent[i].imputed, reference[i],
                       "concurrent Impute slot " + std::to_string(i));
    EXPECT_GT(concurrent[i].latency_seconds, 0.0);
  }

  // One failed request: counted as a request and a failure, and it adds
  // no rows or cells.
  serve::ImputationRequest unknown = requests[0];
  unknown.model = "missing";
  EXPECT_EQ(parallel.Impute(unknown).status.code(), StatusCode::kNotFound);

  // The counters hold exactly what the responses report.
  int64_t rows = 0;
  int64_t cells = 0;
  for (const auto* responses : {&batched, &concurrent}) {
    for (const auto& response : *responses) {
      rows += response.rows_touched;
      cells += response.cells_imputed;
    }
  }
  ASSERT_GT(rows, 0);
  ASSERT_NE(rows, cells);  // So a counter fed the other field cannot pass.
  const int64_t total = static_cast<int64_t>(2 * requests.size()) + 1;
  EXPECT_EQ(CounterValue(parallel, "dmvi_requests_total"), total);
  EXPECT_EQ(CounterValue(parallel, "dmvi_failures_total"), 1);
  EXPECT_EQ(CounterValue(parallel, "dmvi_rows_served_total"), rows);
  EXPECT_EQ(CounterValue(parallel, "dmvi_cells_imputed_total"), cells);
  const obs::HistogramSnapshot latency =
      parallel.metrics()
          .HistogramNamed("dmvi_request_latency_seconds", "")
          ->Snapshot();
  EXPECT_EQ(latency.count, total);
  EXPECT_GT(latency.Percentile(0.95), 0.0);
  EXPECT_GE(latency.Percentile(0.95), latency.Percentile(0.50));
  EXPECT_GE(latency.max, latency.Percentile(0.95));
}

// ---- Degradation ladder -----------------------------------------------------

TEST(ImputationServiceTest, DegradedResponsesUseFallbackAndAreMarked) {
  TrainedCase c = MakeTrainedCase();
  std::vector<serve::ImputationRequest> requests = MakeWorkloadRequests(c, 3);
  LinearInterpolationImputer fallback;
  std::vector<Matrix> expected;
  for (const auto& request : requests) {
    expected.push_back(fallback.Impute(*request.data, request.mask));
  }

  serve::ServiceConfig config;
  config.degrade_watermark = 1;
  config.threads = 2;
  serve::ImputationService service(config);
  ASSERT_TRUE(service.registry().Register("m", std::move(c.model)).ok());
  // A probe pinned far above the watermark: every request is admitted on
  // the degraded rung — deterministic, no timing needed.
  service.SetPressureProbe([] { return 100; });
  EXPECT_GE(service.PressureDepth(), 100);

  std::vector<serve::ImputationResponse> responses =
      ImputeConcurrently(service, requests, 2);
  for (size_t i = 0; i < requests.size(); ++i) {
    const serve::ImputationResponse& response = responses[i];
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.degraded);
    EXPECT_EQ(response.degrade_method, "LinearInterp");
    ExpectMatricesBitIdentical(response.imputed, expected[i],
                               "degraded slot " + std::to_string(i));
    EXPECT_EQ(response.cells_imputed, requests[i].mask.CountMissing());
  }
  EXPECT_EQ(CounterValue(service, "dmvi_degraded_total"),
            static_cast<int64_t>(requests.size()));
  EXPECT_EQ(CounterValue(service, "dmvi_shed_total"), 0);
  EXPECT_EQ(CounterValue(service, "dmvi_failures_total"), 0);
}

TEST(ImputationServiceTest, MeanDegradeMethodIsHonored) {
  TrainedCase c = MakeTrainedCase();
  std::vector<serve::ImputationRequest> requests = MakeWorkloadRequests(c, 1);
  MeanImputer fallback;
  const Matrix expected = fallback.Impute(*requests[0].data, requests[0].mask);

  serve::ServiceConfig config;
  config.degrade_watermark = 1;
  config.degrade_method = "Mean";
  serve::ImputationService service(config);
  ASSERT_TRUE(service.registry().Register("m", std::move(c.model)).ok());
  service.SetPressureProbe([] { return 100; });

  serve::ImputationResponse response = service.Impute(requests[0]);
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.degrade_method, "Mean");
  ExpectMatricesBitIdentical(response.imputed, expected, "Mean fallback");
}

TEST(ImputationServiceTest, ShedBeyondWatermarkIsFailedPrecondition) {
  TrainedCase c = MakeTrainedCase();
  std::vector<serve::ImputationRequest> requests = MakeWorkloadRequests(c, 2);

  serve::ServiceConfig config;
  config.degrade_watermark = 1;
  config.shed_watermark = 50;
  serve::ImputationService service(config);
  ASSERT_TRUE(service.registry().Register("m", std::move(c.model)).ok());
  service.SetPressureProbe([] { return 100; });  // Above both rungs.

  for (const serve::ImputationResponse& response :
       ImputeConcurrently(service, requests, 2)) {
    EXPECT_FALSE(response.status.ok());
    EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_TRUE(response.imputed.rows() == 0);
  }
  EXPECT_EQ(CounterValue(service, "dmvi_shed_total"), 2);
  EXPECT_EQ(CounterValue(service, "dmvi_degraded_total"), 0);
  EXPECT_EQ(CounterValue(service, "dmvi_failures_total"), 2);

  // Dropping the pressure below both watermarks restores full service.
  service.SetPressureProbe([] { return 0; });
  serve::ImputationResponse healthy = service.Impute(requests[1]);
  ASSERT_TRUE(healthy.status.ok()) << healthy.status.ToString();
  EXPECT_FALSE(healthy.degraded);
  EXPECT_TRUE(healthy.degrade_method.empty());
}

TEST(ImputationServiceTest, LadderInactiveBelowWatermarks) {
  // Watermarks configured but pressure below them: responses must be the
  // full model's, bit-identical to an unladdered service.
  TrainedCase c = MakeTrainedCase();
  std::vector<serve::ImputationRequest> requests = MakeWorkloadRequests(c, 2);
  std::vector<Matrix> expected;
  for (const auto& request : requests) {
    expected.push_back(c.model.Predict(*request.data, request.mask));
  }

  serve::ServiceConfig config;
  config.degrade_watermark = 1000;
  config.shed_watermark = 2000;
  serve::ImputationService service(config);
  ASSERT_TRUE(service.registry().Register("m", std::move(c.model)).ok());
  std::vector<serve::ImputationResponse> responses =
      ImputeConcurrently(service, requests, 2);
  for (size_t i = 0; i < requests.size(); ++i) {
    const serve::ImputationResponse& response = responses[i];
    ASSERT_TRUE(response.status.ok());
    EXPECT_FALSE(response.degraded);
    ExpectMatricesBitIdentical(response.imputed, expected[i],
                               "below-watermark slot " + std::to_string(i));
  }
  EXPECT_EQ(CounterValue(service, "dmvi_degraded_total"), 0);
  EXPECT_EQ(CounterValue(service, "dmvi_shed_total"), 0);
}

TEST(ImputationServiceTest, ArrivingRequestDoesNotCountItselfAsPressure) {
  TrainedCase c = MakeTrainedCase();
  std::vector<serve::ImputationRequest> requests = MakeWorkloadRequests(c, 8);
  const Matrix expected =
      c.model.Predict(*requests[0].data, requests[0].mask);

  serve::ServiceConfig config;
  config.degrade_watermark = 1;
  serve::ImputationService service(config);
  ASSERT_TRUE(service.registry().Register("m", std::move(c.model)).ok());
  service.SetPressureProbe([] { return 0; });

  // Alone, with the probe at 0, the pressure is 0: below the watermark.
  serve::ImputationResponse lone = service.Impute(requests[0]);
  ASSERT_TRUE(lone.status.ok()) << lone.status.ToString();
  EXPECT_FALSE(lone.degraded);
  ExpectMatricesBitIdentical(lone.imputed, expected, "lone request");

  // After a concurrent storm every request has left the service.
  for (const serve::ImputationResponse& response :
       ImputeConcurrently(service, requests, 4)) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  EXPECT_EQ(service.in_flight(), 0);
  EXPECT_EQ(service.PressureDepth(), 0);
}

// ---- Response cache ---------------------------------------------------------

serve::ResponseCache::ValuePtr MakeCached(int rows, int cols, double fill) {
  auto cached = std::make_shared<serve::CachedResponse>();
  cached->imputed = Matrix(rows, cols, fill);
  cached->cells_imputed = rows;
  cached->rows_touched = 1;
  return cached;
}

/// Inserts a response with the service's byte rule.
void Put(serve::ResponseCache& cache, const serve::ResponseCacheKey& key,
         serve::ResponseCache::ValuePtr response) {
  const int64_t bytes =
      static_cast<int64_t>(sizeof(serve::CachedResponse)) +
      response->imputed.size() * static_cast<int64_t>(sizeof(double));
  cache.Insert(key, std::move(response), bytes);
}

TEST(ResponseCacheTest, HitsMissesAndLruEvictionUnderByteBudget) {
  // Each 8x8 entry is 8*8*8 = 512 bytes + header; budget fits two.
  const int64_t entry_bytes =
      8 * 8 * static_cast<int64_t>(sizeof(double)) +
      static_cast<int64_t>(sizeof(serve::CachedResponse));
  serve::ResponseCache cache(2 * entry_bytes + 16);
  const int model_a = 0, model_b = 0;  // Distinct addresses.

  EXPECT_EQ(cache.Get({&model_a, 1, 1}), nullptr);  // Miss.
  Put(cache, {&model_a, 1, 1}, MakeCached(8, 8, 1.0));
  serve::ResponseCache::ValuePtr hit = cache.Get({&model_a, 1, 1});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->imputed(0, 0), 1.0);

  // Same fingerprints under another model are a different key.
  EXPECT_EQ(cache.Get({&model_b, 1, 1}), nullptr);
  Put(cache, {&model_b, 1, 1}, MakeCached(8, 8, 2.0));
  // Different mask fingerprint is a different key too.
  EXPECT_EQ(cache.Get({&model_a, 1, 2}), nullptr);

  // Budget holds two entries; inserting a third evicts the LRU (model_a's,
  // since model_b's was inserted later and model_a's was touched earlier).
  cache.Get({&model_b, 1, 1});  // model_b entry is now most recent.
  Put(cache, {&model_a, 9, 9}, MakeCached(8, 8, 3.0));
  serve::ResponseCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_LE(stats.bytes_cached, cache.byte_budget());
  EXPECT_EQ(cache.Get({&model_a, 1, 1}), nullptr);      // Evicted.
  EXPECT_NE(cache.Get({&model_b, 1, 1}), nullptr);      // Survived.
  EXPECT_NE(cache.Get({&model_a, 9, 9}), nullptr);      // New entry.

  // An entry larger than the whole budget is never retained, and an
  // outstanding pointer survives Clear().
  Put(cache, {&model_a, 7, 7}, MakeCached(64, 64, 4.0));
  EXPECT_EQ(cache.Get({&model_a, 7, 7}), nullptr);
  serve::ResponseCache::ValuePtr pinned = cache.Get({&model_b, 1, 1});
  cache.Clear();
  EXPECT_EQ(cache.Get({&model_b, 1, 1}), nullptr);
  EXPECT_EQ(pinned->imputed(0, 0), 2.0);
  EXPECT_GT(cache.stats().peak_bytes, 0);
}

TEST(ResponseCacheTest, FingerprintsSeparateDataMaskAndShape) {
  SeasonalCase a = MakeSeasonalCase(51, 4, 60);
  SeasonalCase b = MakeSeasonalCase(52, 4, 60);
  EXPECT_EQ(serve::FingerprintData(a.data), serve::FingerprintData(a.data));
  EXPECT_NE(serve::FingerprintData(a.data), serve::FingerprintData(b.data));
  EXPECT_EQ(serve::FingerprintMask(a.mask), serve::FingerprintMask(a.mask));
  Mask tweaked = a.mask;
  tweaked.set_missing(0, 0);
  EXPECT_NE(serve::FingerprintMask(a.mask), serve::FingerprintMask(tweaked));
  // Same cell count, different shape.
  EXPECT_NE(serve::FingerprintMask(Mask(2, 3)),
            serve::FingerprintMask(Mask(3, 2)));
}

TEST(ImputationServiceTest, CachedResponsesAreBitIdenticalAndCounted) {
  TrainedCase c = MakeTrainedCase();
  serve::ServiceConfig cached_config;
  cached_config.cache_mb = 16.0;
  cached_config.threads = 1;
  serve::ImputationService cached(cached_config);
  ASSERT_TRUE(cached.registry().Register("m", std::move(c.model)).ok());

  serve::ServiceConfig plain_config;
  plain_config.threads = 1;
  serve::ImputationService plain(plain_config);
  {
    TrainedCase ref = MakeTrainedCase();
    ASSERT_TRUE(plain.registry().Register("m", std::move(ref.model)).ok());
  }

  std::vector<serve::ImputationRequest> requests = MakeWorkloadRequests(c, 6);
  requests.push_back(requests[0]);  // Guaranteed repeats.
  requests.push_back(requests[1]);
  for (const serve::ImputationRequest& request : requests) {
    serve::ImputationResponse hot = cached.Impute(request);
    serve::ImputationResponse cold = plain.Impute(request);
    ASSERT_TRUE(hot.status.ok()) << hot.status.ToString();
    ExpectMatricesBitIdentical(hot.imputed, cold.imputed, "cache on vs off");
    EXPECT_EQ(hot.cells_imputed, cold.cells_imputed);
    EXPECT_EQ(hot.rows_touched, cold.rows_touched);
  }
  EXPECT_EQ(CounterValue(cached, "dmvi_cache_hits_total"), 2);
  EXPECT_EQ(CounterValue(cached, "dmvi_cache_misses_total"), 6);
  EXPECT_EQ(CounterValue(plain, "dmvi_cache_hits_total") +
                CounterValue(plain, "dmvi_cache_misses_total"),
            0);
  ASSERT_NE(cached.response_cache(), nullptr);
  EXPECT_EQ(cached.response_cache()->stats().hits, 2);
  EXPECT_EQ(plain.response_cache(), nullptr);

  // A model swap changes the cache key (pointer identity): the same
  // request misses instead of serving the old weights' answer.
  TrainedCase swapped = MakeTrainedCase(37);
  ASSERT_TRUE(cached.registry().Register("m", std::move(swapped.model)).ok());
  ASSERT_TRUE(cached.Impute(requests[0]).status.ok());
  EXPECT_EQ(CounterValue(cached, "dmvi_cache_misses_total"), 7);
  EXPECT_EQ(CounterValue(cached, "dmvi_cache_hits_total"), 2);
}

TEST(ImputationServiceTest, CacheThrashDuringReloadRaceNeverServesStaleBytes) {
  // A deliberately tiny cache (a couple of entries) forces constant LRU
  // eviction while submitter threads hammer Impute and a reloader thread
  // swaps the model through the checkpoint path. Model-identity keying
  // means every OK response must bit-match one of the two models' outputs
  // — never a blend, never a stale entry from the other model.
  TrainedCase c = MakeTrainedCase();
  DeepMviConfig alt_config = TinyDeepMviConfig();
  alt_config.seed = 99;  // Same data, different weights.
  DeepMviImputer alt_imputer(alt_config);
  TrainedDeepMvi model_b = alt_imputer.Fit(c.data_case.data, c.data_case.mask);

  std::vector<serve::ImputationRequest> requests = MakeWorkloadRequests(c, 8);
  std::vector<Matrix> expect_a, expect_b;
  for (const auto& request : requests) {
    expect_a.push_back(c.model.Predict(*request.data, request.mask));
    expect_b.push_back(model_b.Predict(*request.data, request.mask));
  }
  auto same_bits = [](const Matrix& x, const Matrix& y) {
    if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
    for (int r = 0; r < x.rows(); ++r) {
      for (int t = 0; t < x.cols(); ++t) {
        if (x(r, t) != y(r, t)) return false;
      }
    }
    return true;
  };
  ASSERT_FALSE(same_bits(expect_a[0], expect_b[0]))
      << "seeds 77 and 99 trained identical models; race test is vacuous";

  const std::string path_a = TempPath("reload_race_a.dmvi");
  const std::string path_b = TempPath("reload_race_b.dmvi");
  ASSERT_TRUE(c.model.Save(path_a).ok());
  ASSERT_TRUE(model_b.Save(path_b).ok());

  serve::ServiceConfig config;
  config.cache_mb = 0.01;  // ~10KB: each 5x120 matrix is 4800B, so ~2 fit.
  config.threads = 2;
  serve::ImputationService service(config);
  ASSERT_TRUE(service.registry().Register("m", std::move(c.model)).ok());

  std::atomic<bool> stop{false};
  std::thread reloader([&] {
    int flip = 0;
    while (!stop.load()) {
      const std::string& path = (flip++ % 2 == 0) ? path_b : path_a;
      Status status = service.registry().LoadFromFile("m", path);
      ASSERT_TRUE(status.ok()) << status.ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  for (int worker = 0; worker < 3; ++worker) {
    submitters.emplace_back([&] {
      for (int iter = 0; iter < 30; ++iter) {
        const size_t i = static_cast<size_t>(iter) % requests.size();
        serve::ImputationResponse response = service.Impute(requests[i]);
        ASSERT_TRUE(response.status.ok()) << response.status.ToString();
        if (!same_bits(response.imputed, expect_a[i]) &&
            !same_bits(response.imputed, expect_b[i])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  stop.store(true);
  reloader.join();

  EXPECT_EQ(mismatches.load(), 0)
      << "a response matched neither model's bit-exact output";
  ASSERT_NE(service.response_cache(), nullptr);
  serve::ResponseCache::Stats stats = service.response_cache()->stats();
  EXPECT_GT(stats.evictions, 0) << "cache never thrashed; budget too large";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

/// The byte-identity bars' workload: six full-mask requests with request
/// ids, answered by two concurrent Impute callers. Returns the matrices in
/// request order.
std::vector<Matrix> ImputeSixConcurrently(serve::ImputationService& service,
                                          const TrainedCase& c) {
  auto data = std::make_shared<const DataTensor>(c.data_case.data);
  std::vector<serve::ImputationRequest> requests(6);
  for (int i = 0; i < 6; ++i) {
    requests[i].model = "default";
    requests[i].data = data;
    requests[i].mask = c.data_case.mask;
    requests[i].request_id = "req-" + std::to_string(i);
  }
  std::vector<Matrix> imputed;
  for (serve::ImputationResponse& response :
       ImputeConcurrently(service, requests, 2)) {
    EXPECT_TRUE(response.status.ok());
    imputed.push_back(std::move(response.imputed));
  }
  return imputed;
}

TEST(ImputationServiceTest, TracingAndMetricsDoNotChangeResponseBytes) {
  // The observability bar: running the identical workload with tracing
  // and metrics wired in must not move a single response bit.
  TrainedCase c = MakeTrainedCase();
  auto run = [&](serve::ServiceConfig config, obs::Tracer* tracer) {
    serve::ImputationService service(config);
    // Fit is deterministic, so a re-trained copy is the identical model.
    EXPECT_TRUE(
        service.registry().Register("default", MakeTrainedCase().model).ok());
    // Only the serving calls run under the process tracer.
    ScopedProcessTracer scoped(tracer);
    return ImputeSixConcurrently(service, c);
  };

  std::vector<Matrix> plain = run(serve::ServiceConfig(), nullptr);

  obs::CollectingTraceSink sink;
  obs::Tracer tracer(&sink, obs::TraceLevel::kKernel);
  obs::MetricsRegistry metrics;
  serve::ServiceConfig traced_config;
  traced_config.metrics = &metrics;
  std::vector<Matrix> traced = run(traced_config, &tracer);

  ASSERT_EQ(plain.size(), traced.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    ExpectMatricesBitIdentical(plain[i], traced[i], "traced vs plain");
  }
  // The traced run actually produced spans and stage observations.
  std::vector<obs::SpanRecord> records = sink.records();
  EXPECT_FALSE(records.empty());
  int process_spans = 0;
  for (const obs::SpanRecord& record : records) {
    if (record.name == "service.process") {
      ++process_spans;
      EXPECT_FALSE(record.request_id.empty());
    }
  }
  EXPECT_EQ(process_spans, 6);
  EXPECT_GT(metrics.HistogramNamed("dmvi_stage_predict_seconds", "")
                ->Snapshot()
                .count,
            0);
  // The serving counters land in the wired-in registry, not a private one.
  EXPECT_EQ(metrics.CounterNamed("dmvi_requests_total", "")->value(), 6);
}

TEST(ImputationServiceTest, FlightRecorderSeesEveryOutcomeKind) {
  TrainedCase c = MakeTrainedCase();
  std::vector<serve::ImputationRequest> requests = MakeWorkloadRequests(c, 3);

  obs::FlightRecorder recorder(/*capacity=*/16,
                               /*slow_threshold_seconds=*/1e-9);
  serve::ServiceConfig config;
  config.recorder = &recorder;
  config.cache_mb = 4.0;
  config.shed_watermark = 1;
  serve::ImputationService service(config);
  ASSERT_TRUE(service.registry().Register("m", std::move(c.model)).ok());

  // Full predict, then the identical request again: a cache hit.
  requests[0].request_id = "fr-predict";
  ASSERT_TRUE(service.Impute(requests[0]).status.ok());
  requests[0].request_id = "fr-cached";
  ASSERT_TRUE(service.Impute(requests[0]).status.ok());
  // A different mask: a second full predict.
  requests[1].request_id = "fr-second";
  ASSERT_TRUE(service.Impute(requests[1]).status.ok());
  // Failure.
  serve::ImputationRequest unknown;
  unknown.model = "missing";
  unknown.request_id = "fr-failed";
  EXPECT_FALSE(service.Impute(unknown).status.ok());
  // Shed at admission.
  service.SetPressureProbe([] { return 100; });
  requests[2].request_id = "fr-shed";
  EXPECT_EQ(service.Impute(requests[2]).status.code(),
            StatusCode::kFailedPrecondition);

  const std::vector<obs::RequestRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(recorder.total_recorded(), 5);
  std::map<std::string, obs::RequestRecord> by_id;
  for (const obs::RequestRecord& record : records) {
    by_id[record.request_id] = record;
  }
  const obs::RequestRecord& predicted = by_id.at("fr-predict");
  EXPECT_TRUE(predicted.ok);
  EXPECT_FALSE(predicted.cache_hit);
  EXPECT_GT(predicted.predict_seconds, 0.0);
  EXPECT_GT(predicted.cells_imputed, 0);
  EXPECT_EQ(predicted.model, "m");
  const obs::RequestRecord& cached = by_id.at("fr-cached");
  EXPECT_TRUE(cached.ok);
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_DOUBLE_EQ(cached.predict_seconds, 0.0);
  const obs::RequestRecord& second = by_id.at("fr-second");
  EXPECT_TRUE(second.ok);
  EXPECT_GT(second.predict_seconds, 0.0);
  EXPECT_GE(second.latency_seconds, second.predict_seconds);
  const obs::RequestRecord& failed = by_id.at("fr-failed");
  EXPECT_FALSE(failed.ok);
  EXPECT_NE(failed.status.find("NotFound"), std::string::npos);
  const obs::RequestRecord& shed = by_id.at("fr-shed");
  EXPECT_TRUE(shed.shed);
  EXPECT_FALSE(shed.ok);
  // With a nanosecond threshold every real request is "slow".
  EXPECT_EQ(recorder.total_slow(), 5);
}

TEST(ImputationServiceTest, ProfilerAndRecorderDoNotChangeResponseBytes) {
  // PR 9's byte-identity bar: the sampling profiler and the flight
  // recorder observe the same workload the tracing/metrics bar covers,
  // and must not move a single response bit either.
  TrainedCase c = MakeTrainedCase();
  auto run = [&](serve::ServiceConfig config) {
    serve::ImputationService service(config);
    EXPECT_TRUE(
        service.registry().Register("default", MakeTrainedCase().model).ok());
    return ImputeSixConcurrently(service, c);
  };

  std::vector<Matrix> plain = run(serve::ServiceConfig());

  obs::FlightRecorder recorder;
  serve::ServiceConfig observed_config;
  observed_config.recorder = &recorder;
  const bool profiling = obs::CpuProfiler::Start().ok();
  std::vector<Matrix> observed = run(observed_config);
  if (profiling) obs::CpuProfiler::Stop();

  ASSERT_EQ(plain.size(), observed.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    ExpectMatricesBitIdentical(plain[i], observed[i],
                               "profiled+recorded vs plain");
  }
  EXPECT_EQ(recorder.total_recorded(), 6);
}

// ---- Workload helpers -------------------------------------------------------

// ---- Quality monitor --------------------------------------------------------

TEST(QualityMonitorTest, MatchedInputStaysQuietDriftedInputScores) {
  TrainedCase c = MakeTrainedCase(47);
  serve::QualityMonitor monitor;

  // Matched: the training data itself flows back in.
  monitor.ObserveInput("m", &c.model, c.data_case.data, c.data_case.mask);
  serve::QualitySnapshot quiet = monitor.Snapshot();
  ASSERT_EQ(quiet.models.size(), 1u);
  EXPECT_TRUE(quiet.models[0].has_reference);
  EXPECT_EQ(quiet.models[0].requests_observed, 1);
  EXPECT_GT(quiet.models[0].series_scored, 0);
  EXPECT_LT(quiet.models[0].drift_score, 0.1) << "training data drifted?";
  EXPECT_EQ(quiet.max_drift_score, quiet.models[0].drift_score);

  // Drifted: the kDrift sensor-drift transform shifts every series by a
  // sawtooth of 2 stddevs — PSI must land in drifted territory.
  ScenarioConfig drift;
  drift.kind = ScenarioKind::kDrift;
  drift.percent_incomplete = 1.0;
  drift.drift_rate = 2.0;
  const Matrix shifted =
      ApplyScenarioTransform(drift, c.data_case.data.values());
  const DataTensor shifted_data = DataTensor::FromMatrix(shifted);
  serve::QualityMonitor fresh;
  fresh.ObserveInput("m", &c.model, shifted_data, c.data_case.mask);
  serve::QualitySnapshot drifted = fresh.Snapshot();
  ASSERT_EQ(drifted.models.size(), 1u);
  EXPECT_GT(drifted.models[0].drift_score, 0.2);
  EXPECT_GT(drifted.models[0].drift_score, quiet.models[0].drift_score);
  EXPECT_GT(drifted.models[0].drift_ks, 0.0);

  // Missing-rate accounting: available + missing covers the matrix.
  const auto& model_snapshot = drifted.models[0];
  EXPECT_EQ(model_snapshot.cells_observed + model_snapshot.cells_missing,
            static_cast<int64_t>(c.data_case.data.num_series()) *
                c.data_case.data.num_times());
  EXPECT_NEAR(model_snapshot.input_missing_rate, 0.1, 0.05);
}

TEST(QualityMonitorTest, ReloadedModelPointerResetsLiveState) {
  TrainedCase c = MakeTrainedCase(47);
  serve::QualityMonitor monitor;
  monitor.ObserveInput("m", &c.model, c.data_case.data, c.data_case.mask);
  monitor.ObserveInput("m", &c.model, c.data_case.data, c.data_case.mask);
  EXPECT_EQ(monitor.Snapshot().models[0].requests_observed, 2);

  // A different TrainedDeepMvi instance for the same name is a registry
  // reload: live distributions restart against the new reference.
  TrainedCase reloaded = MakeTrainedCase(47);
  monitor.ObserveInput("m", &reloaded.model, reloaded.data_case.data,
                       reloaded.data_case.mask);
  serve::QualitySnapshot snapshot = monitor.Snapshot();
  EXPECT_EQ(snapshot.models[0].requests_observed, 1);
}

TEST(QualityMonitorTest, SelfScoreIsDeterministicForFixedSeed) {
  TrainedCase c = MakeTrainedCase(47);
  auto data = std::make_shared<const DataTensor>(c.data_case.data);

  auto run_once = [&](uint64_t seed) {
    serve::QualityMonitor monitor;
    monitor.SelfScore("m", &c.model, data, c.data_case.mask, seed, "req-0");
    serve::QualitySnapshot snapshot = monitor.Snapshot();
    EXPECT_EQ(snapshot.models.size(), 1u);
    EXPECT_EQ(snapshot.models[0].selfscore_rounds, 1);
    EXPECT_GE(snapshot.models[0].selfscore_cells, 1);
    return snapshot.models[0];
  };
  const serve::ModelQualitySnapshot first = run_once(1234);
  const serve::ModelQualitySnapshot second = run_once(1234);
  EXPECT_EQ(first.selfscore_cells, second.selfscore_cells);
  ASSERT_EQ(first.selfscore_history.size(), 1u);
  ASSERT_EQ(second.selfscore_history.size(), 1u);
  // Bit-equal errors: same seed -> same hidden cells -> same prediction.
  EXPECT_EQ(first.selfscore_history[0].mae, second.selfscore_history[0].mae);
  EXPECT_EQ(first.selfscore_history[0].rmse,
            second.selfscore_history[0].rmse);
  EXPECT_GE(first.selfscore_history[0].mae, 0.0);
  EXPECT_GE(first.selfscore_history[0].rmse,
            first.selfscore_history[0].mae);
}

TEST(QualityMonitorTest, SelfScoreCadenceFollowsOption) {
  serve::QualityMonitorOptions options;
  options.selfscore_every = 3;
  serve::QualityMonitor monitor(options);
  std::vector<bool> due;
  due.reserve(9);
  for (int i = 0; i < 9; ++i) due.push_back(monitor.SelfScoreDue("m"));
  EXPECT_EQ(due, std::vector<bool>({false, false, true, false, false, true,
                                    false, false, true}));
  // Per-model counters: a second model has its own cadence.
  EXPECT_FALSE(monitor.SelfScoreDue("other"));
}

TEST(QualityMonitorTest, LegacyModelWithoutProfileStillSelfScores) {
  TrainedCase c = MakeTrainedCase(47);
  // Strip the trailing profile record through a save/truncate/load cycle,
  // exactly how a pre-profile checkpoint presents itself.
  const std::string path = TempPath("quality_legacy.dmvi");
  ASSERT_TRUE(c.model.Save(path).ok());
  std::ostringstream record;
  ASSERT_TRUE(
      AppendQualityProfileRecord(record, *c.model.quality_profile()).ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() - record.str().size());
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  StatusOr<TrainedDeepMvi> legacy = TrainedDeepMvi::Load(path);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  ASSERT_EQ(legacy->quality_profile(), nullptr);

  serve::QualityMonitor monitor;
  monitor.ObserveInput("m", &legacy.value(), c.data_case.data,
                       c.data_case.mask);
  auto data = std::make_shared<const DataTensor>(c.data_case.data);
  monitor.SelfScore("m", &legacy.value(), data, c.data_case.mask, 99,
                    "req-legacy");
  serve::QualitySnapshot snapshot = monitor.Snapshot();
  ASSERT_EQ(snapshot.models.size(), 1u);
  // No reference: drift is unscored and the snapshot-level max stays at
  // its "no model has a reference" sentinel...
  EXPECT_FALSE(snapshot.models[0].has_reference);
  EXPECT_EQ(snapshot.models[0].series_scored, 0);
  EXPECT_DOUBLE_EQ(snapshot.max_drift_score, -1.0);
  // ...but live accounting and self-scoring work regardless.
  EXPECT_EQ(snapshot.models[0].requests_observed, 1);
  EXPECT_EQ(snapshot.models[0].selfscore_rounds, 1);
}

TEST(ImputationServiceTest, QualityMonitorDoesNotChangeResponseBytes) {
  // The tentpole bar: the monitor observes, scores, and self-scores on
  // the live path, yet every served byte is identical with it on or off.
  TrainedCase c = MakeTrainedCase();
  auto run = [&](serve::ServiceConfig config) {
    serve::ImputationService service(config);
    EXPECT_TRUE(
        service.registry().Register("default", MakeTrainedCase().model).ok());
    std::vector<serve::ImputationRequest> requests =
        MakeWorkloadRequests(c, 12);
    for (serve::ImputationRequest& request : requests) {
      request.model = "default";
    }
    std::vector<Matrix> imputed;
    for (serve::ImputationResponse& response :
         ImputeConcurrently(service, requests, 2)) {
      EXPECT_TRUE(response.status.ok());
      imputed.push_back(std::move(response.imputed));
    }
    return imputed;
  };

  std::vector<Matrix> plain = run(serve::ServiceConfig());

  serve::QualityMonitorOptions options;
  options.selfscore_every = 4;  // Several self-score rounds inside the run.
  serve::QualityMonitor monitor(options);
  serve::ServiceConfig monitored_config;
  monitored_config.quality = &monitor;
  std::vector<Matrix> monitored = run(monitored_config);

  ASSERT_EQ(plain.size(), monitored.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    ExpectMatricesBitIdentical(plain[i], monitored[i],
                               "quality-monitored vs plain");
  }
  // The monitored run really exercised the monitor.
  serve::QualitySnapshot snapshot = monitor.Snapshot();
  ASSERT_EQ(snapshot.models.size(), 1u);
  EXPECT_EQ(snapshot.models[0].requests_observed, 12);
  EXPECT_TRUE(snapshot.models[0].has_reference);
  EXPECT_EQ(snapshot.models[0].selfscore_rounds, 3);
}

TEST(RegistryTest, ReloadInfoCountsRegistrationsAndSwaps) {
  serve::ModelRegistry registry;
  serve::ModelRegistry::ReloadInfo empty = registry.reload_info();
  EXPECT_EQ(empty.registrations, 0);
  EXPECT_EQ(empty.reloads, 0);
  EXPECT_EQ(empty.model_age_seconds, -1.0);  // Nothing registered yet.

  ASSERT_TRUE(registry.Register("a", MakeTrainedCase().model).ok());
  serve::ModelRegistry::ReloadInfo first = registry.reload_info();
  EXPECT_EQ(first.registrations, 1);
  EXPECT_EQ(first.reloads, 0);
  EXPECT_EQ(first.last_model, "a");
  EXPECT_GE(first.model_age_seconds, 0.0);

  ASSERT_TRUE(registry.Register("b", MakeTrainedCase().model).ok());
  ASSERT_TRUE(registry.Register("a", MakeTrainedCase().model).ok());  // Swap.
  serve::ModelRegistry::ReloadInfo after = registry.reload_info();
  EXPECT_EQ(after.registrations, 3);
  EXPECT_EQ(after.reloads, 1);
  EXPECT_EQ(after.last_model, "a");
}

TEST(WorkloadTest, FileRoundTripAndErrors) {
  std::vector<serve::WorkloadQuery> queries = {{0, 5, 10}, {3, 0, 1}};
  const std::string path = TempPath("workload.csv");
  ASSERT_TRUE(serve::WriteWorkload(queries, path).ok());
  StatusOr<std::vector<serve::WorkloadQuery>> back =
      serve::ReadWorkload(path, 4, 50);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].row, 0);
  EXPECT_EQ((*back)[0].t_start, 5);
  EXPECT_EQ((*back)[0].block_len, 10);
  EXPECT_EQ((*back)[1].row, 3);
  std::remove(path.c_str());

  const std::string bad_path = TempPath("workload_bad.csv");
  std::ofstream(bad_path) << "# comment\n1,2\n";
  EXPECT_FALSE(serve::ReadWorkload(bad_path, 4, 50).ok());
  std::remove(bad_path.c_str());
  EXPECT_FALSE(serve::ReadWorkload("/nonexistent/workload.csv", 4, 50).ok());
}

TEST(WorkloadTest, QueriesOutsideTheDatasetAreRejectedNamingTheField) {
  // A 4 x 50 dataset: the check names the field and computes the block
  // end in 64 bits.
  struct Case {
    serve::WorkloadQuery query;
    const char* field;  // nullptr: in range.
  };
  for (const Case& c : {Case{{3, 42, 8}, nullptr}, Case{{0, 0, 50}, nullptr},
                        Case{{4, 0, 1}, "query.row"},
                        Case{{-1, 0, 1}, "query.row"},
                        Case{{0, 50, 1}, "query.t_start"},
                        Case{{0, -1, 1}, "query.t_start"},
                        Case{{0, 43, 8}, "query.block_len"},
                        Case{{0, 1, 0}, "query.block_len"},
                        Case{{0, 49, INT32_MAX}, "query.block_len"}}) {
    const Status status = serve::CheckQueryInRange(c.query, 4, 50);
    const std::string what = std::to_string(c.query.row) + "," +
                             std::to_string(c.query.t_start) + "," +
                             std::to_string(c.query.block_len);
    if (c.field == nullptr) {
      EXPECT_TRUE(status.ok()) << what << ": " << status.ToString();
      continue;
    }
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
    EXPECT_NE(status.message().find(c.field), std::string::npos)
        << what << ": " << status.ToString();
  }

  // A workload file read against the dataset's shape names the line.
  const std::string path = TempPath("workload_range.csv");
  std::ofstream(path) << "# row,t_start,block_len\n1,2,3\n\n9,2,3\n";
  ASSERT_TRUE(serve::ReadWorkload(path, 10, 50).ok());
  StatusOr<std::vector<serve::WorkloadQuery>> bounded =
      serve::ReadWorkload(path, 4, 50);
  ASSERT_FALSE(bounded.ok());
  EXPECT_EQ(bounded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bounded.status().message().find(path + ":4: query.row 9"),
            std::string::npos)
      << bounded.status().ToString();
  std::remove(path.c_str());
}

TEST(WorkloadTest, SynthesizedQueriesAreDeterministicAndInBounds) {
  const auto a = serve::SynthesizeWorkload(50, 8, 6, 100, 9);
  const auto b = serve::SynthesizeWorkload(50, 8, 6, 100, 9);
  ASSERT_EQ(a.size(), 50u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row, b[i].row);
    EXPECT_EQ(a[i].t_start, b[i].t_start);
    EXPECT_EQ(a[i].block_len, b[i].block_len);
    EXPECT_GE(a[i].row, 0);
    EXPECT_LT(a[i].row, 6);
    EXPECT_GE(a[i].t_start, 0);
    EXPECT_LE(a[i].t_start + a[i].block_len, 100);
  }
}

TEST(WorkloadTest, ApplyQueryAddsBlockToBaseMask) {
  Mask base(3, 20);
  base.set_missing(0, 0);
  Mask applied = serve::ApplyQuery(base, {1, 5, 4});
  EXPECT_TRUE(applied.missing(0, 0));  // Base misses survive.
  for (int t = 5; t < 9; ++t) EXPECT_TRUE(applied.missing(1, t));
  EXPECT_TRUE(applied.available(1, 4));
  EXPECT_TRUE(applied.available(1, 9));
  // Out-of-range rows are ignored, clamped times tolerated.
  Mask oob = serve::ApplyQuery(base, {99, 5, 4});
  EXPECT_EQ(oob.CountMissing(), base.CountMissing());
}

}  // namespace
}  // namespace deepmvi
