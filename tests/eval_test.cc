#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>

#include "baselines/simple.h"
#include "data/presets.h"
#include "eval/analytics.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "eval/suite.h"

namespace deepmvi {
namespace {

std::unique_ptr<Imputer> SimpleFactory(const std::string& name) {
  if (name == "Mean") return std::make_unique<MeanImputer>();
  if (name == "LinearInterp") {
    return std::make_unique<LinearInterpolationImputer>();
  }
  return nullptr;
}

SuiteSpec SmallGrid(int threads) {
  SuiteSpec spec;
  spec.datasets = {"AirQ", "Meteo"};
  spec.imputers = {"Mean", "LinearInterp"};
  ScenarioConfig mcar;
  mcar.kind = ScenarioKind::kMcar;
  mcar.percent_incomplete = 1.0;
  mcar.seed = 11;
  ScenarioConfig blackout;
  blackout.kind = ScenarioKind::kBlackout;
  blackout.block_size = 12;
  blackout.seed = 11;
  spec.scenarios = {mcar, blackout};
  spec.factory = SimpleFactory;
  spec.threads = threads;
  return spec;
}

TEST(MetricsTest, MaeOnMissingOnlyCountsMissing) {
  Matrix truth = {{1, 2, 3}};
  Matrix imputed = {{1, 5, 3}};  // Error of 3 at position 1.
  Mask mask(1, 3);
  mask.set_missing(0, 1);
  EXPECT_NEAR(MaeOnMissing(imputed, truth, mask), 3.0, 1e-12);
  // Errors on available cells are ignored.
  imputed(0, 0) = 100.0;
  EXPECT_NEAR(MaeOnMissing(imputed, truth, mask), 3.0, 1e-12);
}

TEST(MetricsTest, RmsePenalizesLargeErrors) {
  Matrix truth = {{0, 0}};
  Matrix imputed = {{3, 4}};
  Mask mask(1, 2);
  mask.set_missing(0, 0);
  mask.set_missing(0, 1);
  EXPECT_NEAR(MaeOnMissing(imputed, truth, mask), 3.5, 1e-12);
  EXPECT_NEAR(RmseOnMissing(imputed, truth, mask), std::sqrt(12.5), 1e-12);
}

TEST(MetricsTest, MaeWholeMatrix) {
  Matrix a = {{1, 1}, {1, 1}};
  Matrix b = {{0, 2}, {1, 1}};
  EXPECT_NEAR(Mae(a, b), 0.5, 1e-12);
}

TEST(AnalyticsTest, AggregateOverFirstDim1D) {
  Matrix values = {{2, 4}, {4, 8}};
  DataTensor data = DataTensor::FromMatrix(values);
  Matrix agg = AggregateOverFirstDim(data, values);
  EXPECT_EQ(agg.rows(), 1);
  EXPECT_NEAR(agg(0, 0), 3.0, 1e-12);
  EXPECT_NEAR(agg(0, 1), 6.0, 1e-12);
}

TEST(AnalyticsTest, AggregateOverFirstDim2D) {
  // 2 stores x 3 items: aggregate over stores -> per-item series.
  Dimension stores{"store", {"s0", "s1"}};
  Dimension items{"item", {"i0", "i1", "i2"}};
  Matrix values(6, 2);
  // store 0: items get value 1, 2, 3; store 1: 3, 4, 5.
  for (int i = 0; i < 3; ++i) {
    values(i, 0) = values(i, 1) = i + 1;
    values(3 + i, 0) = values(3 + i, 1) = i + 3;
  }
  DataTensor data({stores, items}, values);
  Matrix agg = AggregateOverFirstDim(data, values);
  EXPECT_EQ(agg.rows(), 3);
  EXPECT_NEAR(agg(0, 0), 2.0, 1e-12);  // (1+3)/2
  EXPECT_NEAR(agg(2, 1), 4.0, 1e-12);  // (3+5)/2
}

TEST(AnalyticsTest, DropCellSkipsMissing) {
  Matrix values = {{2, 2}, {10, 4}};
  DataTensor data = DataTensor::FromMatrix(values);
  Mask mask(2, 2);
  mask.set_missing(1, 0);  // Value 10 is missing.
  Matrix agg = AggregateDropCell(data, values, mask);
  EXPECT_NEAR(agg(0, 0), 2.0, 1e-12);  // Only the available 2 counts.
  EXPECT_NEAR(agg(0, 1), 3.0, 1e-12);
}

TEST(AnalyticsTest, DropCellFallsBackWhenAllMissing) {
  Matrix values = {{2, 2}, {4, 4}};
  DataTensor data = DataTensor::FromMatrix(values);
  Mask mask(2, 2);
  mask.set_missing(0, 0);
  mask.set_missing(1, 0);
  Matrix agg = AggregateDropCell(data, values, mask);
  EXPECT_NEAR(agg(0, 0), 3.0, 1e-12);  // Falls back to full average.
}

TEST(AnalyticsTest, PerfectImputationHasNonNegativeGain) {
  Matrix values = {{1, 5, 3}, {2, 6, 4}};
  DataTensor data = DataTensor::FromMatrix(values);
  Mask mask(2, 3);
  mask.set_missing(0, 1);
  // Imputed == truth: method aggregate error is 0, so the gain equals
  // DropCell's error, which is >= 0.
  const double gain = AnalyticsGainOverDropCell(data, values, values, mask);
  EXPECT_GE(gain, 0.0);
  EXPECT_GT(gain, 1e-6);  // DropCell is biased here (5 dropped from avg).
}

TEST(RunnerTest, ProtocolProducesFiniteMetrics) {
  DataTensor data = MakeDataset("AirQ", DatasetScale::kReduced, 3);
  ScenarioConfig scenario;
  scenario.kind = ScenarioKind::kMcar;
  scenario.percent_incomplete = 0.5;
  scenario.seed = 4;
  LinearInterpolationImputer imputer;
  ExperimentResult result = RunExperiment(data, scenario, imputer);
  EXPECT_EQ(result.imputer_name, "LinearInterp");
  EXPECT_EQ(result.scenario_name, "MCAR");
  EXPECT_GT(result.mae, 0.0);
  EXPECT_GE(result.rmse, result.mae);
  EXPECT_GT(result.missing_cells, 0);
  EXPECT_GE(result.runtime_seconds, 0.0);
}

TEST(RunnerTest, MeanImputerHasMaeAboutOneOnNormalizedData) {
  // After z-scoring, series-mean imputation has expected absolute error
  // ~E|N(0,1)| = 0.8 on MCAR cells of a noisy series; must be in a sane
  // range.
  DataTensor data = MakeDataset("Meteo", DatasetScale::kReduced, 5);
  ScenarioConfig scenario;
  scenario.kind = ScenarioKind::kMcar;
  scenario.percent_incomplete = 1.0;
  scenario.seed = 6;
  MeanImputer imputer;
  ExperimentResult result = RunExperiment(data, scenario, imputer);
  EXPECT_GT(result.mae, 0.2);
  EXPECT_LT(result.mae, 2.0);
}

TEST(RunnerTest, ImputeAndExtractSeriesDenormalizes) {
  DataTensor data = MakeDataset("AirQ", DatasetScale::kReduced, 7);
  ScenarioConfig scenario;
  scenario.kind = ScenarioKind::kBlackout;
  scenario.block_size = 10;
  scenario.seed = 8;
  Mask mask = GenerateScenario(scenario, data.num_series(), data.num_times());
  LinearInterpolationImputer imputer;
  ImputedSeries series = ImputeAndExtractSeries(data, mask, imputer, 0);
  ASSERT_EQ(series.truth.size(), static_cast<size_t>(data.num_times()));
  ASSERT_EQ(series.imputed.size(), series.truth.size());
  // Available positions match the original data exactly (denormalized round trip).
  for (int t = 0; t < data.num_times(); ++t) {
    if (!series.missing[t]) {
      EXPECT_NEAR(series.imputed[t], series.truth[t], 1e-9);
    }
  }
}

TEST(SuiteTest, GridOrderIsDeterministicDatasetMajor) {
  SuiteResult suite = RunSuite(SmallGrid(/*threads=*/2));
  ASSERT_EQ(suite.cells.size(), 8u);  // 2 datasets x 2 scenarios x 2 imputers.
  EXPECT_EQ(suite.cells[0].dataset, "AirQ");
  EXPECT_EQ(suite.cells[0].scenario_name, "MCAR");
  EXPECT_EQ(suite.cells[0].imputer, "Mean");
  EXPECT_EQ(suite.cells[1].imputer, "LinearInterp");
  EXPECT_EQ(suite.cells[2].scenario_name, "Blackout");
  EXPECT_EQ(suite.cells[4].dataset, "Meteo");
  EXPECT_GE(suite.wall_seconds, 0.0);
  EXPECT_EQ(suite.num_failed(), 0);
}

TEST(SuiteTest, ParallelRunMatchesSerialRunExperiment) {
  // The acceptance property of the batch runner: fanning the grid over
  // worker threads changes nothing — every cell equals a direct serial
  // RunExperiment with the same dataset, scenario, and imputer.
  SuiteResult parallel = RunSuite(SmallGrid(/*threads=*/4));
  for (const SuiteCell& cell : parallel.cells) {
    ASSERT_TRUE(cell.ok) << cell.error;
    DataTensor data = MakeDataset(cell.dataset, DatasetScale::kReduced, 1);
    std::unique_ptr<Imputer> imputer = SimpleFactory(cell.imputer);
    ExperimentResult serial = RunExperiment(data, cell.scenario, *imputer);
    EXPECT_EQ(cell.result.mae, serial.mae) << cell.dataset << " " << cell.imputer;
    EXPECT_EQ(cell.result.rmse, serial.rmse);
    EXPECT_EQ(cell.result.analytics_gain, serial.analytics_gain);
    EXPECT_EQ(cell.result.missing_cells, serial.missing_cells);
  }
}

TEST(SuiteTest, ProgressCallbackCoversEveryCell) {
  SuiteSpec spec = SmallGrid(/*threads=*/3);
  int calls = 0, last_done = 0, last_total = 0;
  spec.progress = [&](int done, int total) {
    ++calls;
    last_done = done;
    last_total = total;
  };
  SuiteResult suite = RunSuite(spec);
  EXPECT_EQ(calls, static_cast<int>(suite.cells.size()));
  EXPECT_EQ(last_done, last_total);
  EXPECT_EQ(last_total, static_cast<int>(suite.cells.size()));
}

TEST(SuiteTest, UnknownNamesBecomeFailedCellsNotCrashes) {
  SuiteSpec spec = SmallGrid(/*threads=*/2);
  spec.datasets = {"AirQ", "NoSuchDataset"};
  spec.imputers = {"Mean", "NoSuchImputer"};
  SuiteResult suite = RunSuite(spec);
  ASSERT_EQ(suite.cells.size(), 8u);
  EXPECT_EQ(suite.num_failed(), 6);  // Only AirQ x Mean cells succeed.
  for (const SuiteCell& cell : suite.cells) {
    if (cell.dataset == "AirQ" && cell.imputer == "Mean") {
      EXPECT_TRUE(cell.ok);
    } else {
      EXPECT_FALSE(cell.ok);
      EXPECT_FALSE(cell.error.empty());
    }
  }
}

TEST(SuiteTest, JsonAndCsvRenderEveryCell) {
  SuiteResult suite = RunSuite(SmallGrid(/*threads=*/2));
  const std::string json = SuiteToJson(suite);
  EXPECT_NE(json.find("\"num_cells\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"num_failed\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"dataset\": \"Meteo\""), std::string::npos);
  EXPECT_NE(json.find("\"mae\":"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check without a parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.find("\"micro\""), std::string::npos);
  // bench_diff reads one cell object per line: each cell, in grid order,
  // must sit whole on its own line with its key and metrics.
  std::istringstream lines(json);
  std::string line;
  size_t cell = 0;
  while (std::getline(lines, line)) {
    if (line.find("\"dataset\":") == std::string::npos) continue;
    ASSERT_LT(cell, suite.cells.size()) << line;
    const SuiteCell& expected = suite.cells[cell++];
    const std::string key = "{\"dataset\": \"" + expected.dataset +
                            "\", \"scenario\": \"" + expected.scenario_name +
                            "\", \"imputer\": \"" + expected.imputer + "\"";
    EXPECT_NE(line.find(key), std::string::npos) << line;
    EXPECT_NE(line.find("\"ok\": true, \"mae\": "), std::string::npos) << line;
    EXPECT_NE(line.find("\"rmse\": "), std::string::npos) << line;
    EXPECT_EQ(std::count(line.begin(), line.end(), '{'), 1) << line;
    EXPECT_EQ(std::count(line.begin(), line.end(), '}'), 1) << line;
  }
  EXPECT_EQ(cell, suite.cells.size());
  TablePrinter table = SuiteToTable(suite);
  EXPECT_EQ(table.num_rows(), 8);
}

TEST(SuiteTest, ParseScenarioKindInvertsScenarioName) {
  for (ScenarioKind kind :
       {ScenarioKind::kMcar, ScenarioKind::kMissDisj, ScenarioKind::kMissOver,
        ScenarioKind::kBlackout, ScenarioKind::kMissPoint,
        ScenarioKind::kMultiBlackout, ScenarioKind::kMnar,
        ScenarioKind::kDrift}) {
    StatusOr<ScenarioKind> parsed = ParseScenarioKind(ScenarioName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseScenarioKind("NotAScenario").ok());
}

TEST(RunnerTest, MnarExperimentProducesFiniteMetrics) {
  DataTensor data = MakeDataset("AirQ", DatasetScale::kReduced, 3);
  ScenarioConfig scenario;
  scenario.kind = ScenarioKind::kMnar;
  scenario.percent_incomplete = 1.0;
  scenario.seed = 12;
  LinearInterpolationImputer imputer;
  ExperimentResult result = RunExperiment(data, scenario, imputer);
  EXPECT_EQ(result.scenario_name, "MNAR");
  EXPECT_TRUE(std::isfinite(result.mae));
  EXPECT_GT(result.mae, 0.0);
  EXPECT_GT(result.missing_cells, 0);
}

TEST(RunnerTest, DriftExperimentScoresTransformedValues) {
  // Drift rewrites the ground truth before masking, so the mean imputer's
  // error must reflect the drifted series (strictly worse than scoring a
  // flat copy would be is hard to assert portably; finiteness and the
  // straddle-the-jump mask shape are the contract).
  DataTensor data = MakeDataset("Meteo", DatasetScale::kReduced, 9);
  ScenarioConfig scenario;
  scenario.kind = ScenarioKind::kDrift;
  scenario.percent_incomplete = 1.0;
  scenario.block_size = 8;
  scenario.seed = 14;
  MeanImputer imputer;
  ExperimentResult result = RunExperiment(data, scenario, imputer);
  EXPECT_EQ(result.scenario_name, "Drift");
  EXPECT_TRUE(std::isfinite(result.mae));
  EXPECT_GT(result.mae, 0.0);
  EXPECT_GT(result.missing_cells, 0);
}

TEST(SuiteTest, ProductionScenarioGridScoresEveryCell) {
  // The production grid (MultiBlackout, MNAR, Drift) must flow through
  // RunSuite like the paper scenarios: every cell ok, metrics rendered
  // into the suite JSON under the new scenario names.
  SuiteSpec spec;
  spec.datasets = {"AirQ"};
  spec.imputers = {"Mean", "LinearInterp"};
  for (ScenarioKind kind :
       {ScenarioKind::kMultiBlackout, ScenarioKind::kMnar,
        ScenarioKind::kDrift}) {
    ScenarioConfig config;
    config.kind = kind;
    config.percent_incomplete = 1.0;
    config.seed = 11;
    spec.scenarios.push_back(config);
  }
  spec.factory = SimpleFactory;
  spec.threads = 3;
  SuiteResult suite = RunSuite(spec);
  ASSERT_EQ(suite.cells.size(), 6u);
  for (const SuiteCell& cell : suite.cells) {
    ASSERT_TRUE(cell.ok) << cell.scenario_name << ": " << cell.error;
    EXPECT_TRUE(std::isfinite(cell.result.mae)) << cell.scenario_name;
    EXPECT_GT(cell.result.missing_cells, 0) << cell.scenario_name;
  }
  const std::string json = SuiteToJson(suite);
  EXPECT_NE(json.find("\"scenario\": \"MultiBlackout\""), std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"MNAR\""), std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"Drift\""), std::string::npos);
}

}  // namespace
}  // namespace deepmvi
