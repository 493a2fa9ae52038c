#include "serve/quality_monitor.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "obs/quantile_sketch.h"
#include "storage/data_source.h"

namespace deepmvi {
namespace serve {

QualityMonitor::QualityMonitor(QualityMonitorOptions options)
    : options_(options) {
  if (options_.metrics != nullptr) {
    mae_hist_ = options_.metrics->HistogramNamed(
        "dmvi_model_selfscore_mae",
        "Masked self-scoring mean absolute error per round");
    rmse_hist_ = options_.metrics->HistogramNamed(
        "dmvi_model_selfscore_rmse",
        "Masked self-scoring root mean squared error per round");
  }
}

QualityMonitor::ModelState* QualityMonitor::StateLocked(
    const TrainedDeepMvi& model, int64_t generation) {
  if (generation < state_.generation) return nullptr;
  ModelState& state = state_;
  if (generation == state.generation) return &state;

  // First sighting or a reload: rebuild the live state against the new
  // model's reference profile.
  state = ModelState();
  state.generation = generation;
  const QualityProfile* profile = model.quality_profile();
  const int num_series = model.num_series();
  state.series.resize(static_cast<size_t>(std::max(0, num_series)));
  if (profile != nullptr && profile->num_series() == num_series) {
    state.has_reference = true;
    state.reference_missing_rate = profile->MissingRate();
    for (int r = 0; r < num_series; ++r) {
      const QualityProfile::Series& ref =
          profile->series[static_cast<size_t>(r)];
      SeriesState& out = state.series[static_cast<size_t>(r)];
      out.ref_mean = ref.mean;
      if (ref.count <= 0 || ref.decile_edges.empty()) continue;
      // Deduplicate the decile edges; each unique edge keeps the
      // cumulative decile mass of the last duplicate it absorbs.
      std::vector<double> cum;
      for (size_t d = 0; d < ref.decile_edges.size(); ++d) {
        const double edge = ref.decile_edges[d];
        const double mass = 0.1 * static_cast<double>(d + 1);
        if (!out.edges.empty() && edge <= out.edges.back()) {
          cum.back() = mass;
          continue;
        }
        out.edges.push_back(edge);
        cum.push_back(mass);
      }
      out.expected.reserve(out.edges.size() + 1);
      double prev = 0.0;
      for (double c : cum) {
        out.expected.push_back(c - prev);
        prev = c;
      }
      out.expected.push_back(1.0 - prev);
      out.bins.assign(out.edges.size() + 1, 0);
      // A single-bin (or degenerate) layout can't express drift; drop
      // the reference for this series so it never scores.
      if (out.edges.empty()) {
        out.expected.clear();
        out.bins.clear();
      }
    }
  }
  return &state;
}

void QualityMonitor::ObserveInput(const TrainedDeepMvi& model,
                                  int64_t generation, const DataTensor& data,
                                  const Mask& mask) {
  const Matrix& values = data.values();
  const int num_series = values.rows();
  const int num_times = values.cols();

  MutexLock lock(&mutex_);
  ModelState* live = StateLocked(model, generation);
  if (live == nullptr) return;
  ModelState& state = *live;
  ++state.requests;
  const int rows =
      std::min(num_series, static_cast<int>(state.series.size()));
  for (int r = 0; r < rows; ++r) {
    SeriesState& series = state.series[static_cast<size_t>(r)];
    for (int t = 0; t < num_times; ++t) {
      if (!mask.available(r, t)) {
        ++series.live_missing;
        ++state.missing;
        continue;
      }
      const double v = values(r, t);
      if (std::isnan(v)) continue;
      ++series.live_count;
      series.live_sum += v;
      ++state.cells;
      if (!series.bins.empty()) {
        const size_t bin = static_cast<size_t>(
            std::lower_bound(series.edges.begin(), series.edges.end(), v) -
            series.edges.begin());
        ++series.bins[bin];
      }
    }
  }
}

bool QualityMonitor::SelfScoreDue() {
  if (options_.selfscore_every <= 0) return false;
  MutexLock lock(&mutex_);
  ++state_.predicts;
  return state_.predicts % options_.selfscore_every == 0;
}

void QualityMonitor::SelfScore(const TrainedDeepMvi& model, int64_t generation,
                               const std::shared_ptr<const DataTensor>& data,
                               const Mask& mask, uint64_t seed,
                               const std::string& request_id) {
  if (data == nullptr) return;
  const Matrix& values = data->values();
  const int num_series = values.rows();
  const int num_times = values.cols();
  if (num_series <= 0 || num_times <= 0) return;

  // Deterministic cell choice: pick one series with observed cells, then
  // hide a window-confined sample of them. Everything below the lock is
  // a pure function of (data, mask, seed).
  Rng rng(seed);
  int row = -1;
  std::vector<int> observed_times;
  for (int attempt = 0; attempt < 8 && row < 0; ++attempt) {
    const int candidate = rng.UniformInt(num_series);
    for (int t = 0; t < num_times; ++t) {
      if (mask.available(candidate, t) && !std::isnan(values(candidate, t))) {
        observed_times.push_back(t);
      }
    }
    if (observed_times.size() >= 2) {
      row = candidate;
    } else {
      observed_times.clear();
    }
  }
  if (row < 0) return;

  // Confine candidates to ~two windows around a random anchor so the
  // side prediction touches one or two chunks, not the whole series.
  const int window = std::max(1, model.config().window);
  const int span = std::min(num_times, 2 * window);
  const int anchor_index =
      rng.UniformInt(static_cast<int>(observed_times.size()));
  const int t_center = observed_times[static_cast<size_t>(anchor_index)];
  const int t_lo = std::max(0, t_center - span / 2);
  const int t_hi = std::min(num_times, t_lo + span);
  std::vector<int> in_span;
  for (int t : observed_times) {
    if (t >= t_lo && t < t_hi) in_span.push_back(t);
  }
  if (in_span.empty()) return;

  int want = static_cast<int>(options_.selfscore_fraction *
                              static_cast<double>(in_span.size()));
  want = std::max(1, std::min({want, options_.selfscore_max_cells,
                               static_cast<int>(in_span.size())}));
  std::vector<int> picks = rng.SampleWithoutReplacement(
      static_cast<int>(in_span.size()), want);
  std::sort(picks.begin(), picks.end());

  Mask side = mask;
  std::vector<CellIndex> cells;
  cells.reserve(picks.size());
  for (int p : picks) {
    const int t = in_span[static_cast<size_t>(p)];
    side.set_missing(row, t);
    cells.push_back(CellIndex{row, t});
  }

  storage::InMemoryDataSource source(data.get());
  StatusOr<std::vector<double>> preds =
      model.PredictCells(source, side, cells);
  double mae = 0.0;
  double rmse = 0.0;
  bool ok = preds.ok() && preds.value().size() == cells.size();
  if (ok) {
    for (size_t i = 0; i < cells.size(); ++i) {
      const double truth = values(cells[i].series, cells[i].time);
      const double err = preds.value()[i] - truth;
      if (!std::isfinite(err)) {
        ok = false;
        break;
      }
      mae += std::abs(err);
      rmse += err * err;
    }
  }
  if (ok) {
    mae /= static_cast<double>(cells.size());
    rmse = std::sqrt(rmse / static_cast<double>(cells.size()));
  }

  {
    MutexLock lock(&mutex_);
    ModelState* live = StateLocked(model, generation);
    if (live == nullptr) return;
    ModelState& state = *live;
    if (!ok) {
      ++state.selfscore_failures;
      return;
    }
    ++state.selfscore_rounds;
    state.selfscore_cells += static_cast<int64_t>(cells.size());
    state.selfscore_mae_sum += mae;
    state.selfscore_rmse_sum += rmse;
    SelfScoreRecord record;
    record.request_id = request_id;
    record.cells = static_cast<int>(cells.size());
    record.mae = mae;
    record.rmse = rmse;
    record.at_seconds = clock_.ElapsedSeconds();
    state.history.push_back(std::move(record));
    while (static_cast<int>(state.history.size()) >
           std::max(1, options_.selfscore_history)) {
      state.history.pop_front();
    }
  }
  if (mae_hist_ != nullptr) mae_hist_->Observe(mae);
  if (rmse_hist_ != nullptr) rmse_hist_->Observe(rmse);
}

QualitySnapshot QualityMonitor::Snapshot() const {
  QualitySnapshot out;
  MutexLock lock(&mutex_);
  const ModelState& state = state_;
  if (state.generation > 0) {
    ModelQualitySnapshot model;
    model.has_reference = state.has_reference;
    model.requests_observed = state.requests;
    model.cells_observed = state.cells;
    model.cells_missing = state.missing;
    const int64_t total = state.cells + state.missing;
    model.input_missing_rate =
        total > 0 ? static_cast<double>(state.missing) /
                        static_cast<double>(total)
                  : 0.0;
    model.reference_missing_rate = state.reference_missing_rate;
    model.series.reserve(state.series.size());
    for (size_t r = 0; r < state.series.size(); ++r) {
      const SeriesState& series = state.series[r];
      SeriesDriftInfo info;
      info.series = static_cast<int>(r);
      info.live_count = series.live_count;
      info.ref_mean = series.ref_mean;
      info.live_mean =
          series.live_count > 0
              ? series.live_sum / static_cast<double>(series.live_count)
              : 0.0;
      if (!series.bins.empty() &&
          series.live_count >= options_.min_live_count) {
        info.psi = obs::PopulationStabilityIndex(series.expected, series.bins);
        info.ks =
            obs::KolmogorovSmirnovStatistic(series.expected, series.bins);
        info.scored = true;
        ++model.series_scored;
        model.drift_score = std::max(model.drift_score, info.psi);
        model.drift_ks = std::max(model.drift_ks, info.ks);
      }
      model.series.push_back(info);
    }
    model.selfscore_rounds = state.selfscore_rounds;
    model.selfscore_cells = state.selfscore_cells;
    if (state.selfscore_rounds > 0) {
      model.selfscore_mae_mean =
          state.selfscore_mae_sum / static_cast<double>(state.selfscore_rounds);
      model.selfscore_rmse_mean =
          state.selfscore_rmse_sum /
          static_cast<double>(state.selfscore_rounds);
    }
    model.selfscore_history.assign(state.history.begin(),
                                   state.history.end());
    if (model.has_reference) out.max_drift_score = model.drift_score;
    out.models.push_back(std::move(model));
  }
  return out;
}

}  // namespace serve
}  // namespace deepmvi
