#ifndef DEEPMVI_SERVE_QUALITY_MONITOR_H_
#define DEEPMVI_SERVE_QUALITY_MONITOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "core/trained_deepmvi.h"
#include "obs/metrics.h"
#include "tensor/data_tensor.h"
#include "tensor/mask.h"

namespace deepmvi {
namespace serve {

/// Knobs for QualityMonitor. All optional; the defaults keep the monitor
/// cheap enough to leave on in production (< 5% p95, BENCH AirQ-quality).
struct QualityMonitorOptions {
  /// Run masked self-scoring on every Nth successful full-model predict
  /// of a model generation (0 disables self-scoring entirely).
  int selfscore_every = 32;
  /// Fraction of a request's *observed* cells hidden for self-scoring,
  /// before the cap below.
  double selfscore_fraction = 0.02;
  /// Hard cap on hidden cells per self-score, confined to one series so
  /// the side prediction costs one or two chunk passes, not a full
  /// Predict.
  int selfscore_max_cells = 16;
  /// A series participates in the drift score only after this many live
  /// observations (PSI on a handful of samples is noise).
  int64_t min_live_count = 50;
  /// Self-score records kept for /debug/quality.
  int selfscore_history = 64;
  /// Optional metrics registry for the selfscore MAE/RMSE histograms;
  /// borrowed, may be null.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-series drift detail in a snapshot.
struct SeriesDriftInfo {
  int series = 0;
  double psi = 0.0;
  double ks = 0.0;
  int64_t live_count = 0;
  double ref_mean = 0.0;
  double live_mean = 0.0;
  /// True when this series had both a reference and enough live samples
  /// to contribute to the model's drift score.
  bool scored = false;
};

/// One masked self-scoring round.
struct SelfScoreRecord {
  std::string request_id;
  int cells = 0;
  double mae = 0.0;
  double rmse = 0.0;
  /// Monitor-clock seconds when the round completed.
  double at_seconds = 0.0;
};

/// Point-in-time quality view of the served model.
struct ModelQualitySnapshot {
  bool has_reference = false;
  int64_t requests_observed = 0;
  int64_t cells_observed = 0;   // Available cells folded into live bins.
  int64_t cells_missing = 0;    // Missing cells seen in request masks.
  double input_missing_rate = 0.0;
  double reference_missing_rate = 0.0;
  /// Max PSI / KS over scored series; 0 when nothing is scored yet.
  double drift_score = 0.0;
  double drift_ks = 0.0;
  int series_scored = 0;
  std::vector<SeriesDriftInfo> series;
  int64_t selfscore_rounds = 0;
  int64_t selfscore_cells = 0;
  double selfscore_mae_mean = 0.0;   // Over all rounds so far.
  double selfscore_rmse_mean = 0.0;
  std::vector<SelfScoreRecord> selfscore_history;  // Oldest first.
};

struct QualitySnapshot {
  /// Empty until a request is observed, then the served model's view.
  std::vector<ModelQualitySnapshot> models;
  /// The model's drift_score when it has a reference; else -1.
  double max_drift_score = -1.0;
};

/// Model-quality monitor for the serving path: folds every validated
/// request input into the served model's live distributions, scores them
/// against the checkpoint's training reference profile (PSI / KS per
/// series), and periodically runs masked self-scoring — deterministically
/// hide a few observed cells on a side mask, impute them, record MAE/RMSE
/// against the hidden truth — giving a live accuracy signal with no
/// ground-truth dependency.
///
/// The monitor is strictly read-only with respect to serving: it never
/// touches request or response state, so served bytes are cmp-identical
/// with the monitor on or off (serve_test locks this in). Thread-safe;
/// the live state lives under one mutex, and the self-score prediction
/// itself runs outside the lock. The state belongs to one load generation
/// of the served model (ImputationService::served()): a newer generation
/// (a reload) restarts it against the new reference, and calls that carry
/// an older one (requests that took their model before the reload) are
/// dropped.
class QualityMonitor {
 public:
  explicit QualityMonitor(QualityMonitorOptions options = {});

  /// Folds one validated request input into the live state of `model`,
  /// load generation `generation`. `model` carries the reference profile
  /// (absent for legacy checkpoints: live moments and missing rates still
  /// accumulate, drift stays unscored).
  void ObserveInput(const TrainedDeepMvi& model, int64_t generation,
                    const DataTensor& data, const Mask& mask);

  /// Counts one successful full-model predict and returns true when this
  /// one should be self-scored (every Nth).
  bool SelfScoreDue();

  /// Runs one masked self-scoring round: seeded by `seed` (the service
  /// derives it from the request's data/mask fingerprints, so replays
  /// hide the same cells), hides up to selfscore_max_cells observed
  /// cells of one series on a copy of `mask`, predicts them with
  /// `model`, and records MAE/RMSE. Failures are counted and dropped —
  /// self-scoring must never surface to the caller.
  void SelfScore(const TrainedDeepMvi& model, int64_t generation,
                 const std::shared_ptr<const DataTensor>& data,
                 const Mask& mask, uint64_t seed,
                 const std::string& request_id);

  QualitySnapshot Snapshot() const;

  const QualityMonitorOptions& options() const { return options_; }

 private:
  struct SeriesState {
    /// Deduplicated reference decile edges and the expected fraction of
    /// each of the edges.size() + 1 bins; empty without a reference.
    std::vector<double> edges;
    std::vector<double> expected;
    std::vector<int64_t> bins;  // Live counts, edges.size() + 1 entries.
    int64_t live_count = 0;
    int64_t live_missing = 0;
    double live_sum = 0.0;
    double ref_mean = 0.0;
  };
  struct ModelState {
    int64_t generation = 0;  // 0 until the first observed call.
    bool has_reference = false;
    double reference_missing_rate = 0.0;
    std::vector<SeriesState> series;
    int64_t requests = 0;
    int64_t cells = 0;
    int64_t missing = 0;
    int64_t predicts = 0;  // Drives the self-score cadence.
    int64_t selfscore_rounds = 0;
    int64_t selfscore_cells = 0;
    int64_t selfscore_failures = 0;
    double selfscore_mae_sum = 0.0;
    double selfscore_rmse_sum = 0.0;
    std::deque<SelfScoreRecord> history;
  };

  /// The live state for `generation`, rebuilt against `model`'s reference
  /// profile when the generation is newer; null when it is older.
  ModelState* StateLocked(const TrainedDeepMvi& model, int64_t generation)
      DMVI_REQUIRES(mutex_);

  const QualityMonitorOptions options_;
  const Stopwatch clock_;
  obs::Histogram* mae_hist_ = nullptr;   // Null without a registry.
  obs::Histogram* rmse_hist_ = nullptr;
  mutable Mutex mutex_;
  ModelState state_ DMVI_GUARDED_BY(mutex_);
};

}  // namespace serve
}  // namespace deepmvi

#endif  // DEEPMVI_SERVE_QUALITY_MONITOR_H_
