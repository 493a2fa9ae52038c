// Deterministically-sized concurrency stress suite, built to run under
// ThreadSanitizer (and -fsanitize=address) in CI: every test hammers one
// contended path of the serving stack with a small, fixed workload and
// asserts the aggregate outcome, so a pass means "no data races and no
// lost updates" rather than "nothing crashed".
//
// Sizing: thin by default (CI budgets, and TSan costs ~10x). Set
// DMVI_RACE_STRESS_ITERS=<multiplier> to scale every loop up for soak
// runs (e.g. 20 for a minutes-long local hunt).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "core/deepmvi.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/quality_monitor.h"
#include "serve/service.h"
#include "storage/chunk_cache.h"
#include "testing/test_util.h"

namespace deepmvi {
namespace {

using testutil::MakeSeasonalCase;
using testutil::SeasonalCase;
using testutil::TempPath;
using testutil::TinyDeepMviConfig;

using serve::ImputationRequest;
using serve::ImputationResponse;
using serve::ImputationService;
using serve::ResponseCache;
using serve::ServiceConfig;

/// Iteration multiplier from DMVI_RACE_STRESS_ITERS (default 1 = thin).
int StressScale() {
  static const int scale = [] {
    const char* env = std::getenv("DMVI_RACE_STRESS_ITERS");
    if (env == nullptr) return 1;
    const int value = std::atoi(env);
    return value > 0 ? value : 1;
  }();
  return scale;
}

/// One tiny trained model, fit once and parked as a checkpoint so tests
/// can reload it cheaply (service reloads deserialize instead of
/// retraining).
struct SharedModel {
  SeasonalCase data_case;
  std::string checkpoint_path;
  std::shared_ptr<const DataTensor> data;
};
const SharedModel& GetSharedModel() {
  static const SharedModel* shared = [] {
    auto* out = new SharedModel{MakeSeasonalCase(31, 5, 120),
                                TempPath("race_stress_model.dmvi"), nullptr};
    DeepMviConfig config = TinyDeepMviConfig();
    config.seed = 77;
    DeepMviImputer imputer(config);
    TrainedDeepMvi model = imputer.Fit(out->data_case.data,
                                       out->data_case.mask);
    Status saved = model.Save(out->checkpoint_path);
    DMVI_CHECK(saved.ok()) << saved.ToString();
    out->data = std::make_shared<DataTensor>(out->data_case.data);
    return out;
  }();
  return *shared;
}

/// A handful of distinct masks (distinct cache fingerprints) so cache
/// probes alternate between keys and a tiny budget actually evicts.
std::vector<Mask> DistinctMasks(int count) {
  const SharedModel& shared = GetSharedModel();
  std::vector<Mask> masks;
  for (int v = 0; v < count; ++v) {
    Mask mask = shared.data_case.mask;
    mask.SetMissingRange(v % mask.rows(), 10 + 5 * v, 14 + 5 * v);
    masks.push_back(std::move(mask));
  }
  return masks;
}

// ---- Service: Impute vs. model reload vs. cache eviction --------------------

// The flagship scenario: request traffic, warm model reloads, and response
// cache eviction all running at once — the production shape of a
// deployment update under load. Each reload frees the model it replaced
// once the requests holding it end, so models are freed while requests
// run. Every request must still be answered OK.
TEST(RaceStressTest, ImputeDuringModelReloadAndCacheThrash) {
  const SharedModel& shared = GetSharedModel();
  ServiceConfig config;
  // Budget of a couple of responses: probes constantly evict.
  config.cache_mb = 12.0 * 1024.0 / (1024.0 * 1024.0);
  ImputationService service(config);
  ASSERT_TRUE(service.Load(shared.checkpoint_path).ok());

  const std::vector<Mask> masks = DistinctMasks(6);
  const int requests_per_thread = 25 * StressScale();
  const int reloads = 15 * StressScale();
  const int scrapes = 60 * StressScale();

  std::atomic<int64_t> answered{0};
  std::atomic<bool> done{false};

  std::thread callers[2];
  for (int t = 0; t < 2; ++t) {
    callers[t] = std::thread([&, t] {
      for (int i = 0; i < requests_per_thread; ++i) {
        ImputationRequest request;
        request.data = shared.data;
        request.mask = masks[(t * requests_per_thread + i) % masks.size()];
        ImputationResponse response = service.Impute(request);
        EXPECT_TRUE(response.status.ok()) << response.status.ToString();
        answered.fetch_add(1);
      }
    });
  }
  // Warm reloads: each swaps in a freshly deserialized model while
  // requests are in flight (a request holds the model it started with).
  std::thread reloader([&] {
    for (int i = 0; i < reloads; ++i) {
      ASSERT_TRUE(service.Load(shared.checkpoint_path).ok());
    }
  });
  // Observability scrape riding the same instruments as the hot path.
  std::thread scraper([&] {
    for (int i = 0; i < scrapes && !done.load(); ++i) {
      const std::string text = service.metrics().PrometheusText();
      EXPECT_NE(text.find("\ndmvi_requests_total "), std::string::npos);
      (void)service.in_flight();
      (void)service.PressureDepth();
      if (service.response_cache() != nullptr) {
        ResponseCache::Stats stats = service.response_cache()->stats();
        EXPECT_GE(stats.hits + stats.misses, 0);
      }
    }
  });

  for (auto& caller : callers) caller.join();
  reloader.join();
  done = true;
  scraper.join();
  EXPECT_EQ(answered.load(), 2 * requests_per_thread);
  EXPECT_NE(service.metrics().PrometheusText().find(
                "\ndmvi_requests_total " +
                std::to_string(2 * requests_per_thread) + "\n"),
            std::string::npos);
  EXPECT_EQ(service.in_flight(), 0);
}

// ---- Metrics: scrape during load --------------------------------------------

TEST(RaceStressTest, MetricsScrapeDuringCounterAndHistogramStorm) {
  obs::MetricsRegistry registry;
  const int writers = 4;
  const int iters = 400 * StressScale();
  std::atomic<bool> done{false};
  // Registered up front so the scraper always has something to render
  // (writers then keep re-asking by name, the contended path).
  registry.CounterNamed("dmvi_stress_events_total", "Stress-loop events.");
  // Scraper renders the full exposition while writers register and bump
  // instruments (registration is idempotent, so every writer asks for the
  // instruments by name every iteration — the contended path).
  std::thread scraper([&] {
    while (!done.load()) {
      const std::string text = registry.PrometheusText();
      EXPECT_NE(text.find("dmvi_"), std::string::npos);
    }
  });
  ParallelFor(writers, writers, [&](int w) {
    for (int i = 0; i < iters; ++i) {
      registry
          .CounterNamed("dmvi_stress_events_total", "Stress-loop events.")
          ->Increment();
      registry
          .HistogramNamed("dmvi_stress_latency_seconds", "Stress latencies.")
          ->Observe(1e-4 * ((w * iters + i) % 100));
      registry.GaugeNamed("dmvi_stress_depth", "Stress depth.")
          ->Set(static_cast<double>(i));
    }
  });
  done = true;
  scraper.join();
  EXPECT_EQ(
      registry.CounterNamed("dmvi_stress_events_total", "Stress-loop events.")
          ->value(),
      static_cast<int64_t>(writers) * iters);
}

// ---- Tracer: span storm into a bounded sink ---------------------------------

TEST(RaceStressTest, TraceSinkSpanStormWithConcurrentReaders) {
  obs::CollectingTraceSink sink(/*capacity=*/128);
  obs::Tracer tracer(&sink);
  const int threads = 4;
  const int spans_per_thread = 300 * StressScale();
  std::atomic<bool> done{false};
  // Reader drains snapshots while the storm runs: records() copies under
  // the sink lock, dropped() reads the counter the storm is bumping.
  std::thread reader([&] {
    while (!done.load()) {
      EXPECT_LE(sink.records().size(), 128u);
      EXPECT_GE(sink.dropped(), 0);
    }
  });
  ParallelFor(threads, threads, [&](int t) {
    for (int i = 0; i < spans_per_thread; ++i) {
      obs::Span outer(&tracer, "storm.outer");
      outer.AddArg("thread", std::to_string(t));
      obs::Span inner(&tracer, "storm.inner");  // Implicit child of outer.
    }
  });
  done = true;
  reader.join();
  const int64_t total =
      static_cast<int64_t>(threads) * spans_per_thread * 2;
  EXPECT_EQ(static_cast<int64_t>(sink.records().size()) + sink.dropped(),
            total);
  EXPECT_LE(sink.records().size(), 128u);
}

// ---- ParallelFor: nested regions and error teardown -------------------------

TEST(RaceStressTest, NestedParallelForAndExceptionTeardown) {
  const int rounds = 6 * StressScale();
  for (int round = 0; round < rounds; ++round) {
    std::atomic<int64_t> sum{0};
    // Width varies across rounds; every region, inner ones included, runs
    // on threads spawned for it.
    const int outer = 2 + (round % 3);
    ParallelFor(outer * 2, outer, [&](int i) {
      ParallelFor(4, 2, [&](int j) { sum.fetch_add(i * 4 + j); });
    });
    const int n = outer * 2 * 4;
    EXPECT_EQ(sum.load(), static_cast<int64_t>(n) * (n - 1) / 2);

    // Error path: one iteration throws; the rethrow must leave nothing
    // behind that breaks the next round (every worker joined).
    EXPECT_THROW(
        ParallelFor(8, 2,
                    [&](int i) {
                      if (i == 5) throw std::runtime_error("boom");
                    }),
        std::runtime_error);
  }
  // Clean work still runs after repeated teardowns.
  std::atomic<int> after{0};
  ParallelFor(8, 4, [&](int) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

// ---- Profiler: windows vs. scrapes vs. request storm ------------------------

// The always-on observability trio running at once: profiler windows
// opening and closing (timer arm/disarm, sample slab swap), /metrics-style
// registry scrapes, and a request storm feeding the flight recorder. The
// profiler's Stop must synchronize with its signal handler, and label
// scopes on the storm threads race the handler's TLS reads by design —
// TSan gets a labels-only handler, everywhere else the native unwinder
// runs. Every request is still answered OK and the recorder's totals are
// exact.
TEST(RaceStressTest, ProfilerWindowsDuringScrapeAndRequestStorm) {
  const SharedModel& shared = GetSharedModel();
  obs::FlightRecorder recorder(/*capacity=*/64,
                               /*slow_threshold_seconds=*/0.5);
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.recorder = &recorder;
  config.metrics = &registry;
  ImputationService service(config);
  ASSERT_TRUE(service.Load(shared.checkpoint_path).ok());

  const std::vector<Mask> masks = DistinctMasks(6);
  const int requests_per_thread = 20 * StressScale();
  const int windows = 8 * StressScale();
  std::atomic<bool> done{false};

  // Profiler windows churn while requests run: every Start either opens a
  // window (then its Stop folds cleanly) or reports one is already open.
  std::thread profiler_churn([&] {
    for (int i = 0; i < windows; ++i) {
      Status started = obs::CpuProfiler::Start(/*hz=*/499);
      if (started.ok()) {
        const obs::ProfileResult result = obs::CpuProfiler::Stop();
        EXPECT_GE(result.samples, 0);
        EXPECT_GE(result.dropped, 0);
      } else {
        EXPECT_EQ(started.code(), StatusCode::kFailedPrecondition);
      }
    }
  });
  std::thread scraper([&] {
    while (!done.load()) {
      const std::string text = registry.PrometheusText();
      EXPECT_NE(text.find("dmvi_"), std::string::npos);
      (void)recorder.Snapshot();
      (void)recorder.total_slow();
    }
  });

  std::atomic<int64_t> answered{0};
  std::thread callers[2];
  for (int t = 0; t < 2; ++t) {
    callers[t] = std::thread([&, t] {
      for (int i = 0; i < requests_per_thread; ++i) {
        obs::ProfileLabelScope label("race_stress.impute");
        ImputationRequest request;
        request.request_id =
            "rs-" + std::to_string(t) + "-" + std::to_string(i);
        request.data = shared.data;
        request.mask = masks[(t * requests_per_thread + i) % masks.size()];
        ImputationResponse response = service.Impute(request);
        EXPECT_TRUE(response.status.ok()) << response.status.ToString();
        answered.fetch_add(1);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  profiler_churn.join();
  done = true;
  scraper.join();
  EXPECT_EQ(answered.load(), 2 * requests_per_thread);
  EXPECT_EQ(recorder.total_recorded(), 2 * requests_per_thread);
  EXPECT_FALSE(obs::CpuProfiler::IsRunning());
}

// ---- Chunk cache: loads vs. Clear -------------------------------------------

TEST(RaceStressTest, ChunkCacheLoadClearThrash) {
  storage::ChunkCache cache(/*byte_budget=*/4096);  // ~8 512-byte chunks.
  const int readers = 3;
  const int iters = 300 * StressScale();
  std::atomic<bool> done{false};
  std::thread clearer([&] {
    while (!done.load()) {
      cache.Clear();
      storage::ChunkCache::Stats stats = cache.stats();
      EXPECT_GE(stats.bytes_cached, 0);
      EXPECT_LE(stats.bytes_cached, cache.byte_budget());
    }
  });
  std::atomic<int64_t> calls{0};
  ParallelFor(readers, readers, [&](int r) {
    for (int i = 0; i < iters; ++i) {
      const int64_t key = (r * 7 + i) % 32;
      StatusOr<storage::ChunkCache::ChunkPtr> chunk =
          cache.GetOrLoad(key, [key]() -> StatusOr<Matrix> {
            return Matrix(8, 8, static_cast<double>(key));
          });
      ASSERT_TRUE(chunk.ok());
      // A race that mixed up entries would hand back the wrong payload.
      EXPECT_EQ((*chunk.value())(0, 0), static_cast<double>(key));
      calls.fetch_add(1);
    }
  });
  done = true;
  clearer.join();
  storage::ChunkCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, calls.load());
  EXPECT_LE(stats.peak_bytes, cache.byte_budget());
}

// ---- QualityMonitor: observe / self-score / snapshot / reload ---------------

// Quality monitoring rides every request, so its lock discipline gets the
// same treatment as the hot path: two threads folding inputs and running
// masked self-scoring, a reloader swapping the served model (whose newer
// generation resets live state mid-stream), and a snapshot scraper
// reading everything concurrently. Invariants: snapshots are internally
// consistent at every instant, and nothing tears or deadlocks.
TEST(RaceStressTest, QualityMonitorObserveSelfScoreSnapshotStorm) {
  const SharedModel& shared = GetSharedModel();
  ImputationService service;
  ASSERT_TRUE(service.Load(shared.checkpoint_path).ok());

  serve::QualityMonitorOptions qopts;
  qopts.selfscore_every = 3;  // Fire often so rounds overlap observes.
  qopts.selfscore_history = 8;
  serve::QualityMonitor monitor(qopts);

  const std::vector<Mask> masks = DistinctMasks(6);
  const int observes_per_thread = 40 * StressScale();
  const int reloads = 10 * StressScale();
  std::atomic<bool> done{false};

  std::thread observers[2];
  for (int t = 0; t < 2; ++t) {
    observers[t] = std::thread([&, t] {
      for (int i = 0; i < observes_per_thread; ++i) {
        // Re-fetch per iteration: the reloader swaps the served model
        // underneath us, and a newer generation must reset the monitor's
        // live state rather than corrupt it.
        const ImputationService::ServedModel served = service.served();
        ASSERT_NE(served.model, nullptr);
        const Mask& mask = masks[(t * observes_per_thread + i) %
                                 masks.size()];
        monitor.ObserveInput(*served.model, served.generation, *shared.data,
                             mask);
        if (monitor.SelfScoreDue()) {
          monitor.SelfScore(*served.model, served.generation, shared.data,
                            mask,
                            /*seed=*/static_cast<uint64_t>(t * 1000 + i),
                            "race-" + std::to_string(i));
        }
      }
    });
  }
  std::thread reloader([&] {
    for (int i = 0; i < reloads; ++i) {
      ASSERT_TRUE(service.Load(shared.checkpoint_path).ok());
    }
  });
  std::thread scraper([&] {
    while (!done.load()) {
      serve::QualitySnapshot snapshot = monitor.Snapshot();
      ASSERT_LE(snapshot.models.size(), 1u);
      if (snapshot.models.empty()) continue;
      const serve::ModelQualitySnapshot& m = snapshot.models[0];
      EXPECT_TRUE(m.has_reference);
      EXPECT_GE(m.requests_observed, 0);
      EXPECT_GE(m.cells_observed, 0);
      EXPECT_GE(m.input_missing_rate, 0.0);
      EXPECT_LE(m.input_missing_rate, 1.0);
      EXPECT_GE(m.drift_score, 0.0);
      EXPECT_GE(m.selfscore_rounds, 0);
      EXPECT_LE(m.selfscore_history.size(),
                static_cast<size_t>(qopts.selfscore_history));
      for (const serve::SelfScoreRecord& record : m.selfscore_history) {
        EXPECT_GE(record.cells, 0);
        EXPECT_GE(record.rmse, record.mae);
      }
    }
  });

  for (auto& observer : observers) observer.join();
  reloader.join();
  done = true;
  scraper.join();

  serve::QualitySnapshot final_snapshot = monitor.Snapshot();
  ASSERT_EQ(final_snapshot.models.size(), 1u);
  const serve::ModelQualitySnapshot& m = final_snapshot.models[0];
  // Reloads reset live counters, so the exact totals depend on thread
  // interleaving; they must still be coherent — cells split cleanly into
  // observed + missing, and live traffic matches the served dataset.
  EXPECT_TRUE(m.has_reference);
  EXPECT_GE(m.requests_observed, 1);
  EXPECT_LE(m.requests_observed, 2 * observes_per_thread);
  const int64_t cells_per_request =
      static_cast<int64_t>(shared.data->num_series()) *
      shared.data->num_times();
  EXPECT_EQ((m.cells_observed + m.cells_missing) % cells_per_request, 0);
  EXPECT_GE(final_snapshot.max_drift_score, 0.0);
}

}  // namespace
}  // namespace deepmvi
