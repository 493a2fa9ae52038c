// perfbench_selftest: unit tests of the benchmark's own statistics and
// load generator (python3 perfbench/run.py --selftest). Exit status 0 when
// every check passes.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "load.h"
#include "stats.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::printf("  FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
      ++g_failures;                                                     \
    }                                                                   \
  } while (0)

void PercentileNeedsTenSamplesBeyond() {
  EXPECT(LatencySample::MinSamplesFor(0.95) == 200);
  EXPECT(LatencySample::MinSamplesFor(0.99) == 1000);
  LatencySample sample;
  for (int i = 1; i <= 199; ++i) sample.AddCompleted(i);
  EXPECT(sample.SamplesBeyond(0.95) == 9);
  EXPECT(!sample.Supports(0.95));
  sample.AddCompleted(200);
  EXPECT(sample.SamplesBeyond(0.95) == 10);
  EXPECT(sample.Supports(0.95));
  EXPECT(sample.Quantile(0.95) == 190.0);  // Nearest rank: ceil(0.95 * 200).
  EXPECT(sample.Median() == 100.0);
  EXPECT(Median({3.0, 1.0, 2.0, 10.0}) == 2.5);
}

void FailuresCountAsOverEveryLimit() {
  LatencySample sample;
  for (int i = 0; i < 190; ++i) sample.AddCompleted(1.0);
  for (int i = 0; i < 10; ++i) sample.AddFailed();
  EXPECT(sample.attempted() == 200);
  EXPECT(sample.failed() == 10);
  EXPECT(sample.Median() == 1.0);
  // 5% failed: p95 still lands on a success; one more failure pushes it
  // over any finite limit.
  EXPECT(sample.Quantile(0.95) == 1.0);
  sample.AddFailed();
  EXPECT(std::isinf(sample.Quantile(0.95)));
  // A failed op fails the latency check however fast it came back.
  PhaseResult phase;
  for (int i = 0; i < 4; ++i) {
    OpRecord op;
    op.index = i;
    op.due_s = 0.0;
    op.done_s = 0.001;
    op.transport_ok = true;
    op.response.status = i == 3 ? 500 : 200;
    phase.ops.push_back(op);
  }
  const LatencySample latencies = LatenciesOf(
      phase, [](const OpRecord& op) { return op.response.status == 200; });
  EXPECT(latencies.failed() == 1);
  EXPECT(std::isinf(latencies.Quantile(1.0)));
}

void OpenLoopRecordsLatenessUnderStall() {
  // One connection, a request every 10 ms; request 5 stalls 150 ms, so the
  // ~14 requests due meanwhile go out late and their latency, timed from
  // the schedule, includes the wait.
  constexpr double kRate = 100.0;
  const Sender send = [](int, int index, Response* response, double* sent_s) {
    *sent_s = NowSeconds();
    if (index == 5) std::this_thread::sleep_for(std::chrono::milliseconds(150));
    response->status = 200;
    return true;
  };
  const PhaseResult phase = RunOpenLoop(kRate, 0.5, 1, send);
  EXPECT(phase.ops.size() == 50);
  EXPECT(phase.ops[5].LatencyMs() >= 150.0);
  EXPECT(phase.ops[6].LatenessMs() >= 100.0);
  EXPECT(phase.ops[6].LatencyMs() >= phase.ops[6].LatenessMs());
  EXPECT(phase.ops[6].ServiceMs() < 50.0);
  int late = 0;
  for (const OpRecord& op : phase.ops) late += op.LatenessMs() > 5.0 ? 1 : 0;
  EXPECT(late >= 10);
  EXPECT(phase.ops[2].LatenessMs() < 5.0);  // Before the stall: on time.
  // Timed from the schedule, the stall shows in the tail; timed from the
  // actual send (loadgen's old rule) it would vanish.
  LatencySample from_schedule = LatenciesOf(phase, [](const OpRecord&) { return true; });
  EXPECT(from_schedule.Quantile(0.9) >= 50.0);
}

void ClosedLoopKeepsEveryConnectionBusy() {
  const Sender send = [](int, int, Response* response, double* sent_s) {
    *sent_s = NowSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    response->status = 200;
    return true;
  };
  const PhaseResult phase = RunClosedLoop(0.2, 3, send);
  EXPECT(phase.ops.size() >= 60);  // ~3 x 40 at 5 ms each.
  for (size_t i = 0; i < phase.ops.size(); ++i) {
    EXPECT(phase.ops[i].index == static_cast<int>(i));
  }
}

void DifferencesMetricsHistograms() {
  const std::string before =
      "# HELP dmvi_stage_decode_seconds Decode.\n"
      "# TYPE dmvi_stage_decode_seconds histogram\n"
      "dmvi_stage_decode_seconds_bucket{le=\"0.001\"} 3\n"
      "dmvi_stage_decode_seconds_bucket{le=\"+Inf\"} 4\n"
      "dmvi_stage_decode_seconds_sum 0.004\n"
      "dmvi_stage_decode_seconds_count 4\n"
      "dmvi_requests_total 10\n"
      "dmvi_batches_total 5\n";
  const std::string after =
      "dmvi_stage_decode_seconds_bucket{le=\"0.001\"} 5\n"
      "dmvi_stage_decode_seconds_bucket{le=\"+Inf\"} 10\n"
      "dmvi_stage_decode_seconds_sum 0.022\n"
      "dmvi_stage_decode_seconds_count 10\n"
      "dmvi_stage_predict_seconds_sum 0.5\n"
      "dmvi_stage_predict_seconds_count 20\n"
      "dmvi_requests_total 34\n"
      "dmvi_batches_total 8\n";
  const PromScrape a = ParsePrometheus(before);
  const PromScrape b = ParsePrometheus(after);
  EXPECT(a.size() == 6);
  // (0.022 - 0.004) / (10 - 4) = 3 ms per request observed in between.
  EXPECT(std::fabs(HistogramMeanMs(a, b, "dmvi_stage_decode_seconds") - 3.0) < 1e-9);
  EXPECT(HistogramCount(a, b, "dmvi_stage_decode_seconds") == 6.0);
  EXPECT(PromDelta(a, b, "dmvi_stage_decode_seconds_bucket{le=\"0.001\"}") == 2.0);
  // A histogram first seen in the later scrape counts from zero.
  EXPECT(std::fabs(HistogramMeanMs(a, b, "dmvi_stage_predict_seconds") - 25.0) < 1e-9);
  // No observations in between reads 0, not NaN.
  EXPECT(HistogramMeanMs(b, b, "dmvi_stage_decode_seconds") == 0.0);
  EXPECT(PromDelta(a, b, "dmvi_requests_total") / PromDelta(a, b, "dmvi_batches_total") == 8.0);
}

}  // namespace
}  // namespace perfbench

int main() {
  struct Test {
    const char* name;
    void (*run)();
  };
  const Test tests[] = {
      {"PercentileNeedsTenSamplesBeyond", perfbench::PercentileNeedsTenSamplesBeyond},
      {"FailuresCountAsOverEveryLimit", perfbench::FailuresCountAsOverEveryLimit},
      {"OpenLoopRecordsLatenessUnderStall", perfbench::OpenLoopRecordsLatenessUnderStall},
      {"ClosedLoopKeepsEveryConnectionBusy", perfbench::ClosedLoopKeepsEveryConnectionBusy},
      {"DifferencesMetricsHistograms", perfbench::DifferencesMetricsHistograms},
  };
  for (const Test& test : tests) {
    const int before = perfbench::g_failures;
    test.run();
    std::printf("%s %s\n", perfbench::g_failures == before ? "ok  " : "FAIL", test.name);
  }
  std::printf("%d check(s) failed\n", perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
