#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "net/codec.h"
#include "obs/flight_recorder.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/profiler.h"
#include "obs/quantile_sketch.h"
#include "obs/trace.h"

namespace deepmvi {
namespace {

// ---- Histogram bucket layout ----------------------------------------------

TEST(HistogramTest, BucketBoundsGrowBySqrtTwo) {
  EXPECT_DOUBLE_EQ(obs::Histogram::UpperBound(0), 1e-6);
  for (int i = 1; i < obs::Histogram::kNumBounds; ++i) {
    const double ratio =
        obs::Histogram::UpperBound(i) / obs::Histogram::UpperBound(i - 1);
    EXPECT_NEAR(ratio, std::sqrt(2.0), 1e-12) << "bucket " << i;
    EXPECT_DOUBLE_EQ(obs::Histogram::LowerBound(i),
                     obs::Histogram::UpperBound(i - 1));
  }
  EXPECT_DOUBLE_EQ(obs::Histogram::LowerBound(0), 0.0);
  // The layout spans 1 microsecond to ~50 minutes.
  EXPECT_GT(obs::Histogram::UpperBound(obs::Histogram::kNumBounds - 1),
            45.0 * 60.0);
}

TEST(HistogramTest, BucketIndexRespectsInclusiveUpperBounds) {
  for (int i = 0; i < obs::Histogram::kNumBounds; ++i) {
    const double bound = obs::Histogram::UpperBound(i);
    // Prometheus `le` semantics: the bound itself belongs to bucket i,
    // anything just above it to bucket i + 1 (or overflow).
    EXPECT_EQ(obs::Histogram::BucketIndex(bound), i);
    EXPECT_EQ(obs::Histogram::BucketIndex(bound * 1.000001),
              std::min(i + 1, obs::Histogram::kNumBounds));
  }
}

TEST(HistogramTest, BucketIndexEdgeValues) {
  EXPECT_EQ(obs::Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(-1.0), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(std::nan("")), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(1e-9), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(1e9), obs::Histogram::kNumBounds);
  EXPECT_EQ(
      obs::Histogram::BucketIndex(std::numeric_limits<double>::infinity()),
      obs::Histogram::kNumBounds);
}

TEST(HistogramTest, SnapshotTracksExactMomenta) {
  obs::Histogram histogram;
  histogram.Observe(0.010);
  histogram.Observe(0.002);
  histogram.Observe(0.500);
  const obs::HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 3);
  EXPECT_DOUBLE_EQ(snap.sum, 0.512);
  EXPECT_DOUBLE_EQ(snap.min, 0.002);
  EXPECT_DOUBLE_EQ(snap.max, 0.500);
  int64_t total = 0;
  for (int64_t c : snap.counts) total += c;
  EXPECT_EQ(total, 3);
}

// ---- Merge ----------------------------------------------------------------

TEST(HistogramTest, MergeMatchesCombinedObservation) {
  Rng rng(17);
  obs::Histogram left, right, combined;
  for (int i = 0; i < 500; ++i) {
    // Log-uniform latencies across five decades.
    const double value = 1e-5 * std::pow(10.0, 4.0 * rng.Uniform());
    (i % 2 == 0 ? left : right).Observe(value);
    combined.Observe(value);
  }
  obs::Histogram merged;
  merged.Merge(left.Snapshot());
  merged.Merge(right.Snapshot());

  const obs::HistogramSnapshot a = merged.Snapshot();
  const obs::HistogramSnapshot b = combined.Snapshot();
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_NEAR(a.sum, b.sum, 1e-9 * std::abs(b.sum));
  for (double q : {0.0, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(q), b.Percentile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, MergeIntoEmptyPreservesMinMax) {
  obs::Histogram source, target;
  source.Observe(0.25);
  source.Observe(0.75);
  target.Merge(source.Snapshot());
  const obs::HistogramSnapshot snap = target.Snapshot();
  EXPECT_DOUBLE_EQ(snap.min, 0.25);
  EXPECT_DOUBLE_EQ(snap.max, 0.75);
  EXPECT_EQ(snap.count, 2);
}

// ---- Percentiles ----------------------------------------------------------

TEST(HistogramTest, PercentileOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(obs::Histogram().Snapshot().Percentile(0.5), 0.0);
}

TEST(HistogramTest, PercentileOfSingleValueIsExact) {
  obs::Histogram histogram;
  histogram.Observe(0.0371);
  const obs::HistogramSnapshot snap = histogram.Snapshot();
  for (double q : {0.0, 0.25, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.Percentile(q), 0.0371) << "q=" << q;
  }
}

TEST(HistogramTest, SortedPercentileInterpolatesBetweenOrderStatistics) {
  // The exact oracle the histogram estimate is checked against.
  EXPECT_EQ(obs::SortedPercentile({}, 0.5), 0.0);
  EXPECT_EQ(obs::SortedPercentile({3.0}, 0.95), 3.0);
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(obs::SortedPercentile(sorted, 0.5), 2.5, 1e-12);
  EXPECT_NEAR(obs::SortedPercentile(sorted, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(obs::SortedPercentile(sorted, 1.0), 4.0, 1e-12);
}

TEST(HistogramTest, PercentileWithinBucketFactorOfExactOrderStatistic) {
  // The histogram replaces reservoir sampling as the percentile source;
  // its contract is a deterministic estimate within one bucket-growth
  // factor (sqrt 2) of the exact order statistic.
  Rng rng(29);
  obs::Histogram histogram;
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) {
    const double value = 1e-4 * std::pow(10.0, 3.0 * rng.Uniform());
    values.push_back(value);
    histogram.Observe(value);
  }
  std::sort(values.begin(), values.end());
  const obs::HistogramSnapshot snap = histogram.Snapshot();
  for (double q : {0.05, 0.25, 0.50, 0.90, 0.95, 0.99}) {
    const double exact = obs::SortedPercentile(values, q);
    const double estimate = snap.Percentile(q);
    EXPECT_GE(estimate, exact / std::sqrt(2.0) - 1e-12) << "q=" << q;
    EXPECT_LE(estimate, exact * std::sqrt(2.0) + 1e-12) << "q=" << q;
  }
  // The extreme quantiles clamp to the exact observed range.
  EXPECT_GE(snap.Percentile(0.0), values.front());
  EXPECT_LE(snap.Percentile(1.0), values.back());
}

TEST(HistogramTest, PercentileIsOrderIndependent) {
  // Unlike the reservoir, the estimate cannot depend on arrival order:
  // feed the same values forward and backward and compare exactly.
  std::vector<double> values;
  Rng rng(31);
  for (int i = 0; i < 257; ++i) values.push_back(0.001 + rng.Uniform());
  obs::Histogram forward, backward;
  for (double v : values) forward.Observe(v);
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    backward.Observe(*it);
  }
  for (double q : {0.5, 0.95, 0.999}) {
    EXPECT_DOUBLE_EQ(forward.Snapshot().Percentile(q),
                     backward.Snapshot().Percentile(q));
  }
}

// ---- Metrics registry and Prometheus exposition ---------------------------

TEST(MetricsTest, RegistryIsIdempotentPerName) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.CounterNamed("dmvi_x_total", "help");
  obs::Counter* b = registry.CounterNamed("dmvi_x_total", "other help");
  EXPECT_EQ(a, b);
  a->Increment(2);
  EXPECT_EQ(b->value(), 2);
  EXPECT_EQ(registry.HistogramNamed("dmvi_h_seconds", "h"),
            registry.HistogramNamed("dmvi_h_seconds", "h"));
}

TEST(MetricsTest, CounterIsThreadSafe) {
  obs::Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 10000; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), 40000);
}

TEST(MetricsTest, PrometheusExpositionGolden) {
  obs::MetricsRegistry registry;
  registry.CounterNamed("dmvi_requests_total", "Completed requests.")
      ->Increment(3);
  registry.GaugeNamed("dmvi_queue_depth", "Queued right now.")->Set(2.5);
  // Two sub-microsecond observations keep the bucket list to exactly one
  // finite bucket, so the full text is stable enough to pin.
  obs::Histogram* histogram =
      registry.HistogramNamed("dmvi_tiny_seconds", "Tiny timings.");
  histogram->Observe(5e-7);
  histogram->Observe(5e-7);

  // std::map ordering: dmvi_q... < dmvi_r... < dmvi_t...
  EXPECT_EQ(registry.PrometheusText(),
            "# HELP dmvi_queue_depth Queued right now.\n"
            "# TYPE dmvi_queue_depth gauge\n"
            "dmvi_queue_depth 2.5\n"
            "# HELP dmvi_requests_total Completed requests.\n"
            "# TYPE dmvi_requests_total counter\n"
            "dmvi_requests_total 3\n"
            "# HELP dmvi_tiny_seconds Tiny timings.\n"
            "# TYPE dmvi_tiny_seconds histogram\n"
            "dmvi_tiny_seconds_bucket{le=\"1e-06\"} 2\n"
            "dmvi_tiny_seconds_bucket{le=\"+Inf\"} 2\n"
            "dmvi_tiny_seconds_sum 1e-06\n"
            "dmvi_tiny_seconds_count 2\n");
}

TEST(MetricsTest, PrometheusValueReadsOnlyWholeUnlabeledSamples) {
  obs::MetricsRegistry registry;
  registry.CounterNamed("dmvi_a_total", "a")->Increment(3);
  registry.CounterNamed("dmvi_a_total_more", "b")->Increment(5);
  registry.GaugeNamed("dmvi_g", "g")->Set(2.5);
  const std::string text = registry.PrometheusText();
  EXPECT_EQ(obs::PrometheusValue(text, "dmvi_a_total"), 3.0);
  EXPECT_EQ(obs::PrometheusValue(text, "dmvi_a_total_more"), 5.0);
  EXPECT_EQ(obs::PrometheusValue(text, "dmvi_g"), 2.5);
  // A name that only prefixes other samples, or is absent, reads -1.
  EXPECT_EQ(obs::PrometheusValue(text, "dmvi_a"), -1.0);
  EXPECT_EQ(obs::PrometheusValue(text, "dmvi_missing_total"), -1.0);
  EXPECT_EQ(obs::PrometheusValue("", "dmvi_a_total"), -1.0);
}

TEST(MetricsTest, PrometheusHistogramBucketsAreCumulative) {
  obs::Histogram histogram;
  histogram.Observe(0.001);
  histogram.Observe(0.010);
  histogram.Observe(0.010);
  histogram.Observe(0.100);
  std::ostringstream os;
  obs::AppendPrometheusHistogram(os, "dmvi_lat_seconds", "h",
                                 histogram.Snapshot());
  const std::string text = os.str();

  // Parse the `le` bucket lines back out and check monotonicity and the
  // mandatory +Inf == _count invariant Prometheus scrapers rely on.
  int64_t previous = 0;
  int64_t inf_value = -1;
  size_t buckets = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t brace = line.find("_bucket{le=\"");
    if (brace == std::string::npos) continue;
    const size_t value_at = line.rfind(' ');
    const int64_t cumulative = std::stoll(line.substr(value_at + 1));
    EXPECT_GE(cumulative, previous) << line;
    previous = cumulative;
    ++buckets;
    if (line.find("+Inf") != std::string::npos) inf_value = cumulative;
  }
  EXPECT_GE(buckets, 2u);
  EXPECT_EQ(inf_value, 4);
  EXPECT_NE(text.find("dmvi_lat_seconds_count 4\n"), std::string::npos);
}

// ---- Trace spans ----------------------------------------------------------

TEST(TraceTest, DisabledTracerYieldsInertSpans) {
  obs::Span inert(nullptr, "anything");
  EXPECT_FALSE(inert.active());
  inert.AddArg("k", "v");  // Must be a no-op, not a crash.
  EXPECT_EQ(inert.context().trace_id, 0u);

  obs::SetGlobalTracer(nullptr);
  obs::Span kernel = obs::KernelSpan("matmul.blocked");
  EXPECT_FALSE(kernel.active());
}

TEST(TraceTest, RequestLevelTracerDropsKernelSpans) {
  obs::CollectingTraceSink sink;
  obs::Tracer tracer(&sink, obs::TraceLevel::kRequest);
  EXPECT_TRUE(tracer.enabled(obs::TraceLevel::kRequest));
  EXPECT_FALSE(tracer.enabled(obs::TraceLevel::kKernel));
  {
    obs::Span request_span(&tracer, "service.process");
    obs::Span kernel_span(&tracer, "matmul.blocked",
                          obs::TraceLevel::kKernel);
    EXPECT_TRUE(request_span.active());
    EXPECT_FALSE(kernel_span.active());
  }
  EXPECT_EQ(sink.records().size(), 1u);
  EXPECT_EQ(sink.records()[0].name, "service.process");
}

TEST(TraceTest, NestedSpansFormOneTrace) {
  obs::CollectingTraceSink sink;
  obs::Tracer tracer(&sink, obs::TraceLevel::kKernel);
  {
    obs::Span root(&tracer, "http.request");
    root.set_request_id("req-1");
    {
      obs::Span child(&tracer, "service.process");
      obs::Span grandchild(&tracer, "model.predict");
      EXPECT_EQ(grandchild.context().trace_id, root.context().trace_id);
    }
    obs::Span sibling(&tracer, "http.write");
    EXPECT_EQ(sibling.context().trace_id, root.context().trace_id);
  }
  std::vector<obs::SpanRecord> records = sink.records();
  ASSERT_EQ(records.size(), 4u);
  // Records arrive innermost-first (scope exit order).
  std::map<std::string, obs::SpanRecord> by_name;
  for (const obs::SpanRecord& record : records) by_name[record.name] = record;
  const obs::SpanRecord& root = by_name.at("http.request");
  EXPECT_EQ(root.parent_span_id, 0u);
  EXPECT_EQ(root.request_id, "req-1");
  EXPECT_EQ(by_name.at("service.process").parent_span_id, root.span_id);
  EXPECT_EQ(by_name.at("model.predict").parent_span_id,
            by_name.at("service.process").span_id);
  EXPECT_EQ(by_name.at("http.write").parent_span_id, root.span_id);
  for (const auto& [name, record] : by_name) {
    EXPECT_EQ(record.trace_id, root.trace_id) << name;
    EXPECT_GE(record.duration_seconds, 0.0) << name;
  }
  // Children start no earlier than the root and end no later.
  const double root_end = root.start_seconds + root.duration_seconds;
  for (const auto& [name, record] : by_name) {
    EXPECT_GE(record.start_seconds, root.start_seconds - 1e-9) << name;
    EXPECT_LE(record.start_seconds + record.duration_seconds,
              root_end + 1e-9)
        << name;
  }
}

TEST(TraceTest, ExplicitParentLinksAcrossThreads) {
  obs::CollectingTraceSink sink;
  obs::Tracer tracer(&sink);
  obs::SpanContext handoff;
  {
    obs::Span root(&tracer, "http.handle");
    handoff = tracer.CurrentContext();
    EXPECT_EQ(handoff.span_id, root.context().span_id);
    std::thread worker([&tracer, handoff] {
      obs::Span remote(&tracer, "service.process", handoff);
      EXPECT_EQ(remote.context().trace_id, handoff.trace_id);
    });
    worker.join();
  }
  std::vector<obs::SpanRecord> records = sink.records();
  ASSERT_EQ(records.size(), 2u);
  std::map<std::string, obs::SpanRecord> by_name;
  for (const obs::SpanRecord& record : records) by_name[record.name] = record;
  EXPECT_EQ(by_name.at("service.process").parent_span_id,
            by_name.at("http.handle").span_id);
  EXPECT_EQ(by_name.at("service.process").trace_id,
            by_name.at("http.handle").trace_id);
  EXPECT_NE(by_name.at("service.process").thread_index,
            by_name.at("http.handle").thread_index);
}

TEST(TraceTest, RetrospectiveRecordSpanCarriesGivenTimes) {
  obs::CollectingTraceSink sink;
  obs::Tracer tracer(&sink);
  obs::SpanContext context{tracer.NewId(), tracer.NewId()};
  tracer.RecordSpan("queue.wait", context, 7, 1.25, 0.5, "req-9",
                    {{"depth", "3"}});
  std::vector<obs::SpanRecord> records = sink.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "queue.wait");
  EXPECT_EQ(records[0].parent_span_id, 7u);
  EXPECT_DOUBLE_EQ(records[0].start_seconds, 1.25);
  EXPECT_DOUBLE_EQ(records[0].duration_seconds, 0.5);
  EXPECT_EQ(records[0].request_id, "req-9");
  ASSERT_EQ(records[0].args.size(), 1u);
  EXPECT_EQ(records[0].args[0].first, "depth");
}

TEST(TraceTest, SinkCapacityBoundsMemory) {
  obs::CollectingTraceSink sink(/*capacity=*/2);
  obs::Tracer tracer(&sink);
  for (int i = 0; i < 5; ++i) {
    obs::Span span(&tracer, "s");
  }
  EXPECT_EQ(sink.records().size(), 2u);
  EXPECT_EQ(sink.dropped(), 3);
}

/// Runs a fixed two-level workload and returns (name, parent-index) pairs
/// where parent-index is the position of the parent span in the same list
/// (-1 for roots) — the structural shape of the trace, ids abstracted out.
std::vector<std::pair<std::string, int>> WorkloadShape() {
  obs::CollectingTraceSink sink;
  obs::Tracer tracer(&sink);
  for (int request = 0; request < 3; ++request) {
    obs::Span root(&tracer, "http.request");
    root.set_request_id("req-" + std::to_string(request));
    obs::Span handle(&tracer, "service.process");
    obs::Span predict(&tracer, "model.predict");
  }
  std::vector<obs::SpanRecord> records = sink.records();
  std::map<uint64_t, int> index_of;
  for (size_t i = 0; i < records.size(); ++i) {
    index_of[records[i].span_id] = static_cast<int>(i);
  }
  std::vector<std::pair<std::string, int>> shape;
  for (const obs::SpanRecord& record : records) {
    const auto parent = index_of.find(record.parent_span_id);
    shape.emplace_back(record.name,
                       parent == index_of.end() ? -1 : parent->second);
  }
  return shape;
}

TEST(TraceTest, SpanTreeIsStructurallyDeterministic) {
  // Two independent runs of the same workload must produce the same span
  // names in the same order with the same parent structure — ids and
  // timestamps differ, the tree does not.
  EXPECT_EQ(WorkloadShape(), WorkloadShape());
}

// ---- Chrome trace-event export --------------------------------------------

TEST(TraceTest, ChromeTraceJsonParsesAndNests) {
  obs::CollectingTraceSink sink;
  obs::Tracer tracer(&sink, obs::TraceLevel::kKernel);
  {
    obs::Span root(&tracer, "train.epoch");
    root.set_request_id("epoch-0");
    root.AddArg("epoch", "0");
    obs::Span child(&tracer, "matmul.blocked", obs::TraceLevel::kKernel);
    child.AddArg("m", "8");
  }
  const std::string json = obs::ChromeTraceJson(sink.records());
  StatusOr<net::JsonValue> parsed = net::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const net::JsonValue& events = parsed->at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array_items().size(), 2u);

  std::map<std::string, const net::JsonValue*> by_name;
  for (const net::JsonValue& event : events.array_items()) {
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
      EXPECT_FALSE(event.at(key).is_null()) << "missing " << key;
    }
    EXPECT_EQ(event.at("ph").string_value(), "X");
    EXPECT_EQ(event.at("cat").string_value(), "dmvi");
    by_name[event.at("name").string_value()] = &event;
  }
  const net::JsonValue& epoch = *by_name.at("train.epoch");
  const net::JsonValue& matmul = *by_name.at("matmul.blocked");
  // Identity rides in args; the child's parent_span_id is the root's
  // span_id and both share a trace.
  EXPECT_EQ(matmul.at("args").at("parent_span_id").number_value(),
            epoch.at("args").at("span_id").number_value());
  EXPECT_EQ(matmul.at("args").at("trace_id").number_value(),
            epoch.at("args").at("trace_id").number_value());
  EXPECT_EQ(epoch.at("args").at("request_id").string_value(), "epoch-0");
  EXPECT_EQ(epoch.at("args").at("epoch").string_value(), "0");
  // Timestamps are microseconds; the child nests inside the root.
  const double root_start = epoch.at("ts").number_value();
  const double root_end = root_start + epoch.at("dur").number_value();
  EXPECT_GE(matmul.at("ts").number_value(), root_start - 1e-3);
  EXPECT_LE(matmul.at("ts").number_value() + matmul.at("dur").number_value(),
            root_end + 1e-3);
}

// ---- Histogram exemplars ---------------------------------------------------

TEST(ExemplarTest, ExpositionGolden) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram =
      registry.HistogramNamed("dmvi_tiny_seconds", "Tiny timings.");
  // Sub-microsecond observations pin the bucket list to one finite bucket;
  // the second observation's exemplar wins (most recent per bucket).
  histogram->ObserveWithExemplar(5e-7, "req-1");
  histogram->ObserveWithExemplar(6e-7, "req-7");
  EXPECT_EQ(registry.PrometheusText(),
            "# HELP dmvi_tiny_seconds Tiny timings.\n"
            "# TYPE dmvi_tiny_seconds histogram\n"
            "dmvi_tiny_seconds_bucket{le=\"1e-06\"} 2"
            " # {request_id=\"req-7\"} 6e-07\n"
            // Exemplars attach to the bucket the value landed in; the
            // +Inf slot only fills when an observation overflows.
            "dmvi_tiny_seconds_bucket{le=\"+Inf\"} 2\n"
            "dmvi_tiny_seconds_sum 1.1e-06\n"
            "dmvi_tiny_seconds_count 2\n");
}

TEST(ExemplarTest, PlainObservationsRenderWithoutSuffix) {
  obs::Histogram histogram;
  histogram.Observe(5e-7);
  std::ostringstream os;
  obs::AppendPrometheusHistogram(os, "dmvi_tiny_seconds", "h",
                                 histogram.Snapshot());
  EXPECT_EQ(os.str().find('#', os.str().find("TYPE") + 4), std::string::npos)
      << os.str();
}

TEST(ExemplarTest, SuffixIsInvisibleToWhitespaceSplittingParsers) {
  // obs::PrometheusValue (and the CI greps) read `name value` from the
  // first two whitespace-separated fields; an exemplar suffix on a bucket
  // line must not perturb the _count/_sum lines they consume.
  obs::MetricsRegistry registry;
  registry.HistogramNamed("dmvi_lat_seconds", "h")
      ->ObserveWithExemplar(0.002, "req-3");
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("dmvi_lat_seconds_count 1\n"), std::string::npos);
  EXPECT_EQ(obs::PrometheusValue(text, "dmvi_lat_seconds_count"), 1.0);
  EXPECT_EQ(obs::PrometheusValue(text, "dmvi_lat_seconds_sum"), 0.002);
  EXPECT_NE(text.find("# {request_id=\"req-3\"} 0.002"), std::string::npos);
}

TEST(ExemplarTest, LabelValuesAreEscaped) {
  obs::Histogram histogram;
  histogram.ObserveWithExemplar(5e-7, "a\"b\\c");
  std::ostringstream os;
  obs::AppendPrometheusHistogram(os, "dmvi_x_seconds", "h",
                                 histogram.Snapshot());
  EXPECT_NE(os.str().find("request_id=\"a\\\"b\\\\c\""), std::string::npos)
      << os.str();
}

TEST(ExemplarTest, MergeAdoptsSourceExemplars) {
  obs::Histogram source, target;
  source.ObserveWithExemplar(5e-7, "req-42");
  target.Merge(source.Snapshot());
  const obs::HistogramSnapshot snap = target.Snapshot();
  ASSERT_FALSE(snap.exemplar_labels.empty());
  EXPECT_EQ(snap.exemplar_labels[0], "req-42");
  EXPECT_DOUBLE_EQ(snap.exemplar_values[0], 5e-7);
}

// ---- Collapsed-stack folding ----------------------------------------------

TEST(ProfilerTest, CollapseStacksFoldsAndSorts) {
  // Deterministic injected sampler: the aggregation contract is testable
  // without any signals — identical stacks fold into one counted line,
  // lines sort lexicographically, frames join root-first with ';'.
  const std::string collapsed = obs::CollapseStacks({
      {"main", "Fit", "MatMul"},
      {"main", "Fit"},
      {"main", "Fit", "MatMul"},
      {"main", "Encode"},
  });
  EXPECT_EQ(collapsed,
            "main;Encode 1\n"
            "main;Fit 1\n"
            "main;Fit;MatMul 2\n");
}

TEST(ProfilerTest, CollapseStacksHandlesEmpty) {
  EXPECT_EQ(obs::CollapseStacks({}), "");
  EXPECT_EQ(obs::CollapseStacks({{}, {}}), "(unresolved) 2\n");
}

// ---- Sampling profiler ------------------------------------------------------

TEST(ProfilerTest, StartRejectsBadRates) {
  EXPECT_EQ(obs::CpuProfiler::Start(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(obs::CpuProfiler::Start(obs::CpuProfiler::kMaxHz + 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(obs::CpuProfiler::IsRunning());
}

TEST(ProfilerTest, OneWindowAtATime) {
  Status started = obs::CpuProfiler::Start();
  if (started.code() == StatusCode::kFailedPrecondition) {
    GTEST_SKIP() << "no CPU-clock timers here: " << started.ToString();
  }
  ASSERT_TRUE(started.ok()) << started.ToString();
  EXPECT_TRUE(obs::CpuProfiler::IsRunning());
  EXPECT_EQ(obs::CpuProfiler::Start().code(),
            StatusCode::kFailedPrecondition);
  const obs::ProfileResult result = obs::CpuProfiler::Stop();
  EXPECT_FALSE(obs::CpuProfiler::IsRunning());
  EXPECT_EQ(result.hz, obs::CpuProfiler::kDefaultHz);
}

TEST(ProfilerTest, SamplesLabeledCpuBurn) {
  Status started = obs::CpuProfiler::Start(/*hz=*/997);
  if (started.code() == StatusCode::kFailedPrecondition) {
    GTEST_SKIP() << "no CPU-clock timers here: " << started.ToString();
  }
  ASSERT_TRUE(started.ok()) << started.ToString();
  // Burn CPU under a label until samples must have landed (the timer
  // ticks on consumed CPU time, so wall-clock sleeps would never
  // sample). volatile keeps the loop from folding away.
  volatile double sink_value = 0.0;
  {
    obs::ProfileLabelScope label("obs_test.burn");
    Stopwatch watch;
    while (watch.ElapsedSeconds() < 0.25) {
      for (int i = 0; i < 1000; ++i) sink_value = sink_value + std::sqrt(i);
    }
  }
  const obs::ProfileResult result = obs::CpuProfiler::Stop();
  EXPECT_GT(result.samples, 0);
  EXPECT_GT(result.duration_seconds, 0.0);
  ASSERT_FALSE(result.collapsed.empty());
  // The label is the root-most frame of every sample taken in the scope.
  EXPECT_NE(result.collapsed.find("obs_test.burn"), std::string::npos)
      << result.collapsed;
  // Restartable: a second window opens cleanly after Stop.
  ASSERT_TRUE(obs::CpuProfiler::Start().ok());
  obs::CpuProfiler::Stop();
}

TEST(ProfilerTest, LabelScopesNestRootFirst) {
  // Pure label mechanics (no sampling): nesting and unwinding must be
  // balanced even when depth exceeds kMaxDepth.
  obs::ProfileLabelScope outer("outer");
  {
    std::vector<std::unique_ptr<obs::ProfileLabelScope>> deep;
    for (int i = 0; i < obs::ProfileLabelScope::kMaxDepth + 4; ++i) {
      deep.push_back(std::make_unique<obs::ProfileLabelScope>("deep"));
    }
  }
  obs::ProfileLabelScope inner("inner");
}

// ---- Flight recorder --------------------------------------------------------

obs::RequestRecord MakeRecord(int i, double latency) {
  obs::RequestRecord record;
  record.request_id = "req-" + std::to_string(i);
  record.model = "default";
  record.status = "OK";
  record.latency_seconds = latency;
  record.cells_imputed = i;
  return record;
}

TEST(FlightRecorderTest, RingWrapsKeepingNewestOldestFirst) {
  obs::FlightRecorder recorder(/*capacity=*/4, /*slow_threshold_seconds=*/1.0);
  for (int i = 0; i < 10; ++i) recorder.Record(MakeRecord(i, 0.001));
  EXPECT_EQ(recorder.total_recorded(), 10);
  const std::vector<obs::RequestRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(records[static_cast<size_t>(i)].request_id,
              "req-" + std::to_string(6 + i));
  }
  // completed_seconds is stamped by Record and never decreases.
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].completed_seconds, records[i - 1].completed_seconds);
  }
}

TEST(FlightRecorderTest, PartialRingReadsBackInOrder) {
  obs::FlightRecorder recorder(/*capacity=*/8, /*slow_threshold_seconds=*/1.0);
  for (int i = 0; i < 3; ++i) recorder.Record(MakeRecord(i, 0.001));
  const std::vector<obs::RequestRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].request_id, "req-0");
  EXPECT_EQ(records[2].request_id, "req-2");
  EXPECT_TRUE(recorder.SlowSnapshot().empty());
}

TEST(FlightRecorderTest, SlowRingCapturesThresholdCrossers) {
  obs::FlightRecorder recorder(/*capacity=*/16,
                               /*slow_threshold_seconds=*/0.010,
                               /*slow_capacity=*/2);
  recorder.Record(MakeRecord(0, 0.001));
  recorder.Record(MakeRecord(1, 0.020));
  recorder.Record(MakeRecord(2, 0.010));  // At threshold: slow.
  recorder.Record(MakeRecord(3, 0.009));
  recorder.Record(MakeRecord(4, 0.500));
  EXPECT_EQ(recorder.total_slow(), 3);
  const std::vector<obs::RequestRecord> slow = recorder.SlowSnapshot();
  // Bounded at slow_capacity, newest retained.
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].request_id, "req-2");
  EXPECT_EQ(slow[1].request_id, "req-4");
  // The main ring still has everything.
  EXPECT_EQ(recorder.Snapshot().size(), 5u);
}

TEST(FlightRecorderTest, ConcurrentAppendAndSnapshot) {
  obs::FlightRecorder recorder(/*capacity=*/32,
                               /*slow_threshold_seconds=*/0.010);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::atomic<bool> stop{false};
  std::thread reader([&recorder, &stop] {
    while (!stop.load()) {
      // Every interleaving must observe well-formed records.
      for (const obs::RequestRecord& record : recorder.Snapshot()) {
        ASSERT_EQ(record.model, "default");
        ASSERT_EQ(record.request_id.compare(0, 4, "req-"), 0);
      }
      recorder.SlowSnapshot();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Record(MakeRecord(t * kPerThread + i,
                                   i % 7 == 0 ? 0.020 : 0.001));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(recorder.total_recorded(), kThreads * kPerThread);
  EXPECT_EQ(recorder.Snapshot().size(), 32u);
}

TEST(FlightRecorderTest, JsonRendersAllFieldsAndEscapes) {
  obs::RequestRecord record = MakeRecord(0, 0.125);
  record.request_id = "req \"quoted\"\n";
  record.status = "NotFound: no model";
  record.ok = false;
  record.predict_seconds = 0.0625;
  record.cache_hit = true;
  record.degraded = true;
  record.degrade_method = "LinearInterp";
  record.shed = false;
  record.completed_seconds = 1.5;
  StatusOr<net::JsonValue> parsed =
      net::ParseJson(obs::FlightRecordsJson({record}));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_array());
  const net::JsonValue& entry = parsed->array_items()[0];
  EXPECT_EQ(entry.at("request_id").string_value(), "req \"quoted\"\n");
  EXPECT_EQ(entry.at("status").string_value(), "NotFound: no model");
  EXPECT_FALSE(entry.at("ok").bool_value());
  EXPECT_DOUBLE_EQ(entry.at("latency_seconds").number_value(), 0.125);
  EXPECT_DOUBLE_EQ(entry.at("predict_seconds").number_value(), 0.0625);
  EXPECT_TRUE(entry.at("cache_hit").bool_value());
  EXPECT_TRUE(entry.at("degraded").bool_value());
  EXPECT_EQ(entry.at("degrade_method").string_value(), "LinearInterp");
  EXPECT_FALSE(entry.at("shed").bool_value());
  EXPECT_DOUBLE_EQ(entry.at("completed_seconds").number_value(), 1.5);
  // A hand-built record has no wall-clock stamp: unix_seconds renders as
  // its zero default and the ISO form is empty rather than a fake epoch.
  EXPECT_DOUBLE_EQ(entry.at("unix_seconds").number_value(), 0.0);
  EXPECT_EQ(entry.at("time").string_value(), "");
  EXPECT_EQ(obs::FlightRecordsJson({}), "[]\n");
}

TEST(FlightRecorderTest, RecordStampsWallClockRenderedAsIso8601) {
  obs::FlightRecorder recorder(/*capacity=*/4, /*slow_threshold_seconds=*/1.0);
  recorder.Record(MakeRecord(0, 0.001));
  recorder.Record(MakeRecord(1, 0.001));
  const std::vector<obs::RequestRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  // Stamped from the system clock: a plausible unix epoch (after
  // 2020-01-01, i.e. > 1.5e9 s) that never decreases across records.
  EXPECT_GT(records[0].unix_seconds, 1.5e9);
  EXPECT_GE(records[1].unix_seconds, records[0].unix_seconds);
  // JSON renders it both raw (at full precision: parsing back must not
  // lose whole seconds) and as ISO-8601 UTC.
  StatusOr<net::JsonValue> parsed =
      net::ParseJson(obs::FlightRecordsJson(records));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const net::JsonValue& entry = parsed->array_items()[0];
  EXPECT_NEAR(entry.at("unix_seconds").number_value(),
              records[0].unix_seconds, 0.5);
  const std::string& iso = entry.at("time").string_value();
  ASSERT_EQ(iso.size(), 24u) << iso;  // "YYYY-MM-DDThh:mm:ss.mmmZ"
  EXPECT_EQ(iso[4], '-');
  EXPECT_EQ(iso[10], 'T');
  EXPECT_EQ(iso[19], '.');
  EXPECT_EQ(iso.back(), 'Z');
  EXPECT_GE(iso.substr(0, 4), "2020");
}

// ---- Quantile sketch --------------------------------------------------------

/// Rank of `value` in sorted `data`: the number of elements <= value.
/// The sketch's quantile answers are judged by how far this rank is from
/// the requested one — the natural error measure for a mergeable sketch.
double RankOf(const std::vector<double>& sorted, double value) {
  return static_cast<double>(
      std::upper_bound(sorted.begin(), sorted.end(), value) - sorted.begin());
}

/// Asserts every decile of `sketch` lands within `tolerance` (a rank
/// fraction) of the exact order statistic of `data`.
void ExpectQuantilesWithinRankError(const obs::QuantileSketch& sketch,
                                    std::vector<double> data,
                                    double tolerance) {
  std::sort(data.begin(), data.end());
  const double n = static_cast<double>(data.size());
  for (int d = 0; d <= 10; ++d) {
    const double q = static_cast<double>(d) / 10.0;
    const double estimate = sketch.Quantile(q);
    const double rank = RankOf(data, estimate) / n;
    EXPECT_NEAR(rank, q, tolerance)
        << "q=" << q << " estimate=" << estimate << " n=" << n;
  }
}

TEST(QuantileSketchTest, ExactWhileUnderCapacity) {
  // Fewer distinct values than centroids: nothing is ever compressed, so
  // min/max/median are exact.
  obs::QuantileSketch sketch;
  for (int i = 63; i >= 1; --i) sketch.Observe(static_cast<double>(i));
  EXPECT_EQ(sketch.count(), 63);
  EXPECT_EQ(sketch.num_centroids(), 63);
  EXPECT_DOUBLE_EQ(sketch.min(), 1.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 63.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), 63.0);
  EXPECT_NEAR(sketch.Quantile(0.5), 32.0, 1.0);
}

TEST(QuantileSketchTest, RankErrorBoundedOnRandomInput) {
  Rng rng(17);
  std::vector<double> data;
  obs::QuantileSketch sketch;
  for (int i = 0; i < 10000; ++i) {
    const double value = rng.Gaussian(5.0, 2.0);
    data.push_back(value);
    sketch.Observe(value);
  }
  EXPECT_EQ(sketch.count(), 10000);
  EXPECT_LE(sketch.num_centroids(), sketch.capacity());
  // 64 centroids over 10k points: deciles should sit well within a few
  // percent of the true ranks.
  ExpectQuantilesWithinRankError(sketch, data, 0.05);
}

TEST(QuantileSketchTest, RankErrorBoundedOnSortedInput) {
  // Monotone streams are the classic failure mode for naive reservoir
  // schemes; the gap-based compression must not care about insert order.
  std::vector<double> data;
  obs::QuantileSketch ascending, descending;
  for (int i = 0; i < 5000; ++i) {
    const double value = std::sqrt(static_cast<double>(i));
    data.push_back(value);
    ascending.Observe(value);
  }
  for (int i = 4999; i >= 0; --i) {
    descending.Observe(std::sqrt(static_cast<double>(i)));
  }
  ExpectQuantilesWithinRankError(ascending, data, 0.05);
  ExpectQuantilesWithinRankError(descending, data, 0.05);
}

TEST(QuantileSketchTest, RankErrorBoundedOnAdversarialInput) {
  // Two far-apart clusters with a lone outlier between them, fed in an
  // alternating order that maximizes churn near the capacity boundary.
  Rng rng(29);
  std::vector<double> data;
  obs::QuantileSketch sketch;
  for (int i = 0; i < 4000; ++i) {
    const double value = (i % 2 == 0 ? 0.0 : 1000.0) + rng.Uniform();
    data.push_back(value);
    sketch.Observe(value);
  }
  data.push_back(500.0);
  sketch.Observe(500.0);
  ExpectQuantilesWithinRankError(sketch, data, 0.05);
  EXPECT_DOUBLE_EQ(sketch.min(), *std::min_element(data.begin(), data.end()));
  EXPECT_DOUBLE_EQ(sketch.max(), *std::max_element(data.begin(), data.end()));
}

TEST(QuantileSketchTest, NanObservationsAreCountedNotMixedIn) {
  obs::QuantileSketch sketch;
  sketch.Observe(1.0);
  sketch.Observe(std::numeric_limits<double>::quiet_NaN());
  sketch.Observe(3.0);
  EXPECT_EQ(sketch.count(), 2);
  EXPECT_EQ(sketch.nan_count(), 1);
  EXPECT_DOUBLE_EQ(sketch.min(), 1.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 3.0);
  EXPECT_FALSE(std::isnan(sketch.Quantile(0.5)));
}

TEST(QuantileSketchTest, ObservationIsDeterministic) {
  // Same stream twice -> bit-identical quantiles: the sketch is part of
  // checkpointed reference profiles, so any nondeterminism would break
  // checkpoint byte-identity.
  Rng rng_a(7), rng_b(7);
  obs::QuantileSketch a, b;
  for (int i = 0; i < 3000; ++i) a.Observe(rng_a.Gaussian(0.0, 1.0));
  for (int i = 0; i < 3000; ++i) b.Observe(rng_b.Gaussian(0.0, 1.0));
  ASSERT_EQ(a.num_centroids(), b.num_centroids());
  for (int d = 0; d <= 10; ++d) {
    const double q = static_cast<double>(d) / 10.0;
    EXPECT_EQ(a.Quantile(q), b.Quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketchTest, MergeApproximatesCombinedStream) {
  Rng rng(41);
  std::vector<double> data;
  std::vector<obs::QuantileSketch> parts(4);
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 2000; ++i) {
      const double value = rng.Gaussian(static_cast<double>(p), 1.0);
      data.push_back(value);
      parts[static_cast<size_t>(p)].Observe(value);
    }
  }
  obs::QuantileSketch merged;
  for (const obs::QuantileSketch& part : parts) merged.Merge(part);
  EXPECT_EQ(merged.count(), 8000);
  ExpectQuantilesWithinRankError(merged, data, 0.06);

  // Merging is deterministic: the same parts merged again in the same
  // order reproduce identical quantiles, and any merge order stays within
  // the rank-error bound (centroid layouts may differ across orders; the
  // answers they give must not drift).
  obs::QuantileSketch again;
  for (const obs::QuantileSketch& part : parts) again.Merge(part);
  for (int d = 0; d <= 10; ++d) {
    const double q = static_cast<double>(d) / 10.0;
    EXPECT_EQ(merged.Quantile(q), again.Quantile(q));
  }
  obs::QuantileSketch reversed;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    reversed.Merge(*it);
  }
  EXPECT_EQ(reversed.count(), 8000);
  ExpectQuantilesWithinRankError(reversed, data, 0.06);
}

TEST(DistributionSummaryTest, MomentsMatchExactComputation) {
  Rng rng(53);
  std::vector<double> data;
  obs::DistributionSummary summary;
  for (int i = 0; i < 2500; ++i) {
    const double value = rng.Gaussian(10.0, 3.0);
    data.push_back(value);
    summary.Observe(value);
  }
  double mean = 0.0;
  for (double v : data) mean += v;
  mean /= static_cast<double>(data.size());
  double var = 0.0;
  for (double v : data) var += (v - mean) * (v - mean);
  var /= static_cast<double>(data.size());
  EXPECT_EQ(summary.count(), 2500);
  EXPECT_NEAR(summary.mean(), mean, 1e-9);
  EXPECT_NEAR(summary.variance(), var, 1e-7);
  EXPECT_NEAR(summary.stddev(), std::sqrt(var), 1e-8);
  EXPECT_DOUBLE_EQ(summary.min(),
                   *std::min_element(data.begin(), data.end()));
  EXPECT_DOUBLE_EQ(summary.max(),
                   *std::max_element(data.begin(), data.end()));
}

TEST(DistributionSummaryTest, MergeMatchesSingleStream) {
  Rng rng(61);
  obs::DistributionSummary whole, left, right;
  for (int i = 0; i < 3000; ++i) {
    const double value = rng.Gaussian(0.0, 1.0) + (i % 3 == 0 ? 5.0 : 0.0);
    whole.Observe(value);
    (i < 1000 ? left : right).Observe(value);
  }
  obs::DistributionSummary merged = left;
  merged.Merge(right);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  // Merging an empty summary is a no-op in both directions.
  obs::DistributionSummary empty;
  merged.Merge(empty);
  EXPECT_EQ(merged.count(), whole.count());
  obs::DistributionSummary adopted;
  adopted.Merge(whole);
  EXPECT_NEAR(adopted.mean(), whole.mean(), 1e-12);
}

// ---- Drift statistics -------------------------------------------------------

TEST(DriftStatTest, MatchedDistributionScoresZero) {
  const std::vector<double> expected = {0.25, 0.25, 0.25, 0.25};
  const std::vector<int64_t> observed = {100, 100, 100, 100};
  EXPECT_NEAR(obs::PopulationStabilityIndex(expected, observed), 0.0, 1e-12);
  EXPECT_NEAR(obs::KolmogorovSmirnovStatistic(expected, observed), 0.0,
              1e-12);
}

TEST(DriftStatTest, KnownShiftMatchesHandComputation) {
  // Two bins, mass moved from 50/50 to 75/25:
  //   PSI = 0.25*ln(1.5) + (-0.25)*ln(0.5) = 0.27465307...
  //   KS  = |0.75 - 0.50| = 0.25.
  const std::vector<double> expected = {0.5, 0.5};
  const std::vector<int64_t> observed = {75, 25};
  EXPECT_NEAR(obs::PopulationStabilityIndex(expected, observed),
              0.25 * std::log(1.5) - 0.25 * std::log(0.5), 1e-12);
  EXPECT_NEAR(obs::KolmogorovSmirnovStatistic(expected, observed), 0.25,
              1e-12);
}

TEST(DriftStatTest, LargerShiftScoresHigher) {
  const std::vector<double> expected = {0.25, 0.25, 0.25, 0.25};
  const std::vector<int64_t> small_shift = {110, 100, 100, 90};
  const std::vector<int64_t> big_shift = {250, 100, 40, 10};
  const double small_psi =
      obs::PopulationStabilityIndex(expected, small_shift);
  const double big_psi = obs::PopulationStabilityIndex(expected, big_shift);
  EXPECT_GT(small_psi, 0.0);
  EXPECT_GT(big_psi, small_psi);
  EXPECT_GT(big_psi, 0.25);  // Conventional "drifted" territory.
  const double ks = obs::KolmogorovSmirnovStatistic(expected, big_shift);
  EXPECT_GT(ks, 0.0);
  EXPECT_LE(ks, 1.0);
}

TEST(DriftStatTest, DegenerateInputsScoreZero) {
  // Empty, mismatched lengths, and all-zero observations are all "no
  // evidence", never NaN/inf: the monitor calls these on live bins that
  // may not have filled yet.
  EXPECT_DOUBLE_EQ(obs::PopulationStabilityIndex({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(obs::PopulationStabilityIndex({0.5, 0.5}, {1}), 0.0);
  EXPECT_DOUBLE_EQ(obs::PopulationStabilityIndex({0.5, 0.5}, {0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(obs::KolmogorovSmirnovStatistic({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(obs::KolmogorovSmirnovStatistic({0.5, 0.5}, {0, 0}), 0.0);
  // An empty expected bin does not blow up PSI (epsilon floor).
  const double psi =
      obs::PopulationStabilityIndex({0.0, 1.0}, {50, 50});
  EXPECT_TRUE(std::isfinite(psi));
  EXPECT_GT(psi, 0.0);
}

// ---- Process stats ----------------------------------------------------------

TEST(ProcessStatsTest, LinuxSelfReadIsSane) {
  const obs::ProcessStats stats = obs::ReadProcessStats();
#if defined(__linux__)
  ASSERT_TRUE(stats.ok);
  EXPECT_GT(stats.rss_bytes, 1 << 20);  // A C++ test binary exceeds 1 MiB.
  EXPECT_GE(stats.cpu_seconds, 0.0);
  EXPECT_GT(stats.open_fds, 0);  // stdio at minimum.
#else
  EXPECT_FALSE(stats.ok);
#endif
}

TEST(TraceTest, ChromeTraceJsonEscapesStrings) {
  obs::CollectingTraceSink sink;
  obs::Tracer tracer(&sink);
  {
    obs::Span span(&tracer, "s");
    span.set_request_id("a\"b\\c\n");
  }
  StatusOr<net::JsonValue> parsed =
      net::ParseJson(obs::ChromeTraceJson(sink.records()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("traceEvents")
                .array_items()[0]
                .at("args")
                .at("request_id")
                .string_value(),
            "a\"b\\c\n");
}

}  // namespace
}  // namespace deepmvi
