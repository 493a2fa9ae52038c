#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/lru_cache.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

namespace deepmvi {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(RngTest, GaussianWithMeanStddev) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(19);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(5);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All values hit.
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(37);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SplitIndependent) {
  Rng parent(43);
  Rng child = parent.Split();
  // Child stream should not track parent's.
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, UniformIntIsDeterministicForSameSeed) {
  // The Lemire rejection step must consume the stream identically on both
  // generators; the unbiased mapping changes values vs the old modulo but
  // never same-seed reproducibility.
  Rng a(101), b(101);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(a.UniformInt(7), b.UniformInt(7));
    ASSERT_EQ(a.UniformInt(1, 1000000007), b.UniformInt(1, 1000000007));
  }
}

TEST(RngTest, UniformIntApproximatelyUniform) {
  // Frequency check on a small range: with rejection sampling every residue
  // has identical probability; 60000 draws over 6 bins should stay within
  // ~4 sigma of 10000 each.
  Rng rng(53);
  int counts[6] = {0, 0, 0, 0, 0, 0};
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(6)];
  for (int v = 0; v < 6; ++v) {
    EXPECT_NEAR(counts[v], n / 6, 400) << "value " << v;
  }
}

TEST(RngTest, UniformIntHandlesHugeRanges) {
  // Near-INT_MAX ranges exercise the rejection path (2^64 mod n != 0).
  Rng rng(59);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(2147483647);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 2147483647);
  }
}

TEST(ParallelForTest, RunsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  ParallelFor(257, 8, [&](int i) { ++hits[i]; });
  for (int i = 0; i < 257; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, WorkerExceptionPropagatesToCaller) {
  // Historical regression: an exception on a worker thread escaped into
  // std::thread and called std::terminate. It must rethrow on the caller
  // after every worker joined.
  EXPECT_THROW(
      ParallelFor(64, 4,
                  [](int i) {
                    if (i == 13) throw std::runtime_error("boom");
                  }),
      std::runtime_error);

  // Serial path (1 thread / 1 item) propagates too.
  EXPECT_THROW(
      ParallelFor(4, 1, [](int) { throw std::runtime_error("serial boom"); }),
      std::runtime_error);
  EXPECT_THROW(
      ParallelFor(1, 8, [](int) { throw std::runtime_error("single boom"); }),
      std::runtime_error);
}

TEST(ParallelForTest, ExceptionSkipsRemainingIterations) {
  // Deterministic on the serial path: the throw at i == 0 must abandon
  // every later iteration. (On the threaded path the skip point depends on
  // when workers observe the failure flag; exception delivery there is
  // covered by WorkerExceptionPropagatesToCaller.)
  std::atomic<int> ran{0};
  try {
    ParallelFor(1000, 1, [&](int i) {
      if (i == 0) throw std::runtime_error("early");
      ++ran;
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "early");
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(StatusTest, OkStatus) {
  Status s = Status::OK();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status s = Status::InvalidArgument("bad rank");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("bad rank"), std::string::npos);
}

TEST(StatusTest, StatusOrValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusTest, StatusOrError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch sw;
  volatile double acc = 0.0;
  for (int i = 0; i < 100000; ++i) acc = acc + std::sqrt(static_cast<double>(i));
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds());
}

TEST(TablePrinterTest, AsciiContainsCells) {
  TablePrinter table({"dataset", "mae"});
  table.AddRow({"AirQ", "0.1234"});
  table.AddRow({"Climate", "0.5"});
  std::string ascii = table.ToAscii();
  EXPECT_NE(ascii.find("AirQ"), std::string::npos);
  EXPECT_NE(ascii.find("0.1234"), std::string::npos);
  EXPECT_NE(ascii.find("mae"), std::string::npos);
}

TEST(TablePrinterTest, CsvRoundTrip) {
  TablePrinter table({"a", "b"});
  table.AddRow({"x,y", "plain"});
  std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("plain"), std::string::npos);
}

TEST(TablePrinterTest, FormatDouble) {
  EXPECT_EQ(TablePrinter::FormatDouble(0.123456, 3), "0.123");
  EXPECT_EQ(TablePrinter::FormatDouble(2.0, 1), "2.0");
}

TEST(LoggingTest, ParseLogSeverity) {
  LogSeverity severity = LogSeverity::kInfo;
  EXPECT_TRUE(ParseLogSeverity("debug", &severity));
  EXPECT_EQ(severity, LogSeverity::kDebug);
  EXPECT_TRUE(ParseLogSeverity("warn", &severity));
  EXPECT_EQ(severity, LogSeverity::kWarning);
  EXPECT_TRUE(ParseLogSeverity("warning", &severity));
  EXPECT_EQ(severity, LogSeverity::kWarning);
  EXPECT_TRUE(ParseLogSeverity("error", &severity));
  EXPECT_EQ(severity, LogSeverity::kError);
  // Unknown input leaves the output untouched.
  EXPECT_FALSE(ParseLogSeverity("verbose", &severity));
  EXPECT_EQ(severity, LogSeverity::kError);
}

TEST(LoggingTest, ParseLogFormat) {
  LogFormat format = LogFormat::kPlain;
  EXPECT_TRUE(ParseLogFormat("json", &format));
  EXPECT_EQ(format, LogFormat::kJson);
  EXPECT_TRUE(ParseLogFormat("kv", &format));
  EXPECT_EQ(format, LogFormat::kKeyValue);
  EXPECT_TRUE(ParseLogFormat("keyvalue", &format));
  EXPECT_EQ(format, LogFormat::kKeyValue);
  EXPECT_TRUE(ParseLogFormat("plain", &format));
  EXPECT_EQ(format, LogFormat::kPlain);
  EXPECT_FALSE(ParseLogFormat("xml", &format));
  EXPECT_EQ(format, LogFormat::kPlain);
}

LogEvent RequestLogEvent() {
  LogEvent event;
  event.severity = LogSeverity::kInfo;
  event.source = "server.cc:42";
  event.message = "http request served";
  event.fields = {{"request_id", "req-7"}, {"path", "/v1/impute"}};
  return event;
}

TEST(LoggingTest, FormatPlainGolden) {
  EXPECT_EQ(FormatLogEvent(RequestLogEvent(), LogFormat::kPlain),
            "[INFO server.cc:42] http request served "
            "request_id=req-7 path=/v1/impute");
}

TEST(LoggingTest, FormatKeyValueGolden) {
  EXPECT_EQ(FormatLogEvent(RequestLogEvent(), LogFormat::kKeyValue),
            "level=INFO src=server.cc:42 msg=\"http request served\" "
            "request_id=req-7 path=/v1/impute");
}

TEST(LoggingTest, FormatJsonGolden) {
  EXPECT_EQ(FormatLogEvent(RequestLogEvent(), LogFormat::kJson),
            "{\"level\":\"INFO\",\"src\":\"server.cc:42\","
            "\"msg\":\"http request served\","
            "\"request_id\":\"req-7\",\"path\":\"/v1/impute\"}");
}

TEST(LoggingTest, KeyValueQuotesAndEscapesAwkwardValues) {
  LogEvent event;
  event.severity = LogSeverity::kWarning;
  event.source = "s:1";
  event.message = "m";
  event.fields = {{"a", "has space"}, {"b", ""}, {"c", "tab\there"},
                  {"d", "plain"}};
  EXPECT_EQ(FormatLogEvent(event, LogFormat::kKeyValue),
            "level=WARN src=s:1 msg=m "
            "a=\"has space\" b=\"\" c=\"tab\\there\" d=plain");
}

TEST(LoggingTest, JsonEscapesControlCharactersAndQuotes) {
  LogEvent event;
  event.severity = LogSeverity::kError;
  event.source = "s:1";
  event.message = "quote \" backslash \\ newline \n bell \x07";
  EXPECT_EQ(FormatLogEvent(event, LogFormat::kJson),
            "{\"level\":\"ERROR\",\"src\":\"s:1\","
            "\"msg\":\"quote \\\" backslash \\\\ newline \\n bell "
            "\\u0007\"}");
}

TEST(LoggingTest, DebugIsBelowDefaultThreshold) {
  EXPECT_LT(static_cast<int>(LogSeverity::kDebug),
            static_cast<int>(LogSeverity::kInfo));
  LogSeverity severity = LogSeverity::kInfo;
  ASSERT_TRUE(ParseLogSeverity("debug", &severity));
  // Lowering the threshold to debug admits every severity.
  EXPECT_GE(static_cast<int>(LogSeverity::kError),
            static_cast<int>(severity));
}

TEST(TablePrinterTest, WriteCsvCreatesFile) {
  TablePrinter table({"k", "v"});
  table.AddRow({"one", "1"});
  std::string path = testing::TempDir() + "/dmvi_table_test.csv";
  ASSERT_TRUE(table.WriteCsv(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "k,v");
}

// ---- LruCache ---------------------------------------------------------------

using StringCache = LruCache<int, std::string>;

StringCache::ValuePtr Text(const std::string& text) {
  return std::make_shared<const std::string>(text);
}

TEST(LruCacheTest, GetCountsHitsAndMisses) {
  StringCache cache(100);
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Insert(1, Text("one"), 10);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), "one");
  EXPECT_EQ(cache.Get(2), nullptr);
  const StringCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.bytes_cached, 10);
  EXPECT_EQ(cache.byte_budget(), 100);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedToFitTheBudget) {
  StringCache cache(30);
  cache.Insert(1, Text("a"), 10);
  cache.Insert(2, Text("b"), 10);
  cache.Insert(3, Text("c"), 10);
  cache.Get(1);  // Order, most recent first: 1, 3, 2.
  cache.Insert(4, Text("d"), 10);  // Evicts 2.
  EXPECT_EQ(cache.Get(2), nullptr);
  cache.Insert(5, Text("e"), 20);  // Evicts 3, then 1 (4 was just used).
  EXPECT_EQ(cache.Get(3), nullptr);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(4), nullptr);
  EXPECT_NE(cache.Get(5), nullptr);
  const StringCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 3);
  EXPECT_EQ(stats.bytes_cached, 30);
  EXPECT_EQ(stats.peak_bytes, 30);
}

TEST(LruCacheTest, FirstInsertOfAKeyWins) {
  StringCache cache(100);
  const StringCache::ValuePtr first = cache.Insert(7, Text("first"), 10);
  const StringCache::ValuePtr second = cache.Insert(7, Text("second"), 10);
  EXPECT_EQ(second, first);
  EXPECT_EQ(*cache.Get(7), "first");
  EXPECT_EQ(cache.stats().bytes_cached, 10);
}

TEST(LruCacheTest, OversizedValueIsReturnedButNotKept) {
  StringCache cache(30);
  cache.Insert(1, Text("small"), 10);
  const StringCache::ValuePtr big = cache.Insert(2, Text("big"), 31);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(*big, "big");
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);  // Nothing was evicted for it.
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.stats().bytes_cached, 10);

  // A budget of zero keeps nothing.
  StringCache off(0);
  EXPECT_EQ(*off.Insert(1, Text("x"), 1), "x");
  EXPECT_EQ(off.Get(1), nullptr);
}

TEST(LruCacheTest, PinnedValuesSurviveEvictionAndClear) {
  StringCache cache(10);
  cache.Insert(1, Text("pinned"), 10);
  const StringCache::ValuePtr pinned = cache.Get(1);
  cache.Insert(2, Text("next"), 10);  // Evicts 1.
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(*pinned, "pinned");

  const StringCache::ValuePtr next = cache.Get(2);
  cache.Clear();
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_EQ(*next, "next");
  const StringCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2);  // Clear counts what it dropped.
  EXPECT_EQ(stats.bytes_cached, 0);
  EXPECT_EQ(stats.peak_bytes, 10);
}

TEST(LruCacheTest, ConcurrentReadersSeeTheirOwnValuesWithinBudget) {
  StringCache cache(8 * 16);  // Eight of the 32 keys fit.
  const int readers = 4;
  const int iters = 2000;
  std::atomic<int64_t> calls{0};
  ParallelFor(readers, readers, [&](int r) {
    for (int i = 0; i < iters; ++i) {
      const int key = (r * 5 + i) % 32;
      StringCache::ValuePtr value = cache.Get(key);
      if (value == nullptr) {
        value = cache.Insert(key, Text(std::to_string(key)), 16);
      }
      ASSERT_NE(value, nullptr);
      EXPECT_EQ(*value, std::to_string(key));
      calls.fetch_add(1);
    }
  });
  const StringCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, calls.load());
  EXPECT_LE(stats.peak_bytes, cache.byte_budget());
  EXPECT_LE(stats.bytes_cached, cache.byte_budget());
}

}  // namespace
}  // namespace deepmvi
