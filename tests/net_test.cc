// Tests for the src/net HTTP front-end: the incremental HTTP/1.1 parser
// (split reads, size caps, keep-alive), the JSON codec, and — the central
// contract — that imputation served over a loopback socket is bit-identical
// to calling ImputationService directly. The network layer must change
// where bytes travel, never which bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/simple.h"
#include "common/json_escape.h"
#include "common/rng.h"
#include "core/deepmvi.h"
#include "data/io.h"
#include "net/client.h"
#include "net/fault.h"
#include "net/codec.h"
#include "net/endpoints.h"
#include "net/http.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "scenario/scenarios.h"
#include "serve/quality_monitor.h"
#include "serve/service.h"
#include "serve/workload.h"
#include "tensor/matmul_kernel.h"
#include "testing/test_util.h"

namespace deepmvi {
namespace {

using testutil::ExpectMatricesBitIdentical;
using testutil::MakeSeasonalCase;
using testutil::ScopedProcessTracer;
using testutil::SeasonalCase;
using testutil::TempPath;
using testutil::TinyDeepMviConfig;

// ---- HttpParser -------------------------------------------------------------

net::HttpParser RequestParser(net::ParserLimits limits = {}) {
  return net::HttpParser(net::HttpParser::Mode::kRequest, limits);
}

TEST(HttpParserTest, ParsesSimpleRequestDeliveredWhole) {
  const std::string wire =
      "POST /v1/impute HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
  net::HttpParser parser = RequestParser();
  EXPECT_EQ(parser.Feed(wire.data(), wire.size()), wire.size());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().method, "POST");
  EXPECT_EQ(parser.message().target, "/v1/impute");
  EXPECT_EQ(parser.message().version, "HTTP/1.1");
  EXPECT_EQ(parser.message().Header("host"), "x");  // Lower-cased name.
  EXPECT_EQ(parser.message().body, "hello");
}

TEST(HttpParserTest, ByteAtATimeFeedParsesIdentically) {
  // The hard case for an incremental parser: every read boundary at once.
  const std::string wire =
      "POST /a HTTP/1.1\r\ncontent-length: 11\r\nx-k: v\r\n\r\nsplit bodies";
  net::HttpParser parser = RequestParser();
  for (const char c : wire) {
    ASSERT_FALSE(parser.failed()) << parser.error_message();
    parser.Feed(&c, 1);
  }
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().body, "split bodie");  // 11 bytes declared.
  EXPECT_EQ(parser.message().Header("x-k"), "v");
}

TEST(HttpParserTest, PipelinedSecondRequestIsLeftUnconsumed) {
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string wire = first + "GET /b HTTP/1.1\r\n\r\n";
  net::HttpParser parser = RequestParser();
  const size_t used = parser.Feed(wire.data(), wire.size());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(used, first.size());
  EXPECT_EQ(parser.message().target, "/a");

  parser.Reset();
  parser.Feed(wire.data() + used, wire.size() - used);
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().target, "/b");
}

TEST(HttpParserTest, OversizedHeadIs431) {
  net::ParserLimits limits;
  limits.max_header_bytes = 64;
  net::HttpParser parser = RequestParser(limits);
  const std::string wire = "GET / HTTP/1.1\r\nx-pad: " +
                           std::string(200, 'a') + "\r\n\r\n";
  parser.Feed(wire.data(), wire.size());
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_code(), 431);
}

TEST(HttpParserTest, OversizedDeclaredBodyIs413) {
  net::ParserLimits limits;
  limits.max_body_bytes = 10;
  net::HttpParser parser = RequestParser(limits);
  const std::string wire =
      "POST / HTTP/1.1\r\ncontent-length: 11\r\n\r\nhello world";
  parser.Feed(wire.data(), wire.size());
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_code(), 413);
}

TEST(HttpParserTest, MalformedFramingIs400) {
  for (const char* wire : {
           "GARBAGE\r\n\r\n",                                 // No target.
           "GET /a HTTP/2.0\r\n\r\n",                         // Bad version.
           "GET a HTTP/1.1\r\n\r\n",                          // Non-origin.
           "GET /a HTTP/1.1\r\nbad header\r\n\r\n",           // No colon.
           "GET /a HTTP/1.1\r\nkey : v\r\n\r\n",              // Space pre-colon.
           "POST /a HTTP/1.1\r\ncontent-length: nan\r\n\r\n"  // Bad length.
       }) {
    net::HttpParser parser = RequestParser();
    parser.Feed(wire, std::string(wire).size());
    EXPECT_TRUE(parser.failed()) << wire;
    EXPECT_EQ(parser.error_code(), 400) << wire;
  }
}

TEST(HttpParserTest, ConflictingContentLengthsAre400) {
  // The request-smuggling vector: two framings of one message.
  const std::string wire =
      "POST /a HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 50\r\n\r\n";
  net::HttpParser parser = RequestParser();
  parser.Feed(wire.data(), wire.size());
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_code(), 400);

  // Equal duplicates are tolerated (RFC 7230 allows either).
  const std::string same =
      "POST /a HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\nok";
  net::HttpParser tolerant = RequestParser();
  tolerant.Feed(same.data(), same.size());
  ASSERT_TRUE(tolerant.done());
  EXPECT_EQ(tolerant.message().body, "ok");
}

TEST(HttpParserTest, ChunkedTransferEncodingIs501) {
  const std::string wire =
      "POST /a HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
  net::HttpParser parser = RequestParser();
  parser.Feed(wire.data(), wire.size());
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_code(), 501);
}

TEST(HttpParserTest, ParsesResponsesAndKeepAliveDefaults) {
  const std::string wire =
      "HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\nno";
  net::HttpParser parser(net::HttpParser::Mode::kResponse);
  parser.Feed(wire.data(), wire.size());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().status_code, 404);
  EXPECT_EQ(parser.message().reason, "Not Found");
  EXPECT_EQ(parser.message().body, "no");
  EXPECT_TRUE(net::WantsKeepAlive(parser.message()));  // 1.1 default.

  net::HttpMessage closing;
  closing.SetHeader("connection", "close");
  EXPECT_FALSE(net::WantsKeepAlive(closing));
  net::HttpMessage old_version;
  old_version.version = "HTTP/1.0";
  EXPECT_FALSE(net::WantsKeepAlive(old_version));  // 1.0 default.
}

TEST(HttpParserTest, SerializeThenParseRoundTrips) {
  net::HttpMessage response = net::MakeResponse(200, "payload", "text/plain");
  const std::string wire = net::SerializeResponse(response);
  net::HttpParser parser(net::HttpParser::Mode::kResponse);
  parser.Feed(wire.data(), wire.size());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.message().status_code, 200);
  EXPECT_EQ(parser.message().body, "payload");
  EXPECT_EQ(parser.message().Header("content-type"), "text/plain");
  EXPECT_EQ(parser.message().Header("content-length"), "7");
}

TEST(HttpParserTest, SplitInvarianceAtEveryByteBoundary) {
  // Property: the parse result must not depend on where the read boundary
  // falls. Exercise every 2-way split of a request with headers + body.
  const std::string wire =
      "POST /v1/impute HTTP/1.1\r\nHost: a\r\ncontent-length: 9\r\n"
      "x-trace: zz\r\n\r\nbody bits";
  net::HttpParser whole = RequestParser();
  whole.Feed(wire.data(), wire.size());
  ASSERT_TRUE(whole.done());

  for (size_t split = 0; split <= wire.size(); ++split) {
    net::HttpParser parser = RequestParser();
    size_t used = parser.Feed(wire.data(), split);
    if (!parser.done()) {
      ASSERT_FALSE(parser.failed()) << "split at " << split << ": "
                                    << parser.error_message();
      used += parser.Feed(wire.data() + used, wire.size() - used);
    }
    ASSERT_TRUE(parser.done()) << "split at " << split;
    EXPECT_EQ(parser.message().method, whole.message().method);
    EXPECT_EQ(parser.message().target, whole.message().target);
    EXPECT_EQ(parser.message().version, whole.message().version);
    EXPECT_EQ(parser.message().body, whole.message().body);
    EXPECT_EQ(parser.message().Header("host"), "a");
    EXPECT_EQ(parser.message().Header("x-trace"), "zz");
    EXPECT_EQ(used, wire.size()) << "split at " << split;
  }
}

TEST(HttpParserTest, SeededMutationsNeverCrashAndFailWithKnownCodes) {
  // Property-style fuzz: random byte mutations + truncations of a valid
  // request, fed in random chunk sizes, must always end in done() or
  // failed() with one of the parser's documented HTTP codes — never a
  // crash, hang, or stray code. Seeded, so a failure replays exactly.
  const std::string base =
      "POST /v1/impute HTTP/1.1\r\nHost: fuzz\r\ncontent-length: 12\r\n"
      "accept: text/csv\r\n\r\n{\"model\":1}\n";
  Rng rng(20240807);
  for (int iter = 0; iter < 600; ++iter) {
    std::string wire = base;
    const int edits = 1 + rng.UniformInt(4);
    for (int e = 0; e < edits; ++e) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(static_cast<int>(wire.size())));
      wire[pos] = static_cast<char>(rng.UniformInt(256));
    }
    if (rng.Uniform() < 0.25) {
      wire.resize(static_cast<size_t>(
          rng.UniformInt(static_cast<int>(wire.size()) + 1)));
    }

    net::HttpParser parser = RequestParser();
    size_t offset = 0;
    while (offset < wire.size() && !parser.done() && !parser.failed()) {
      const size_t chunk = 1 + static_cast<size_t>(rng.UniformInt(7));
      const size_t len = std::min(chunk, wire.size() - offset);
      const size_t used = parser.Feed(wire.data() + offset, len);
      offset += used;
      if (used == 0) break;  // Parser refuses further input: terminal.
    }
    if (parser.failed()) {
      const int code = parser.error_code();
      EXPECT_TRUE(code == 400 || code == 413 || code == 431 || code == 501)
          << "iter " << iter << " produced code " << code;
    }
  }
}

// ---- JSON -------------------------------------------------------------------

TEST(JsonTest, ParsesDocumentShapes) {
  StatusOr<net::JsonValue> doc = net::ParseJson(
      R"({"s": "a\"b\n", "n": -1.5e2, "t": true, "f": false, "z": null,
          "arr": [1, 2, [3]], "obj": {"k": "v"}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->at("s").string_value(), "a\"b\n");
  EXPECT_EQ(doc->at("n").number_value(), -150.0);
  EXPECT_TRUE(doc->at("t").bool_value());
  EXPECT_FALSE(doc->at("f").bool_value());
  EXPECT_TRUE(doc->at("z").is_null());
  ASSERT_EQ(doc->at("arr").array_items().size(), 3u);
  EXPECT_EQ(doc->at("arr").array_items()[2].array_items()[0].number_value(),
            3.0);
  EXPECT_EQ(doc->at("obj").at("k").string_value(), "v");
  EXPECT_TRUE(doc->at("missing").is_null());  // Safe chaining.
}

TEST(JsonTest, RejectsMalformedDocuments) {
  for (const char* text : {"", "{", "[1,", "{\"k\" 1}", "{\"k\":}", "tru",
                           "\"unterminated", "1 2", "{\"k\":1,}", "nul"}) {
    StatusOr<net::JsonValue> doc = net::ParseJson(text);
    EXPECT_FALSE(doc.ok()) << "accepted: " << text;
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(JsonTest, DepthIsCapped) {
  std::string bomb(2000, '[');
  EXPECT_FALSE(net::ParseJson(bomb).ok());
}

TEST(JsonTest, EscapeRoundTripsThroughParser) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  StatusOr<net::JsonValue> doc =
      net::ParseJson("\"" + EscapeJson(nasty) + "\"");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->string_value(), nasty);
}

TEST(JsonTest, SeededMutationsNeverCrashTheCodec) {
  // Mutated/truncated documents through ParseJson and the full impute
  // decoder: the only acceptable failure is InvalidArgument. Seeded for
  // exact replay under ASan/UBSan.
  const std::string base =
      R"({"model": "m", "values": [[1.5, null, 3e2], [4, 5, 6]],)"
      R"( "query": {"row": 1, "t_start": 2, "block_len": 3}, "format": "json"})";
  Rng rng(41507);
  for (int iter = 0; iter < 800; ++iter) {
    std::string text = base;
    const int edits = 1 + rng.UniformInt(5);
    for (int e = 0; e < edits; ++e) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(static_cast<int>(text.size())));
      text[pos] = static_cast<char>(rng.UniformInt(256));
    }
    if (rng.Uniform() < 0.2) {
      text.resize(static_cast<size_t>(
          rng.UniformInt(static_cast<int>(text.size()) + 1)));
    }
    StatusOr<net::JsonValue> doc = net::ParseJson(text);
    if (!doc.ok()) {
      EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument)
          << "iter " << iter;
    }
    net::HttpMessage request;
    request.method = "POST";
    request.target = "/v1/impute";
    request.body = text;
    StatusOr<net::ImputeApiRequest> decoded = net::DecodeImputeRequest(request);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << "iter " << iter;
    }
  }
}

// ---- Fault injection --------------------------------------------------------

TEST(FaultInjectorTest, SameSeedReplaysIdenticalSchedule) {
  net::FaultInjector::Config config;
  config.seed = 1234;
  config.read = {0.2, 0.3, 0.1};
  config.write = {0.1, 0.4, 0.05};
  net::FaultInjector a(config);
  net::FaultInjector b(config);
  config.seed = 1235;
  net::FaultInjector c(config);

  bool other_seed_differs = false;
  for (int i = 0; i < 400; ++i) {
    const size_t requested = 2 + static_cast<size_t>(i % 300);
    const bool read_op = (i % 2 == 0);
    const net::FaultInjector::Decision da =
        read_op ? a.NextRead(requested) : a.NextWrite(requested);
    const net::FaultInjector::Decision db =
        read_op ? b.NextRead(requested) : b.NextWrite(requested);
    const net::FaultInjector::Decision dc =
        read_op ? c.NextRead(requested) : c.NextWrite(requested);
    ASSERT_EQ(static_cast<int>(da.action), static_cast<int>(db.action))
        << "op " << i;
    ASSERT_EQ(da.cap, db.cap) << "op " << i;
    if (da.action == net::FaultInjector::Action::kShort) {
      EXPECT_GE(da.cap, 1u);
      EXPECT_LT(da.cap, requested);  // Strict prefix.
    }
    if (da.action != dc.action || da.cap != dc.cap) other_seed_differs = true;
  }
  EXPECT_EQ(a.injected(), b.injected());
  EXPECT_GT(a.injected(), 0);
  EXPECT_TRUE(other_seed_differs) << "seed does not influence the schedule";
}

TEST(FaultInjectorTest, ZeroRatesAreCleanAndOneByteOpsNeverShorten) {
  net::FaultInjector::Config clean;
  clean.seed = 9;
  net::FaultInjector quiet(clean);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(quiet.NextRead(64).action, net::FaultInjector::Action::kNone);
    EXPECT_EQ(quiet.NextWrite(64).action, net::FaultInjector::Action::kNone);
  }
  EXPECT_EQ(quiet.injected(), 0);

  net::FaultInjector::Config shorty;
  shorty.seed = 9;
  shorty.read.short_rate = 1.0;
  net::FaultInjector injector(shorty);
  for (int i = 0; i < 50; ++i) {
    // A 1-byte read cannot be a strict prefix: the shim passes it through.
    EXPECT_EQ(injector.NextRead(1).action, net::FaultInjector::Action::kNone);
    const net::FaultInjector::Decision d = injector.NextRead(10);
    EXPECT_EQ(d.action, net::FaultInjector::Action::kShort);
    EXPECT_GE(d.cap, 1u);
    EXPECT_LE(d.cap, 9u);
  }
}

// ---- Impute request decoding ------------------------------------------------

net::HttpMessage PostBody(std::string body, const std::string& accept = "") {
  net::HttpMessage request;
  request.method = "POST";
  request.target = "/v1/impute";
  request.body = std::move(body);
  if (!accept.empty()) request.SetHeader("accept", accept);
  return request;
}

TEST(CodecTest, DecodesQueryBaseAndInlineModes) {
  StatusOr<net::ImputeApiRequest> query = net::DecodeImputeRequest(PostBody(
      R"({"model": "m", "query": {"row": 2, "t_start": 5, "block_len": 3}})"));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->model, "m");
  ASSERT_TRUE(query->has_query);
  EXPECT_EQ(query->query.row, 2);
  EXPECT_EQ(query->query.t_start, 5);
  EXPECT_EQ(query->query.block_len, 3);
  EXPECT_FALSE(query->csv_response);

  StatusOr<net::ImputeApiRequest> base =
      net::DecodeImputeRequest(PostBody("", "text/csv"));
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->model, "default");
  EXPECT_FALSE(base->has_query);
  EXPECT_FALSE(base->has_inline_data);
  EXPECT_TRUE(base->csv_response);

  StatusOr<net::ImputeApiRequest> inline_mode = net::DecodeImputeRequest(
      PostBody(R"({"values": [[1, null, 3], [4, 5, null]]})"));
  ASSERT_TRUE(inline_mode.ok()) << inline_mode.status().ToString();
  ASSERT_TRUE(inline_mode->has_inline_data);
  EXPECT_EQ(inline_mode->inline_values.rows(), 2);
  EXPECT_EQ(inline_mode->inline_values.cols(), 3);
  EXPECT_EQ(inline_mode->inline_values(0, 0), 1.0);
  EXPECT_TRUE(inline_mode->inline_mask.missing(0, 1));
  EXPECT_TRUE(inline_mode->inline_mask.missing(1, 2));
  EXPECT_EQ(inline_mode->inline_mask.CountMissing(), 2);

  // "format" overrides Accept.
  StatusOr<net::ImputeApiRequest> forced =
      net::DecodeImputeRequest(PostBody(R"({"format": "csv"})"));
  ASSERT_TRUE(forced.ok());
  EXPECT_TRUE(forced->csv_response);
}

TEST(CodecTest, RejectsBadImputeBodies) {
  for (const char* body : {
           "not json at all",
           "[1, 2, 3]",                                    // Not an object.
           R"({"model": 7})",                              // Bad type.
           R"({"query": {"row": -1}})",                    // Negative.
           R"({"query": {"row": 0, "t_start": 0, "block_len": 0}})",
           R"({"values": []})",                            // Empty.
           R"({"values": [[1], [2, 3]]})",                 // Ragged.
           R"({"values": [[1, "x"]]})",                    // Bad cell.
           R"({"values": [[1]], "query": {"row": 0, "t_start": 0,
               "block_len": 1}})",                         // Both modes.
           R"({"format": "xml"})",
       }) {
    StatusOr<net::ImputeApiRequest> decoded =
        net::DecodeImputeRequest(PostBody(body));
    EXPECT_FALSE(decoded.ok()) << "accepted: " << body;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << body;
  }
}

// ---- Server + client round trips --------------------------------------------

/// One small trained model shared by the loopback suites.
struct ServedCase {
  SeasonalCase data_case;
  serve::ImputationService service;
  std::shared_ptr<const DataTensor> shared_data;

  explicit ServedCase(serve::ServiceConfig config = {},
                      uint64_t seed = 91)
      : data_case(MakeSeasonalCase(seed, 5, 120)), service(config) {
    DeepMviConfig model_config = TinyDeepMviConfig();
    model_config.seed = 79;
    DeepMviImputer imputer(model_config);
    TrainedDeepMvi model = imputer.Fit(data_case.data, data_case.mask);
    DMVI_CHECK(service.registry().Register("default", std::move(model)).ok());
    shared_data = std::make_shared<const DataTensor>(data_case.data);
  }

  net::ServingContext Context() {
    net::ServingContext ctx;
    ctx.service = &service;
    ctx.data = shared_data;
    ctx.base_mask = data_case.mask;
    return ctx;
  }
};

/// The serving counters and the request-latency histogram each appear in
/// a /metrics body exactly once — one metric system, no second renderer.
void ExpectServingFamiliesOnce(const std::string& text) {
  for (const char* family :
       {"dmvi_requests_total", "dmvi_failures_total", "dmvi_degraded_total",
        "dmvi_shed_total", "dmvi_rows_served_total",
        "dmvi_cells_imputed_total", "dmvi_cache_hits_total",
        "dmvi_cache_misses_total", "dmvi_request_latency_seconds"}) {
    const std::string type_line = std::string("# TYPE ") + family + " ";
    size_t found = 0;
    for (size_t at = text.find(type_line); at != std::string::npos;
         at = text.find(type_line, at + 1)) {
      ++found;
    }
    EXPECT_EQ(found, 1u) << family;
  }
}

TEST(HttpServerTest, StartStopAndBindFailureIsStatusNotAbort) {
  net::ServerConfig config;
  net::HttpServer server(config);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);

  // Second server on the same port: bind fails as a Status.
  net::ServerConfig clash;
  clash.port = server.port();
  net::HttpServer other(clash);
  Status status = other.Start();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);

  server.Stop();
  server.Stop();  // Idempotent.

  // A bad host string also fails recoverably.
  net::ServerConfig bad_host;
  bad_host.host = "not-an-address";
  EXPECT_FALSE(net::HttpServer(bad_host).Start().ok());
}

TEST(HttpServerTest, RoutesKeepAliveErrorsAndOversizedMessages) {
  net::ServerConfig config;
  config.limits.max_body_bytes = 1024;
  net::HttpServer server(config);
  server.Handle("GET", "/ping", [](const net::HttpMessage&) {
    return net::MakeResponse(200, "pong", "text/plain");
  });
  server.Handle("GET", "/boom", [](const net::HttpMessage&) -> net::HttpMessage {
    throw std::runtime_error("handler exploded");
  });
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());

  // Keep-alive: several requests on one connection, including error
  // responses, which must not kill it.
  for (int i = 0; i < 3; ++i) {
    StatusOr<net::HttpMessage> pong = client.Get("/ping");
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_EQ(pong->status_code, 200);
    EXPECT_EQ(pong->body, "pong");
    EXPECT_EQ(pong->Header("connection"), "keep-alive");
  }
  StatusOr<net::HttpMessage> missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 404);
  StatusOr<net::HttpMessage> wrong_method =
      client.Post("/ping", "", "text/plain");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status_code, 405);
  StatusOr<net::HttpMessage> threw = client.Get("/boom");
  ASSERT_TRUE(threw.ok());
  EXPECT_EQ(threw->status_code, 500);
  EXPECT_NE(threw->body.find("handler exploded"), std::string::npos);

  // Oversized body: 413 and the server closes the connection; the client
  // survives via reconnect on the next request.
  StatusOr<net::HttpMessage> huge =
      client.Post("/ping", std::string(4096, 'x'), "text/plain");
  ASSERT_TRUE(huge.ok()) << huge.status().ToString();
  EXPECT_EQ(huge->status_code, 413);
  EXPECT_EQ(huge->Header("connection"), "close");
  StatusOr<net::HttpMessage> after = client.Get("/ping");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->status_code, 200);

  EXPECT_GE(server.requests_served(), 7);
  server.Stop();
}

TEST(HttpTest, TargetPathAndQueryParameter) {
  EXPECT_EQ(net::TargetPath("/debug/profile?seconds=2"), "/debug/profile");
  EXPECT_EQ(net::TargetPath("/healthz"), "/healthz");
  EXPECT_EQ(net::TargetPath("/a?"), "/a");
  EXPECT_EQ(net::QueryParameter("/p?seconds=2&hz=500", "seconds"), "2");
  EXPECT_EQ(net::QueryParameter("/p?seconds=2&hz=500", "hz"), "500");
  EXPECT_EQ(net::QueryParameter("/p?seconds=2", "missing"), "");
  EXPECT_EQ(net::QueryParameter("/p?flag&x=1", "flag"), "");
  EXPECT_EQ(net::QueryParameter("/p", "x"), "");
}

TEST(HttpServerTest, QueryStringsRouteToTheBarePath) {
  net::HttpServer server;
  server.Handle("GET", "/echo", [](const net::HttpMessage& request) {
    return net::MakeResponse(
        200, net::QueryParameter(request.target, "v"), "text/plain");
  });
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());

  StatusOr<net::HttpMessage> with_query = client.Get("/echo?v=42");
  ASSERT_TRUE(with_query.ok()) << with_query.status().ToString();
  EXPECT_EQ(with_query->status_code, 200);
  EXPECT_EQ(with_query->body, "42");
  // The query string affects neither 404 nor 405 classification.
  EXPECT_EQ(client.Get("/nope?v=1")->status_code, 404);
  EXPECT_EQ(client.Post("/echo?v=1", "", "text/plain")->status_code, 405);
  server.Stop();
}

TEST(HttpServerTest, ManyConcurrentClientsAreServed) {
  net::ServerConfig config;
  config.num_workers = 3;
  net::HttpServer server(config);
  std::atomic<int> handled{0};
  server.Handle("GET", "/count", [&handled](const net::HttpMessage&) {
    ++handled;
    return net::MakeResponse(200, "ok", "text/plain");
  });
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kRequestsEach = 5;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      net::Client client("127.0.0.1", server.port());
      for (int i = 0; i < kRequestsEach; ++i) {
        StatusOr<net::HttpMessage> response = client.Get("/count");
        if (!response.ok() || response->status_code != 200) ++failures;
      }
      (void)c;
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(handled.load(), kClients * kRequestsEach);
  server.Stop();
}

TEST(HttpServerTest, ShortReadsWritesAndEintrAreInvisibleToClients) {
  // Transparent faults — short transfers and EINTR on both directions of
  // both ends — must never change an HTTP outcome: every request succeeds
  // and every echoed body comes back byte-identical. The injected()
  // counters prove the schedule actually fired.
  net::FaultInjector::Config server_faults;
  server_faults.seed = 4242;
  server_faults.read = {0.15, 0.25, 0.0};
  server_faults.write = {0.15, 0.25, 0.0};
  net::ServerConfig config;
  config.fault = std::make_shared<net::FaultInjector>(server_faults);
  net::HttpServer server(config);
  server.Handle("POST", "/echo", [](const net::HttpMessage& request) {
    return net::MakeResponse(200, request.body, "text/plain");
  });
  ASSERT_TRUE(server.Start().ok());

  net::FaultInjector::Config client_faults;
  client_faults.seed = 777;
  client_faults.read = {0.1, 0.3, 0.0};
  client_faults.write = {0.1, 0.3, 0.0};
  auto client_fault = std::make_shared<net::FaultInjector>(client_faults);
  net::Client client("127.0.0.1", server.port());
  client.SetFaultInjector(client_fault);

  for (int i = 0; i < 25; ++i) {
    // Growing payloads force multi-chunk sends so short writes bite.
    const std::string payload =
        "payload-" + std::to_string(i) + "-" + std::string(i * 123, 'x');
    StatusOr<net::HttpMessage> response =
        client.Post("/echo", payload, "text/plain");
    ASSERT_TRUE(response.ok())
        << "request " << i << ": " << response.status().ToString();
    EXPECT_EQ(response->status_code, 200);
    EXPECT_EQ(response->body, payload) << "request " << i;
  }
  EXPECT_GT(config.fault->injected(), 0) << "server schedule never fired";
  EXPECT_GT(client_fault->injected(), 0) << "client schedule never fired";
  server.Stop();
}

TEST(HttpServerTest, ResetFaultsFailTheRequestNotTheServer) {
  net::HttpServer server;
  server.Handle("GET", "/ping", [](const net::HttpMessage&) {
    return net::MakeResponse(200, "pong", "text/plain");
  });
  ASSERT_TRUE(server.Start().ok());

  // Client whose every send is reset: the request fails as a Status (no
  // crash, no hang), and a clean client on the same server still works.
  net::FaultInjector::Config send_reset;
  send_reset.seed = 5;
  send_reset.write.reset_rate = 1.0;
  net::Client faulty("127.0.0.1", server.port());
  faulty.SetFaultInjector(std::make_shared<net::FaultInjector>(send_reset));
  StatusOr<net::HttpMessage> broken = faulty.Get("/ping");
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().code(), StatusCode::kIoError);

  net::Client clean("127.0.0.1", server.port());
  StatusOr<net::HttpMessage> pong = clean.Get("/ping");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->status_code, 200);
  server.Stop();

  // Server whose every recv is reset: connections die mid-request, the
  // client reports IoError, and the server itself keeps running.
  net::FaultInjector::Config recv_reset;
  recv_reset.seed = 6;
  recv_reset.read.reset_rate = 1.0;
  net::ServerConfig dropping_config;
  dropping_config.fault = std::make_shared<net::FaultInjector>(recv_reset);
  net::HttpServer dropping(dropping_config);
  dropping.Handle("GET", "/ping", [](const net::HttpMessage&) {
    return net::MakeResponse(200, "pong", "text/plain");
  });
  ASSERT_TRUE(dropping.Start().ok());
  net::Client victim("127.0.0.1", dropping.port());
  StatusOr<net::HttpMessage> dropped = victim.Get("/ping");
  EXPECT_FALSE(dropped.ok());
  EXPECT_TRUE(dropping.running());
  dropping.Stop();
}

TEST(HttpServerTest, AcceptQueueSaturationDelaysButNeverDropsRequests) {
  // One worker + a one-slot backlog: with three concurrent clients the
  // queue saturates (observable via pending_connections) and the accept
  // loop backpressures instead of queueing unboundedly. Once the latch
  // opens, every request completes — saturation delays, never drops.
  net::ServerConfig config;
  config.num_workers = 1;
  config.max_pending_connections = 1;
  net::HttpServer server(config);
  std::atomic<bool> release{false};
  std::atomic<int> entered{0};
  server.Handle("GET", "/slow", [&](const net::HttpMessage&) {
    ++entered;
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return net::MakeResponse(200, "ok", "text/plain");
  });
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 3;
  std::atomic<int> oks{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      net::Client client("127.0.0.1", server.port());
      StatusOr<net::HttpMessage> response = client.Get("/slow");
      if (response.ok() && response->status_code == 200) ++oks;
    });
  }

  int observed_pending = 0;
  for (int spin = 0; spin < 2000; ++spin) {
    observed_pending = std::max(observed_pending, server.pending_connections());
    if (entered.load() >= 1 && observed_pending >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(entered.load(), 1);
  EXPECT_EQ(observed_pending, 1) << "backlog must fill to its bound, no more";

  release.store(true);
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(oks.load(), kClients);
  EXPECT_EQ(server.pending_connections(), 0);
  server.Stop();
}

TEST(ServingEndpointsTest, LoopbackImputationBitMatchesDirectServiceCalls) {
  ServedCase served;
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, served.Context());
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());

  const std::vector<serve::WorkloadQuery> queries = serve::SynthesizeWorkload(
      6, /*max_block_len=*/10, served.data_case.data.num_series(),
      served.data_case.data.num_times(), /*seed=*/43);
  for (const serve::WorkloadQuery& query : queries) {
    // Direct in-process answer.
    serve::ImputationResponse direct = served.service.Impute(
        serve::MakeQueryRequest("default", served.shared_data,
                                served.data_case.mask, query));
    ASSERT_TRUE(direct.status.ok()) << direct.status.ToString();

    // Same query over the wire, JSON cells.
    const std::string body =
        "{\"query\": {\"row\": " + std::to_string(query.row) +
        ", \"t_start\": " + std::to_string(query.t_start) +
        ", \"block_len\": " + std::to_string(query.block_len) + "}}";
    StatusOr<net::HttpMessage> response =
        client.Post("/v1/impute", body, "application/json");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status_code, 200) << response->body;

    StatusOr<net::JsonValue> doc = net::ParseJson(response->body);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    const Mask applied =
        serve::ApplyQuery(served.data_case.mask, query);
    ASSERT_EQ(doc->at("cells").array_items().size(),
              static_cast<size_t>(applied.CountMissing()));
    // Every imputed cell must equal the direct Predict bit for bit —
    // precision-17 JSON round-trips doubles exactly.
    for (const net::JsonValue& cell : doc->at("cells").array_items()) {
      const int r = static_cast<int>(cell.at("series").number_value());
      const int t = static_cast<int>(cell.at("time").number_value());
      EXPECT_EQ(cell.at("value").number_value(), direct.imputed(r, t))
          << "cell (" << r << "," << t << ")";
    }
  }
  server.Stop();
}

TEST(ServingEndpointsTest, CsvResponseIsByteIdenticalToWriteDataTensor) {
  ServedCase served;
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, served.Context());
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());

  // Reference: the in-process base-mask imputation, written by the same
  // WriteDataTensor path dmvi_train/dmvi_serve --impute-csv use.
  serve::ImputationRequest request;
  request.model = "default";
  request.data = served.shared_data;
  request.mask = served.data_case.mask;
  serve::ImputationResponse direct = served.service.Impute(request);
  ASSERT_TRUE(direct.status.ok());
  const std::string path = TempPath("net_reference_impute.csv");
  ASSERT_TRUE(WriteDataTensor(DataTensor(served.shared_data->dims(),
                                         direct.imputed),
                              path)
                  .ok());
  std::ifstream in(path, std::ios::binary);
  std::string reference((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::remove(path.c_str());

  StatusOr<net::HttpMessage> response = client.Post(
      "/v1/impute", "{\"model\": \"default\"}", "application/json",
      "text/csv");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status_code, 200);
  EXPECT_EQ(response->Header("content-type"), "text/csv");
  EXPECT_EQ(response->body, reference);  // Byte identity across transports.
  server.Stop();
}

TEST(ServingEndpointsTest, InlineValuesModeImputesWithoutServedDataset) {
  ServedCase served;
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, served.Context());
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());

  // The served model expects 5 series x >= window times; send a matching
  // inline matrix with two nulls.
  const int n = served.data_case.data.num_series();
  const int t_len = served.data_case.data.num_times();
  std::ostringstream body;
  body.precision(17);
  body << "{\"values\": [";
  for (int r = 0; r < n; ++r) {
    body << (r > 0 ? ", [" : "[");
    for (int t = 0; t < t_len; ++t) {
      if (t > 0) body << ", ";
      if (r == 1 && (t == 7 || t == 8)) {
        body << "null";
      } else {
        body << served.data_case.data.values()(r, t);
      }
    }
    body << "]";
  }
  body << "]}";
  StatusOr<net::HttpMessage> response =
      client.Post("/v1/impute", body.str(), "application/json");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status_code, 200) << response->body;
  StatusOr<net::JsonValue> doc = net::ParseJson(response->body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->at("cells").array_items().size(), 2u);

  // Inline values + CSV reply: the response must be encoded from the
  // inline dataset, not the served one.
  StatusOr<net::HttpMessage> csv =
      client.Post("/v1/impute", body.str(), "application/json", "text/csv");
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  ASSERT_EQ(csv->status_code, 200) << csv->body;
  EXPECT_EQ(csv->Header("content-type"), "text/csv");
  // One data line per series plus the anonymous dimension header.
  EXPECT_NE(csv->body.find("# dim:"), std::string::npos);
  EXPECT_EQ(std::count(csv->body.begin(), csv->body.end(), '\n'),
            n + 1);
  server.Stop();
}

TEST(ServingEndpointsTest, AdminEndpointsHealthMetricsReload) {
  ServedCase served;
  net::ServingContext ctx = served.Context();
  int reloads = 0;
  std::string last_model, last_path;
  ctx.reload = [&](const std::string& model, const std::string& path) {
    ++reloads;
    last_model = model;
    last_path = path;
    return model == "default" ? Status::OK()
                              : Status::NotFound("unknown model " + model);
  };
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, ctx);
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());

  StatusOr<net::HttpMessage> health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  ASSERT_EQ(health->status_code, 200);
  StatusOr<net::JsonValue> health_doc = net::ParseJson(health->body);
  ASSERT_TRUE(health_doc.ok());
  EXPECT_EQ(health_doc->at("status").string_value(), "ok");
  EXPECT_EQ(health_doc->at("num_series").number_value(),
            served.data_case.data.num_series());
  ASSERT_EQ(health_doc->at("models").array_items().size(), 1u);
  EXPECT_EQ(health_doc->at("models").array_items()[0].string_value(),
            "default");

  // /metrics is the one exposition. The context and the service carry no
  // registry here, so everything comes from the service's own.
  StatusOr<net::HttpMessage> metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->status_code, 200);
  EXPECT_EQ(metrics->Header("content-type"), "text/plain; version=0.0.4");
  EXPECT_NE(metrics->body.find("# TYPE dmvi_requests_total counter"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("dmvi_cache_hits_total"), std::string::npos);
  EXPECT_NE(metrics->body.find("dmvi_request_latency_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("dmvi_in_flight_requests"), std::string::npos);
  ExpectServingFamiliesOnce(metrics->body);
  EXPECT_EQ(obs::PrometheusValue(metrics->body, "dmvi_requests_total"),
            0.0);
  // The JSON twin of /metrics is gone.
  EXPECT_EQ(client.Get("/metrics.json")->status_code, 404);

  // Reload: default model, explicit path, unknown model, malformed body.
  EXPECT_EQ(client.Post("/admin/reload", "", "application/json")
                ->status_code,
            200);
  EXPECT_EQ(reloads, 1);
  EXPECT_EQ(last_model, "default");
  EXPECT_EQ(last_path, "");
  EXPECT_EQ(client
                .Post("/admin/reload",
                      R"({"model": "default", "path": "/tmp/other.dmvi"})",
                      "application/json")
                ->status_code,
            200);
  EXPECT_EQ(last_path, "/tmp/other.dmvi");
  EXPECT_EQ(client
                .Post("/admin/reload", R"({"model": "ghost"})",
                      "application/json")
                ->status_code,
            404);
  EXPECT_EQ(client.Post("/admin/reload", "{not json", "application/json")
                ->status_code,
            400);
  server.Stop();
}

TEST(ServingEndpointsTest, ReloadOfOversizedHeaderIs400AndKeepsBytes) {
  // A checkpoint whose window, num_heads or max_context header field is
  // corrupt would make the model skeleton (or its positional-encoding
  // table) allocate tens of GB. The reload must fail as a 400 and the old
  // weights keep serving the same bytes.
  ServedCase served;
  const std::string good_path = TempPath("reload_header_good.dmvi");
  ASSERT_TRUE(served.service.registry().Get("default")->Save(good_path).ok());
  std::string good_bytes;
  {
    std::ifstream in(good_path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    good_bytes = buffer.str();
  }
  net::ServingContext ctx = served.Context();
  ctx.reload = [&served](const std::string& model, const std::string& path) {
    return served.service.registry().LoadFromFile(model, path);
  };
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, ctx);
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());
  const std::string csv_request = R"({"format": "csv"})";
  StatusOr<net::HttpMessage> before =
      client.Post("/v1/impute", csv_request, "application/json");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->status_code, 200) << before->body;

  // Header: "DMVC", uint32 version, int32 filters, window (offset 12),
  // num_heads (offset 16), embedding_dim, ..., max_context (offset 68).
  for (const auto& [offset, value] :
       {std::pair<size_t, int32_t>{12, 1 << 20},
        std::pair<size_t, int32_t>{16, 1 << 16},
        std::pair<size_t, int32_t>{68, INT32_MAX}}) {
    std::string bytes = good_bytes;
    std::memcpy(&bytes[offset], &value, sizeof(value));
    const std::string bad_path = TempPath("reload_header_bad.dmvi");
    {
      std::ofstream out(bad_path, std::ios::binary);
      out << bytes;
    }
    StatusOr<net::HttpMessage> reload = client.Post(
        "/admin/reload",
        R"({"model": "default", "path": ")" + bad_path + R"("})",
        "application/json");
    ASSERT_TRUE(reload.ok()) << reload.status().ToString();
    EXPECT_EQ(reload->status_code, 400) << reload->body;
    EXPECT_NE(reload->body.find("implausible model config"), std::string::npos)
        << reload->body;

    StatusOr<net::HttpMessage> after =
        client.Post("/v1/impute", csv_request, "application/json");
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ASSERT_EQ(after->status_code, 200) << after->body;
    EXPECT_EQ(after->body, before->body) << "header offset " << offset;
    std::remove(bad_path.c_str());
  }
  EXPECT_EQ(served.service.registry().reload_info().reloads, 0);
  server.Stop();
  std::remove(good_path.c_str());
}

TEST(ServingEndpointsTest, DebugEndpointsServeRecorderAndState) {
  obs::FlightRecorder recorder(/*capacity=*/8,
                               /*slow_threshold_seconds=*/1e-9);
  serve::ServiceConfig service_config;
  service_config.recorder = &recorder;
  ServedCase served(service_config);
  net::ServingContext ctx = served.Context();
  ctx.build_commit = "cafef00d";
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, ctx);
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());

  // Drive one request through so the recorder has something to show.
  net::HttpMessage impute;
  impute.method = "POST";
  impute.target = "/v1/impute";
  impute.body = R"({"model": "default",
                    "query": {"row": 1, "t_start": 10, "block_len": 4}})";
  impute.SetHeader("content-type", "application/json");
  impute.SetHeader("x-request-id", "debug-req-0");
  StatusOr<net::HttpMessage> response = client.RoundTrip(impute);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status_code, 200);

  StatusOr<net::HttpMessage> requests = client.Get("/debug/requests");
  ASSERT_TRUE(requests.ok());
  ASSERT_EQ(requests->status_code, 200);
  EXPECT_EQ(requests->Header("content-type"), "application/json");
  StatusOr<net::JsonValue> doc = net::ParseJson(requests->body);
  ASSERT_TRUE(doc.ok()) << requests->body;
  EXPECT_EQ(doc->at("capacity").number_value(), 8);
  EXPECT_DOUBLE_EQ(doc->at("slow_threshold_seconds").number_value(), 1e-9);
  EXPECT_EQ(doc->at("total_recorded").number_value(), 1);
  ASSERT_EQ(doc->at("records").array_items().size(), 1u);
  const net::JsonValue& record = doc->at("records").array_items()[0];
  EXPECT_EQ(record.at("request_id").string_value(), "debug-req-0");
  EXPECT_TRUE(record.at("ok").bool_value());
  EXPECT_GT(record.at("latency_seconds").number_value(), 0.0);

  // A nanosecond threshold makes every request slow.
  StatusOr<net::HttpMessage> slow = client.Get("/debug/slow");
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(slow->status_code, 200);
  StatusOr<net::JsonValue> slow_doc = net::ParseJson(slow->body);
  ASSERT_TRUE(slow_doc.ok()) << slow->body;
  EXPECT_EQ(slow_doc->at("total_slow").number_value(), 1);
  ASSERT_EQ(slow_doc->at("records").array_items().size(), 1u);

  StatusOr<net::HttpMessage> state = client.Get("/debug/state");
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(state->status_code, 200);
  StatusOr<net::JsonValue> state_doc = net::ParseJson(state->body);
  ASSERT_TRUE(state_doc.ok()) << state->body;
  EXPECT_EQ(state_doc->at("build_commit").string_value(), "cafef00d");
  EXPECT_GE(state_doc->at("uptime_seconds").number_value(), 0.0);
  EXPECT_GT(state_doc->at("pid").number_value(), 0);
  EXPECT_FALSE(state_doc->at("profiler_running").bool_value());
  EXPECT_EQ(state_doc->at("gemm_kernels").string_value(),
            internal::ActiveMatMulKernelSet().name);
#if defined(__linux__)
  EXPECT_TRUE(state_doc->at("process_stats_ok").bool_value());
  EXPECT_GT(state_doc->at("rss_bytes").number_value(), 0);
  EXPECT_GT(state_doc->at("open_fds").number_value(), 0);
#endif
  server.Stop();
}

TEST(ServingEndpointsTest, DebugRequestsWithoutRecorderIs503) {
  ServedCase served;
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, served.Context());
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());
  for (const char* path : {"/debug/requests", "/debug/slow"}) {
    StatusOr<net::HttpMessage> response = client.Get(path);
    ASSERT_TRUE(response.ok()) << path;
    EXPECT_EQ(response->status_code, 503) << path;
  }
  // /debug/state needs no recorder.
  EXPECT_EQ(client.Get("/debug/state")->status_code, 200);
  server.Stop();
}

TEST(ServingEndpointsTest, DebugProfileAnswersCollapsedStacksOrBusy) {
  ServedCase served;
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, served.Context());
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());

  // Invalid parameters clamp rather than fail; the window itself may be
  // FailedPrecondition (503) where CPU-clock timers are unavailable.
  StatusOr<net::HttpMessage> profile =
      client.Get("/debug/profile?seconds=1&hz=200");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ASSERT_TRUE(profile->status_code == 200 || profile->status_code == 503)
      << profile->status_code << " " << profile->body;
  if (profile->status_code == 200) {
    EXPECT_EQ(profile->Header("x-dmvi-profile-hz"), "200");
    // The seconds header reports the measured window, >= the requested 1s.
    EXPECT_GE(std::atof(profile->Header("x-dmvi-profile-seconds").c_str()),
              1.0);
    EXPECT_FALSE(profile->Header("x-dmvi-profile-samples").empty());
    // An idle server consumes no CPU, so zero samples (empty body) is
    // legitimate; any samples must fold into collapsed-stack lines.
    if (!profile->body.empty()) {
      EXPECT_NE(profile->body.find(' '), std::string::npos);
    }
    EXPECT_FALSE(obs::CpuProfiler::IsRunning());
  }
  server.Stop();
}

TEST(ServingEndpointsTest, MetricsExportProcessAndTraceGauges) {
  obs::CollectingTraceSink sink;
  ServedCase served;
  net::ServingContext ctx = served.Context();
  ctx.trace_sink = &sink;
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, ctx);
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());

  StatusOr<net::HttpMessage> scraped = client.Get("/metrics");
  ASSERT_TRUE(scraped.ok());
  ASSERT_EQ(scraped->status_code, 200);
  const std::string& text = scraped->body;
  for (const char* metric :
       {"# TYPE dmvi_accept_queue_high_water gauge",
        "# TYPE dmvi_trace_dropped_spans_total counter",
        "# TYPE dmvi_process_resident_bytes gauge",
        "# TYPE dmvi_process_cpu_seconds gauge",
        "# TYPE dmvi_process_open_fds gauge"}) {
    EXPECT_NE(text.find(metric), std::string::npos) << metric;
  }
  server.Stop();
}

TEST(ServingEndpointsTest, LatencyHistogramCarriesRequestIdExemplars) {
  ServedCase served;
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, served.Context());
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());

  net::HttpMessage impute;
  impute.method = "POST";
  impute.target = "/v1/impute";
  impute.body = R"({"model": "default",
                    "query": {"row": 0, "t_start": 5, "block_len": 3}})";
  impute.SetHeader("content-type", "application/json");
  impute.SetHeader("x-request-id", "exemplar-7");
  ASSERT_EQ(client.RoundTrip(impute)->status_code, 200);

  StatusOr<net::HttpMessage> scraped = client.Get("/metrics");
  ASSERT_TRUE(scraped.ok());
  // The latency bucket the request landed in cites it by id, OpenMetrics
  // exemplar syntax: `... } <count> # {request_id="exemplar-7"} <value>`.
  EXPECT_NE(scraped->body.find("# {request_id=\"exemplar-7\"}"),
            std::string::npos)
      << scraped->body;
  server.Stop();
}

TEST(ServingEndpointsTest, MalformedImputeBodyIs400WithStatusMessage) {
  ServedCase served;
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, served.Context());
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());

  StatusOr<net::HttpMessage> bad_json =
      client.Post("/v1/impute", "{oops", "application/json");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json->status_code, 400);
  EXPECT_NE(bad_json->body.find("JSON parse error"), std::string::npos);

  StatusOr<net::HttpMessage> bad_model = client.Post(
      "/v1/impute", R"({"model": "ghost"})", "application/json");
  ASSERT_TRUE(bad_model.ok());
  EXPECT_EQ(bad_model->status_code, 404);
  EXPECT_NE(bad_model->body.find("ghost"), std::string::npos);
  server.Stop();
}

TEST(ServingEndpointsTest, OutOfRangeQueryIs400NamingTheField) {
  // The served dataset is 5 x 120. Each out-of-range query used to be
  // answered 200 "ok" with the base mask's cells, as if nothing were
  // hidden; now each is a 400 naming its field.
  ServedCase served;
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, served.Context());
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());
  const int num_series = served.data_case.data.num_series();
  const int num_times = served.data_case.data.num_times();
  ASSERT_EQ(num_series, 5);
  ASSERT_EQ(num_times, 120);
  auto body = [](const serve::WorkloadQuery& q, const char* extra = "") {
    return "{\"query\": {\"row\": " + std::to_string(q.row) +
           ", \"t_start\": " + std::to_string(q.t_start) +
           ", \"block_len\": " + std::to_string(q.block_len) + "}" + extra +
           "}";
  };
  struct Case {
    serve::WorkloadQuery query;
    const char* field;
  };
  for (const Case& c : {Case{{99, 5, 4}, "query.row"},
                        Case{{num_series, 5, 4}, "query.row"},
                        Case{{1, 100000, 4}, "query.t_start"},
                        Case{{1, num_times, 1}, "query.t_start"},
                        Case{{1, num_times - 3, 4}, "query.block_len"},
                        Case{{1, 10, INT32_MAX}, "query.block_len"}}) {
    StatusOr<net::HttpMessage> response =
        client.Post("/v1/impute", body(c.query), "application/json");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status_code, 400) << body(c.query);
    EXPECT_NE(response->body.find(c.field), std::string::npos)
        << body(c.query) << " -> " << response->body;
  }

  // In-range queries at the last row and the series end keep their bytes:
  // the cells equal the in-process answer's encoding, and the CSV equals
  // WriteDataTensor's.
  const serve::WorkloadQuery edge{num_series - 1, num_times - 4, 4};
  serve::ImputationResponse direct = served.service.Impute(
      serve::MakeQueryRequest("default", served.shared_data,
                              served.data_case.mask, edge));
  ASSERT_TRUE(direct.status.ok()) << direct.status.ToString();
  const std::string expected = net::EncodeImputedJson(
      direct, serve::ApplyQuery(served.data_case.mask, edge));
  StatusOr<net::HttpMessage> json =
      client.Post("/v1/impute", body(edge), "application/json");
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  ASSERT_EQ(json->status_code, 200) << json->body;
  const size_t cells_at = expected.find("\"cells\": [");
  ASSERT_NE(cells_at, std::string::npos);
  ASSERT_NE(json->body.find("\"cells\": ["), std::string::npos);
  EXPECT_EQ(json->body.substr(json->body.find("\"cells\": [")),
            expected.substr(cells_at));
  const std::string path = TempPath("net_edge_query.csv");
  ASSERT_TRUE(WriteDataTensor(DataTensor(served.shared_data->dims(),
                                         direct.imputed),
                              path)
                  .ok());
  std::ifstream in(path, std::ios::binary);
  const std::string reference((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  StatusOr<net::HttpMessage> csv = client.Post(
      "/v1/impute", body(edge, R"(, "format": "csv")"), "application/json");
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  ASSERT_EQ(csv->status_code, 200) << csv->body;
  EXPECT_EQ(csv->body, reference);
  server.Stop();
}

TEST(ServingEndpointsTest, CacheOnAndOffServeIdenticalBytesOverLoopback) {
  // Two services over two servers: one cached, one not. Replies must be
  // byte-identical (the cache may change latency, never bytes), and the
  // cached service must record hits on repeats.
  serve::ServiceConfig cached_config;
  cached_config.cache_mb = 8.0;
  ServedCase cached(cached_config);
  ServedCase uncached;

  net::HttpServer cached_server, uncached_server;
  net::RegisterServingEndpoints(&cached_server, cached.Context());
  net::RegisterServingEndpoints(&uncached_server, uncached.Context());
  ASSERT_TRUE(cached_server.Start().ok());
  ASSERT_TRUE(uncached_server.Start().ok());
  net::Client cached_client("127.0.0.1", cached_server.port());
  net::Client uncached_client("127.0.0.1", uncached_server.port());

  const std::string body =
      R"({"query": {"row": 1, "t_start": 10, "block_len": 6}})";
  std::string first_body;
  for (int round = 0; round < 3; ++round) {
    StatusOr<net::HttpMessage> hot =
        cached_client.Post("/v1/impute", body, "application/json");
    StatusOr<net::HttpMessage> cold =
        uncached_client.Post("/v1/impute", body, "application/json");
    ASSERT_TRUE(hot.ok() && cold.ok());
    ASSERT_EQ(hot->status_code, 200);
    // Identical modulo the latency line, which is timing, not payload:
    // compare the cells arrays.
    auto cells = [](const std::string& text) {
      const size_t at = text.find("\"cells\"");
      return text.substr(at);
    };
    EXPECT_EQ(cells(hot->body), cells(cold->body)) << "round " << round;
    if (round == 0) {
      first_body = cells(hot->body);
    } else {
      EXPECT_EQ(cells(hot->body), first_body);
    }
  }
  obs::MetricsRegistry& metrics = cached.service.metrics();
  EXPECT_EQ(metrics.CounterNamed("dmvi_cache_misses_total", "")->value(), 1);
  EXPECT_EQ(metrics.CounterNamed("dmvi_cache_hits_total", "")->value(), 2);
  ASSERT_NE(cached.service.response_cache(), nullptr);
  EXPECT_EQ(cached.service.response_cache()->stats().hits, 2);
  EXPECT_EQ(uncached.service.response_cache(), nullptr);
  EXPECT_EQ(uncached.service.metrics()
                .CounterNamed("dmvi_cache_hits_total", "")
                ->value(),
            0);

  cached_server.Stop();
  uncached_server.Stop();
}

TEST(ServingEndpointsTest, HealthzReportsInFlightAndLadderState) {
  // Ladder off (both watermarks 0): /healthz says so and still reports
  // the pressure signals.
  ServedCase off;
  net::HttpServer off_server;
  net::RegisterServingEndpoints(&off_server, off.Context());
  ASSERT_TRUE(off_server.Start().ok());
  net::Client off_client("127.0.0.1", off_server.port());
  StatusOr<net::HttpMessage> health = off_client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  ASSERT_EQ(health->status_code, 200);
  StatusOr<net::JsonValue> doc = net::ParseJson(health->body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->at("degradation").string_value(), "off");
  EXPECT_EQ(doc->at("degrade_watermark").number_value(), 0.0);
  EXPECT_EQ(doc->at("shed_watermark").number_value(), 0.0);
  EXPECT_EQ(doc->at("in_flight").number_value(), 0.0);
  EXPECT_FALSE(doc->at("pending_connections").is_null());
  off_server.Stop();

  // Ladder configured but idle: state is "ready" and the watermarks are
  // surfaced for operators.
  serve::ServiceConfig ladder_config;
  ladder_config.degrade_watermark = 3;
  ladder_config.shed_watermark = 6;
  ServedCase ladder(ladder_config);
  net::HttpServer ladder_server;
  net::RegisterServingEndpoints(&ladder_server, ladder.Context());
  ASSERT_TRUE(ladder_server.Start().ok());
  net::Client ladder_client("127.0.0.1", ladder_server.port());
  StatusOr<net::HttpMessage> ready = ladder_client.Get("/healthz");
  ASSERT_TRUE(ready.ok());
  StatusOr<net::JsonValue> ready_doc = net::ParseJson(ready->body);
  ASSERT_TRUE(ready_doc.ok());
  EXPECT_EQ(ready_doc->at("degradation").string_value(), "ready");
  EXPECT_EQ(ready_doc->at("degrade_watermark").number_value(), 3.0);
  EXPECT_EQ(ready_doc->at("shed_watermark").number_value(), 6.0);
  ladder_server.Stop();
}

TEST(ServingEndpointsTest, DegradedResponsesCarryMarkerInJsonCsvAndMetrics) {
  // Pressure pinned above the degrade watermark: every wire response must
  // be the fallback imputer's bits plus an explicit marker — JSON in the
  // body and header, CSV via the header only (its body format is fixed).
  serve::ServiceConfig config;
  config.degrade_watermark = 1;
  ServedCase served(config);
  served.service.SetPressureProbe([] { return 10; });
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, served.Context());
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());

  serve::WorkloadQuery query;
  query.row = 1;
  query.t_start = 10;
  query.block_len = 6;
  const std::string body =
      R"({"query": {"row": 1, "t_start": 10, "block_len": 6}})";
  StatusOr<net::HttpMessage> json =
      client.Post("/v1/impute", body, "application/json");
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  ASSERT_EQ(json->status_code, 200) << json->body;
  EXPECT_EQ(json->Header("x-dmvi-degraded"), "LinearInterp");
  StatusOr<net::JsonValue> doc = net::ParseJson(json->body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->at("status").string_value(), "degraded");
  EXPECT_TRUE(doc->at("degraded").bool_value());
  EXPECT_EQ(doc->at("degrade_method").string_value(), "LinearInterp");

  // The degraded cells are the fallback's, bit for bit across the wire.
  const Mask applied = serve::ApplyQuery(served.data_case.mask, query);
  LinearInterpolationImputer fallback;
  const Matrix expected = fallback.Impute(served.data_case.data, applied);
  ASSERT_EQ(doc->at("cells").array_items().size(),
            static_cast<size_t>(applied.CountMissing()));
  for (const net::JsonValue& cell : doc->at("cells").array_items()) {
    const int r = static_cast<int>(cell.at("series").number_value());
    const int t = static_cast<int>(cell.at("time").number_value());
    EXPECT_EQ(cell.at("value").number_value(), expected(r, t))
        << "cell (" << r << "," << t << ")";
  }

  StatusOr<net::HttpMessage> csv = client.Post(
      "/v1/impute", R"({"format": "csv"})", "application/json");
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  ASSERT_EQ(csv->status_code, 200) << csv->body;
  EXPECT_EQ(csv->Header("content-type"), "text/csv");
  EXPECT_EQ(csv->Header("x-dmvi-degraded"), "LinearInterp");
  EXPECT_EQ(csv->body.find("degraded"), std::string::npos)
      << "CSV body format must not change under degradation";

  // The Prometheus exposition counts both degraded answers, once each.
  StatusOr<net::HttpMessage> prom = client.Get("/metrics");
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->body.find("# TYPE dmvi_degraded_total counter"),
            std::string::npos)
      << prom->body;
  EXPECT_EQ(obs::PrometheusValue(prom->body, "dmvi_degraded_total"), 2.0);
  EXPECT_EQ(obs::PrometheusValue(prom->body, "dmvi_requests_total"), 2.0);
  EXPECT_EQ(obs::PrometheusValue(prom->body, "dmvi_shed_total"), 0.0);
  ExpectServingFamiliesOnce(prom->body);
  server.Stop();
}

TEST(HttpServerTest, StopFinishesInFlightRequestsBeforeExiting) {
  net::HttpServer server;
  std::atomic<bool> handler_entered{false};
  server.Handle("GET", "/slow", [&](const net::HttpMessage&) {
    handler_entered = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return net::MakeResponse(200, "done late", "text/plain");
  });
  ASSERT_TRUE(server.Start().ok());

  StatusOr<net::HttpMessage> response = Status::Internal("not run");
  std::thread requester([&] {
    net::Client client("127.0.0.1", server.port());
    response = client.Get("/slow");
  });
  while (!handler_entered) std::this_thread::sleep_for(
      std::chrono::milliseconds(5));
  server.Stop();  // Must wait for the in-flight /slow, not cut it off.
  requester.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(response->body, "done late");
}

// ---- Observability: request ids, spans, bit-identity ------------------------

TEST(HttpServerTest, EveryResponseCarriesARequestId) {
  net::HttpServer server;
  server.Handle("GET", "/ping", [](const net::HttpMessage& request) {
    // Handlers see the id too (the server stamps it onto the request).
    net::HttpMessage response =
        net::MakeResponse(200, request.Header("x-request-id"), "text/plain");
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());

  // Client-supplied id is honored and echoed.
  net::HttpMessage request;
  request.method = "GET";
  request.target = "/ping";
  request.SetHeader("x-request-id", "client-id-1");
  StatusOr<net::HttpMessage> supplied = client.RoundTrip(request);
  ASSERT_TRUE(supplied.ok());
  EXPECT_EQ(supplied->Header("x-dmvi-request-id"), "client-id-1");
  EXPECT_EQ(supplied->body, "client-id-1");

  // Without one the server mints req-<n>, distinct per request.
  StatusOr<net::HttpMessage> first = client.Get("/ping");
  StatusOr<net::HttpMessage> second = client.Get("/ping");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->Header("x-dmvi-request-id").rfind("req-", 0), 0u);
  EXPECT_NE(first->Header("x-dmvi-request-id"),
            second->Header("x-dmvi-request-id"));
  server.Stop();
}

TEST(HttpServerTest, RequestSpanFamilyCoversTheWholeRequestPath) {
  obs::CollectingTraceSink sink;
  obs::Tracer tracer(&sink);
  obs::MetricsRegistry metrics;

  serve::ServiceConfig service_config;
  service_config.metrics = &metrics;
  ServedCase served(service_config);
  net::ServerConfig server_config;
  server_config.metrics = &metrics;
  net::HttpServer server(server_config);
  net::RegisterServingEndpoints(&server, served.Context());
  {
    ScopedProcessTracer traced(&tracer);
    ASSERT_TRUE(server.Start().ok());
    net::Client client("127.0.0.1", server.port());

    net::HttpMessage request;
    request.method = "POST";
    request.target = "/v1/impute";
    request.body = "{\"model\": \"default\"}";
    request.SetHeader("content-type", "application/json");
    request.SetHeader("x-request-id", "traced-1");
    ASSERT_EQ(client.RoundTrip(request)->status_code, 200);
    server.Stop();
  }

  // Expected family: one root http.request with read/handle/write
  // children, and the handler chain (decode, service.process with
  // model.predict inside, encode) all under http.handle — one connected
  // trace stamped with the request id.
  std::vector<obs::SpanRecord> records = sink.records();
  std::map<std::string, obs::SpanRecord> by_name;
  for (const obs::SpanRecord& record : records) {
    if (record.request_id == "traced-1" || record.name == "model.predict") {
      by_name[record.name] = record;
    }
  }
  for (const char* name :
       {"http.request", "http.read", "http.handle", "http.write",
        "impute.decode", "service.process", "model.predict",
        "impute.encode"}) {
    EXPECT_TRUE(by_name.count(name)) << "missing span " << name;
  }
  const obs::SpanRecord& root = by_name.at("http.request");
  EXPECT_EQ(root.parent_span_id, 0u);
  for (const auto& [name, record] : by_name) {
    EXPECT_EQ(record.trace_id, root.trace_id) << name;
  }
  const uint64_t handle_id = by_name.at("http.handle").span_id;
  EXPECT_EQ(by_name.at("http.read").parent_span_id, root.span_id);
  EXPECT_EQ(by_name.at("http.write").parent_span_id, root.span_id);
  EXPECT_EQ(by_name.at("impute.decode").parent_span_id, handle_id);
  EXPECT_EQ(by_name.at("service.process").parent_span_id, handle_id);
  EXPECT_EQ(by_name.at("model.predict").parent_span_id,
            by_name.at("service.process").span_id);
  // No thread hop: the service imputes on the HTTP worker.
  EXPECT_EQ(by_name.at("service.process").thread_index,
            by_name.at("http.handle").thread_index);

  // The shared registry saw the HTTP counter and stage histograms.
  EXPECT_GE(metrics.CounterNamed("dmvi_http_requests_total", "")->value(), 1);
  EXPECT_GT(metrics.HistogramNamed("dmvi_stage_http_handle_seconds", "")
                ->Snapshot()
                .count,
            0);
}

TEST(ServingEndpointsTest, TracingDoesNotChangeServedBytes) {
  // Serve the identical base-mask imputation twice — once plain, once with
  // a process tracer installed and metrics wired through server and
  // service — and compare the response bodies byte for byte (the same bar
  // CI enforces with cmp on the loadgen CSV).
  auto fetch = [](bool traced, std::string* csv_body, std::string* json_body) {
    obs::CollectingTraceSink sink;
    obs::Tracer tracer(&sink, obs::TraceLevel::kKernel);
    obs::MetricsRegistry metrics;

    serve::ServiceConfig service_config;
    if (traced) service_config.metrics = &metrics;
    ServedCase served(service_config);
    net::ServerConfig server_config;
    if (traced) server_config.metrics = &metrics;
    net::HttpServer server(server_config);
    net::RegisterServingEndpoints(&server, served.Context());
    ScopedProcessTracer scoped(traced ? &tracer : nullptr);
    ASSERT_TRUE(server.Start().ok());
    net::Client client("127.0.0.1", server.port());
    StatusOr<net::HttpMessage> csv = client.Post(
        "/v1/impute", "{\"model\": \"default\"}", "application/json",
        "text/csv");
    ASSERT_TRUE(csv.ok());
    ASSERT_EQ(csv->status_code, 200);
    *csv_body = csv->body;
    StatusOr<net::HttpMessage> json = client.Post(
        "/v1/impute", "{\"model\": \"default\"}", "application/json");
    ASSERT_TRUE(json.ok());
    ASSERT_EQ(json->status_code, 200);
    *json_body = json->body;
    server.Stop();
    if (traced) {
      EXPECT_FALSE(sink.records().empty());
    }
  };

  std::string plain_csv, plain_json, traced_csv, traced_json;
  fetch(false, &plain_csv, &plain_json);
  fetch(true, &traced_csv, &traced_json);
  EXPECT_EQ(plain_csv, traced_csv) << "tracing changed CSV response bytes";
  // The JSON body embeds latency_seconds — a wall-clock reading that
  // differs between any two runs regardless of tracing. Strip that one
  // line; every other byte (every imputed value) must match exactly.
  auto without_latency_line = [](std::string body) {
    const size_t at = body.find("\"latency_seconds\"");
    if (at == std::string::npos) return body;
    const size_t line_start = body.rfind('\n', at) + 1;
    const size_t line_end = body.find('\n', at);
    body.erase(line_start, line_end - line_start + 1);
    return body;
  };
  EXPECT_EQ(without_latency_line(plain_json),
            without_latency_line(traced_json))
      << "tracing changed JSON response bytes";
}

// ---- Model-quality endpoints ------------------------------------------------

/// Inline-values /v1/impute body for `values` at precision 17, with one
/// null cell so there is something to impute.
std::string InlineBody(const Matrix& values) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"model\": \"default\", \"values\": [";
  for (int r = 0; r < values.rows(); ++r) {
    os << (r == 0 ? "[" : ", [");
    for (int t = 0; t < values.cols(); ++t) {
      if (t > 0) os << ", ";
      if (r == 0 && t == 0) {
        os << "null";
      } else {
        os << values(r, t);
      }
    }
    os << "]";
  }
  os << "]}";
  return os.str();
}

TEST(ServingEndpointsTest, QualityEndpointsScoreDriftAcrossTheStack) {
  serve::QualityMonitor monitor;
  serve::ServiceConfig service_config;
  service_config.quality = &monitor;
  ServedCase served(service_config);
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, served.Context());
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());

  // No traffic yet: the monitor exists but holds no model state, so the
  // health rung reports the absence of a scored reference, not a fault.
  StatusOr<net::HttpMessage> health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  StatusOr<net::JsonValue> health_doc = net::ParseJson(health->body);
  ASSERT_TRUE(health_doc.ok()) << health->body;
  EXPECT_EQ(health_doc->at("quality").string_value(), "no-reference");
  EXPECT_DOUBLE_EQ(health_doc->at("drift_threshold").number_value(), 0.2);

  // Matched traffic: a query-mode request observes the served dataset —
  // the very distribution the reference profile was trained on.
  net::HttpMessage impute;
  impute.method = "POST";
  impute.target = "/v1/impute";
  impute.body = R"({"model": "default",
                    "query": {"row": 1, "t_start": 10, "block_len": 4}})";
  impute.SetHeader("content-type", "application/json");
  ASSERT_EQ(client.RoundTrip(impute)->status_code, 200);

  health_doc = net::ParseJson(client.Get("/healthz")->body);
  ASSERT_TRUE(health_doc.ok());
  EXPECT_EQ(health_doc->at("quality").string_value(), "ok");

  StatusOr<net::HttpMessage> quality = client.Get("/debug/quality");
  ASSERT_TRUE(quality.ok());
  ASSERT_EQ(quality->status_code, 200);
  EXPECT_EQ(quality->Header("content-type"), "application/json");
  StatusOr<net::JsonValue> doc = net::ParseJson(quality->body);
  ASSERT_TRUE(doc.ok()) << quality->body;
  EXPECT_EQ(doc->at("quality").string_value(), "ok");
  ASSERT_EQ(doc->at("models").array_items().size(), 1u);
  {
    const net::JsonValue& model = doc->at("models").array_items()[0];
    EXPECT_EQ(model.at("model").string_value(), "default");
    EXPECT_EQ(model.at("status").string_value(), "ok");
    EXPECT_TRUE(model.at("has_reference").bool_value());
    EXPECT_EQ(model.at("requests_observed").number_value(), 1);
    EXPECT_LT(model.at("drift_score").number_value(), 0.1);
    EXPECT_EQ(model.at("series").array_items().size(), 5u);
    const net::JsonValue& series = model.at("series").array_items()[0];
    EXPECT_TRUE(series.at("scored").bool_value());
    EXPECT_GE(series.at("live_count").number_value(), 50);
    EXPECT_TRUE(model.at("selfscore").at("history").is_array());
  }
  // The drift gauge and missing-rate gauge are exported once scored.
  StatusOr<net::HttpMessage> metrics_text = client.Get("/metrics");
  ASSERT_TRUE(metrics_text.ok());
  EXPECT_NE(metrics_text->body.find("dmvi_model_drift_score"),
            std::string::npos);
  EXPECT_NE(metrics_text->body.find("dmvi_model_input_missing_rate"),
            std::string::npos);
  EXPECT_NE(metrics_text->body.find("dmvi_model_reloads_total 0"),
            std::string::npos);
  EXPECT_NE(metrics_text->body.find("dmvi_model_age_seconds"),
            std::string::npos);

  // Drifted traffic: inline-values requests carrying a 3-sigma sensor
  // drift shift the live bins past the threshold; the rung flips.
  ScenarioConfig drift;
  drift.kind = ScenarioKind::kDrift;
  drift.percent_incomplete = 1.0;
  drift.drift_rate = 3.0;
  const Matrix shifted =
      ApplyScenarioTransform(drift, served.data_case.data.values());
  const std::string drifted_body = InlineBody(shifted);
  for (int i = 0; i < 3; ++i) {
    net::HttpMessage inline_request;
    inline_request.method = "POST";
    inline_request.target = "/v1/impute";
    inline_request.body = drifted_body;
    inline_request.SetHeader("content-type", "application/json");
    ASSERT_EQ(client.RoundTrip(inline_request)->status_code, 200);
  }
  doc = net::ParseJson(client.Get("/debug/quality")->body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->at("quality").string_value(), "drifting");
  EXPECT_GT(doc->at("models").array_items()[0].at("drift_score")
                .number_value(),
            0.2);
  health_doc = net::ParseJson(client.Get("/healthz")->body);
  ASSERT_TRUE(health_doc.ok());
  EXPECT_EQ(health_doc->at("quality").string_value(), "drifting");
  server.Stop();
}

TEST(ServingEndpointsTest, QualityEndpointsWithoutMonitor) {
  ServedCase served;
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, served.Context());
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());
  StatusOr<net::HttpMessage> quality = client.Get("/debug/quality");
  ASSERT_TRUE(quality.ok());
  EXPECT_EQ(quality->status_code, 503);
  StatusOr<net::JsonValue> health_doc =
      net::ParseJson(client.Get("/healthz")->body);
  ASSERT_TRUE(health_doc.ok());
  EXPECT_EQ(health_doc->at("quality").string_value(), "off");
  // /debug/state carries the reload accounting with or without a monitor.
  StatusOr<net::JsonValue> state_doc =
      net::ParseJson(client.Get("/debug/state")->body);
  ASSERT_TRUE(state_doc.ok());
  EXPECT_EQ(state_doc->at("model_registrations").number_value(), 1);
  EXPECT_EQ(state_doc->at("model_reloads").number_value(), 0);
  EXPECT_EQ(state_doc->at("last_registered_model").string_value(),
            "default");
  EXPECT_GE(state_doc->at("model_age_seconds").number_value(), 0.0);
  server.Stop();
}

TEST(ServingEndpointsTest, RoutesReadRecorderAndMonitorFromTheService) {
  // The recorder and the monitor are wired into the service alone; a
  // context that holds nothing but the service still serves them.
  obs::FlightRecorder recorder(/*capacity=*/8,
                               /*slow_threshold_seconds=*/1e-9);
  serve::QualityMonitor monitor;
  serve::ServiceConfig service_config;
  service_config.recorder = &recorder;
  service_config.quality = &monitor;
  ServedCase served(service_config);
  net::ServingContext ctx;
  ctx.service = &served.service;
  net::HttpServer server;
  net::RegisterServingEndpoints(&server, ctx);
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());

  // Without a served dataset the request carries its own values.
  net::HttpMessage impute;
  impute.method = "POST";
  impute.target = "/v1/impute";
  impute.body = InlineBody(served.data_case.data.values());
  impute.SetHeader("content-type", "application/json");
  impute.SetHeader("x-request-id", "service-hooks-0");
  ASSERT_EQ(client.RoundTrip(impute)->status_code, 200);

  StatusOr<net::JsonValue> health_doc =
      net::ParseJson(client.Get("/healthz")->body);
  ASSERT_TRUE(health_doc.ok());
  EXPECT_NE(health_doc->at("quality").string_value(), "off");
  for (const char* path : {"/debug/requests", "/debug/slow"}) {
    StatusOr<net::HttpMessage> response = client.Get(path);
    ASSERT_TRUE(response.ok()) << path;
    ASSERT_EQ(response->status_code, 200) << path << " " << response->body;
    StatusOr<net::JsonValue> doc = net::ParseJson(response->body);
    ASSERT_TRUE(doc.ok()) << response->body;
    ASSERT_EQ(doc->at("records").array_items().size(), 1u) << path;
    EXPECT_EQ(doc->at("records").array_items()[0].at("request_id")
                  .string_value(),
              "service-hooks-0")
        << path;
  }
  StatusOr<net::HttpMessage> quality = client.Get("/debug/quality");
  ASSERT_TRUE(quality.ok());
  ASSERT_EQ(quality->status_code, 200) << quality->body;
  StatusOr<net::JsonValue> quality_doc = net::ParseJson(quality->body);
  ASSERT_TRUE(quality_doc.ok()) << quality->body;
  ASSERT_EQ(quality_doc->at("models").array_items().size(), 1u);
  EXPECT_EQ(quality_doc->at("models").array_items()[0]
                .at("requests_observed")
                .number_value(),
            1);
  server.Stop();
}

}  // namespace
}  // namespace deepmvi
