#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <exception>

#include "common/parallel.h"
#include "net/codec.h"
#include "net/fault.h"
#include "obs/trace.h"

namespace deepmvi {
namespace net {
namespace {

/// recv() flavors differ in how they suppress SIGPIPE; sends use
/// MSG_NOSIGNAL where available and a process-wide ignore as fallback.
#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

void IgnoreSigpipeOnce() {
#ifndef MSG_NOSIGNAL
  static const bool ignored = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)ignored;
#endif
}

/// Poll granularity for blocking reads: short enough that Stop() is
/// observed promptly, long enough to stay off the hot path.
constexpr double kReadPollSeconds = 0.2;

void SetRecvTimeout(int fd, double seconds) {
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

Status ParseHostPort(const std::string& address, std::string* host,
                     int* port) {
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("expected HOST:PORT, got '" + address + "'");
  }
  const std::string port_text = address.substr(colon + 1);
  char* end = nullptr;
  const long value = std::strtol(port_text.c_str(), &end, 10);
  if (port_text.empty() || end == nullptr || *end != '\0' || value < 0 ||
      value > 65535) {
    return Status::InvalidArgument("malformed port in '" + address + "'");
  }
  *host = address.substr(0, colon);
  if (host->empty()) *host = "0.0.0.0";
  *port = static_cast<int>(value);
  return Status::OK();
}

HttpServer::HttpServer(ServerConfig config) : config_(std::move(config)) {
  if (config_.metrics != nullptr) {
    http_requests_total_ = config_.metrics->CounterNamed(
        "dmvi_http_requests_total",
        "HTTP responses written, error responses included.");
    stage_read_ = config_.metrics->HistogramNamed(
        "dmvi_stage_http_read_seconds",
        "First byte to fully parsed request, per request.");
    stage_handle_ = config_.metrics->HistogramNamed(
        "dmvi_stage_http_handle_seconds",
        "Handler dispatch time per request (routing included).");
    stage_write_ = config_.metrics->HistogramNamed(
        "dmvi_stage_http_write_seconds",
        "Response serialization and socket write time per request.");
  }
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(const std::string& method, const std::string& path,
                        Handler handler) {
  handlers_[{method, path}] = std::move(handler);
}

std::string HttpServer::address() const {
  return config_.host + ":" + std::to_string(port_);
}

Status HttpServer::Start() {
  DMVI_CHECK(!running_) << "HttpServer::Start called twice";
  IgnoreSigpipeOnce();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("cannot parse IPv4 address '" +
                                   config_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind " + config_.host + ":" +
                           std::to_string(config_.port) + ": " + error);
  }
  if (::listen(listen_fd_, config_.max_pending_connections) != 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen: " + error);
  }

  // Resolve the actual port (meaningful when config asked for port 0).
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = config_.port;
  }

  stopping_ = false;
  running_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  // The whole worker pool is one ParallelFor region: iteration i *is*
  // worker i's service loop, so connection handling runs on the same
  // persistent pool substrate as training fan-out. Per-connection errors
  // are caught inside WorkerLoop; anything escaping here is a bug and
  // ParallelFor's rethrow turns it into a loud failure.
  const int workers = std::max(1, config_.num_workers);
  pool_thread_ = std::thread([this, workers] {
    ParallelFor(workers, workers, [this](int) { WorkerLoop(); });
  });
  return Status::OK();
}

void HttpServer::AcceptLoop() {
  for (;;) {
    {
      // Backpressure: hold off accepting while the pending queue is full.
      MutexLock lock(&queue_mutex_);
      while (!stopping_ && static_cast<int>(pending_.size()) >=
                               config_.max_pending_connections) {
        backpressure_cv_.Wait(&queue_mutex_);
      }
      if (stopping_) return;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // Listen socket closed or broken: accepting is over.
    }
    {
      MutexLock lock(&queue_mutex_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      pending_.push_back(fd);
      if (static_cast<int>(pending_.size()) > pending_high_water_) {
        pending_high_water_ = static_cast<int>(pending_.size());
      }
    }
    queue_cv_.Signal();
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      MutexLock lock(&queue_mutex_);
      while (!stopping_ && pending_.empty()) queue_cv_.Wait(&queue_mutex_);
      if (pending_.empty()) return;  // stopping_ and nothing left to serve.
      fd = pending_.front();
      pending_.pop_front();
    }
    backpressure_cv_.Signal();
    try {
      ServeConnection(fd);
    } catch (const std::exception&) {
      // Connection-scoped failure; the worker lives on.
    }
    ::close(fd);
  }
}

int HttpServer::pending_connections() const {
  MutexLock lock(&queue_mutex_);
  return static_cast<int>(pending_.size());
}

int HttpServer::accept_queue_high_water() const {
  MutexLock lock(&queue_mutex_);
  return pending_high_water_;
}

bool HttpServer::WriteAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = FaultySend(config_.fault.get(), fd, bytes.data() + sent,
                                 bytes.size() - sent, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string HttpServer::RequestIdFor(const HttpMessage& request) {
  const std::string& supplied = request.Header("x-request-id");
  if (!supplied.empty()) return supplied;
  return "req-" + std::to_string(
                      next_request_number_.fetch_add(1,
                                                     std::memory_order_relaxed));
}

HttpMessage HttpServer::Dispatch(const HttpMessage& request) {
  // Route on the path alone so query parameters select behavior inside a
  // handler, never which handler answers.
  const std::string path = TargetPath(request.target);
  const auto it = handlers_.find({request.method, path});
  if (it == handlers_.end()) {
    // Same path under another method is 405, unknown path 404.
    for (const auto& [key, handler] : handlers_) {
      if (key.second == path) {
        return MakeResponse(
            405, EncodeErrorJson(Status::InvalidArgument(
                     "method " + request.method + " not allowed for " +
                     request.target)),
            "application/json");
      }
    }
    return MakeResponse(404,
                        EncodeErrorJson(Status::NotFound(
                            "no handler for " + request.target)),
                        "application/json");
  }
  try {
    return it->second(request);
  } catch (const std::exception& e) {
    return MakeResponse(500, EncodeErrorJson(Status::Internal(e.what())),
                        "application/json");
  }
}

void HttpServer::ServeConnection(int fd) {
  const int tcp_nodelay = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &tcp_nodelay, sizeof(tcp_nodelay));
  SetRecvTimeout(fd, kReadPollSeconds);

  HttpParser parser(HttpParser::Mode::kRequest, config_.limits);
  char buffer[8192];
  double idle_seconds = 0.0;
  obs::Tracer* tracer = obs::GlobalTracer();
  const bool traced = tracer != nullptr && tracer->enabled();
  // Read-stage timing opens at the first byte of each message, not at the
  // recv loop — idle keep-alive time is not read time.
  Stopwatch read_watch;
  double trace_read_start = 0.0;
  bool message_open = false;
  for (;;) {
    const ssize_t n =
        FaultyRecv(config_.fault.get(), fd, buffer, sizeof(buffer));
    if (n == 0) return;  // Peer closed.
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Poll tick: leave promptly on shutdown, eventually on idleness.
        // A read mid-message counts as idle too — a stalled sender should
        // not pin a worker forever.
        if (stopping_) return;
        idle_seconds += kReadPollSeconds;
        if (idle_seconds >= config_.idle_timeout_seconds) return;
        continue;
      }
      return;  // Connection error.
    }
    idle_seconds = 0.0;

    size_t offset = 0;
    while (offset < static_cast<size_t>(n)) {
      if (!message_open) {
        message_open = true;
        read_watch.Reset();
        if (traced) trace_read_start = tracer->Now();
      }
      offset += parser.Feed(buffer + offset, static_cast<size_t>(n) - offset);
      if (parser.failed()) {
        // Framing is gone; answer and close.
        HttpMessage error = MakeResponse(
            parser.error_code(),
            EncodeErrorJson(Status::InvalidArgument(parser.error_message())),
            "application/json");
        error.SetHeader("connection", "close");
        // Count before writing: once the peer can observe the response,
        // the counter must already cover it.
        ++requests_served_;
        if (http_requests_total_ != nullptr) http_requests_total_->Increment();
        WriteAll(fd, SerializeResponse(error));
        return;
      }
      if (!parser.done()) continue;

      const bool keep_alive = WantsKeepAlive(parser.message()) && !stopping_;
      const std::string request_id = RequestIdFor(parser.message());
      // Stamp the resolved id back onto the request so handlers see one
      // authoritative value whether or not the client supplied it.
      parser.mutable_message().SetHeader("x-request-id", request_id);
      if (stage_read_ != nullptr) {
        stage_read_->Observe(read_watch.ElapsedSeconds());
      }
      obs::SpanContext root;
      if (traced) {
        root.trace_id = tracer->NewId();
        root.span_id = tracer->NewId();
        obs::SpanContext read_ctx;
        read_ctx.trace_id = root.trace_id;
        read_ctx.span_id = tracer->NewId();
        tracer->RecordSpan("http.read", read_ctx, root.span_id,
                           trace_read_start,
                           tracer->Now() - trace_read_start, request_id);
      }

      Stopwatch handle_watch;
      HttpMessage response;
      {
        // Live scope: the handler's spans (decode, service.process,
        // encode) run on this thread and nest under it.
        obs::Span handle_span(traced ? tracer : nullptr, "http.handle", root);
        if (handle_span.active()) handle_span.set_request_id(request_id);
        response = Dispatch(parser.message());
      }
      if (stage_handle_ != nullptr) {
        stage_handle_->Observe(handle_watch.ElapsedSeconds());
      }
      response.SetHeader("connection", keep_alive ? "keep-alive" : "close");
      response.SetHeader("x-dmvi-request-id", request_id);
      ++requests_served_;
      if (http_requests_total_ != nullptr) http_requests_total_->Increment();

      Stopwatch write_watch;
      const double trace_write_start = traced ? tracer->Now() : 0.0;
      const bool wrote = WriteAll(fd, SerializeResponse(response));
      if (stage_write_ != nullptr) {
        stage_write_->Observe(write_watch.ElapsedSeconds());
      }
      if (traced) {
        obs::SpanContext write_ctx;
        write_ctx.trace_id = root.trace_id;
        write_ctx.span_id = tracer->NewId();
        tracer->RecordSpan("http.write", write_ctx, root.span_id,
                           trace_write_start,
                           tracer->Now() - trace_write_start, request_id);
        tracer->RecordSpan(
            "http.request", root, 0, trace_read_start,
            tracer->Now() - trace_read_start, request_id,
            {{"method", parser.message().method},
             {"path", parser.message().target},
             {"status", std::to_string(response.status_code)}});
      }
      DMVI_SLOG(Debug)
          .Field("request_id", request_id)
          .Field("method", parser.message().method)
          .Field("path", parser.message().target)
          .Field("status", std::to_string(response.status_code))
          .stream()
          << "http request served";
      if (!wrote) return;
      if (!keep_alive) return;
      parser.Reset();
      message_open = false;
    }
  }
}

void HttpServer::Stop() {
  if (!running_) return;
  stopping_ = true;
  // Closing the listen socket unblocks accept(); shutdown() first for
  // platforms where close alone doesn't wake the blocked thread.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  queue_cv_.SignalAll();
  backpressure_cv_.SignalAll();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (pool_thread_.joinable()) pool_thread_.join();
  // Connections that were accepted but never claimed by a worker. Every
  // other thread has been joined, but take the lock anyway: it is cheap,
  // uncontended, and keeps the guarded-field discipline uniform.
  {
    MutexLock lock(&queue_mutex_);
    for (const int fd : pending_) ::close(fd);
    pending_.clear();
  }
  running_ = false;
}

}  // namespace net
}  // namespace deepmvi
