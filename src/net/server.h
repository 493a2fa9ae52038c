#ifndef DEEPMVI_NET_SERVER_H_
#define DEEPMVI_NET_SERVER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/fault.h"
#include "net/http.h"
#include "obs/metrics.h"

namespace deepmvi {
namespace net {

/// Tuning knobs of the HTTP front-end.
struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 lets the kernel pick a free port; HttpServer::port() reports it.
  int port = 0;
  /// Connection worker threads (each serves one connection at a time).
  int num_workers = 4;
  /// Accepted connections waiting for a free worker. When the backlog is
  /// full the accept loop stops accepting — kernel-level backpressure —
  /// rather than queueing unboundedly.
  int max_pending_connections = 128;
  /// Per-message parser caps (431 / 413 beyond them).
  ParserLimits limits;
  /// A connection idle longer than this between requests is closed. Also
  /// bounds how long Stop() waits for workers blocked on idle reads.
  double idle_timeout_seconds = 30.0;
  /// Optional deterministic fault schedule (net/fault.h): every recv/send
  /// on accepted connections goes through it. Null (the default) is the
  /// plain syscalls — production pays one branch. Tests inject short
  /// reads/writes, EINTR, and mid-stream resets reproducibly.
  std::shared_ptr<FaultInjector> fault;
  /// Optional metrics registry, borrowed (must outlive the server; null
  /// disables). It receives dmvi_http_requests_total and per-stage
  /// histograms (read, handle, write). The http.request / http.read /
  /// http.handle / http.write span family, one tree per request, goes to
  /// the process tracer (obs::GlobalTracer), read once per connection.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Dependency-free HTTP/1.1 server on POSIX sockets: a listener + accept
/// thread feeding a bounded queue of connections, drained by a fixed pool
/// of connection workers that runs as one ParallelFor region over
/// src/common/parallel — the same worker-pool substrate the training and
/// batch-inference paths ride. Each worker owns one connection at a time:
/// incremental request parsing (HttpParser), exact-match routing, response
/// writing, keep-alive until the peer closes, an error, idle timeout, or
/// server shutdown.
///
/// Handlers run on worker threads and must be thread-safe; a handler that
/// throws is answered with a 500 carrying the exception message, and the
/// connection survives. Parser-level errors (oversized head/body,
/// malformed framing) are answered with their HTTP status (431/413/400/
/// 501) and the connection is closed — framing is unrecoverable.
///
/// Stop() stops accepting (the listen socket closes), lets in-flight
/// requests finish, then joins the pool. Start()/Stop() are not
/// thread-safe against each other; handlers registered after Start() are
/// not picked up.
class HttpServer {
 public:
  using Handler = std::function<HttpMessage(const HttpMessage&)>;

  explicit HttpServer(ServerConfig config = {});
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact (method, path) matches. Unknown paths
  /// are 404, known paths with a different method 405.
  void Handle(const std::string& method, const std::string& path,
              Handler handler);

  /// Binds, listens, and starts the accept loop + worker pool. IoError on
  /// bind/listen failure (address in use, bad host, privileged port) —
  /// callers exit non-zero instead of aborting.
  Status Start();

  /// Graceful shutdown: stop accepting, finish in-flight requests, join
  /// every thread. Idempotent; also run by the destructor.
  void Stop();

  bool running() const { return running_; }
  /// The bound port (resolves port 0), valid after Start().
  int port() const { return port_; }
  /// "host:port", valid after Start().
  std::string address() const;

  /// Total requests answered (including error responses), for tests.
  int64_t requests_served() const { return requests_served_; }

  /// Accepted connections currently waiting for a free worker — the
  /// network half of the overload pressure signal (dmvi_serve wires it
  /// into ImputationService::SetPressureProbe; /healthz reports it).
  int pending_connections() const;

  /// Largest accept-queue depth ever observed — how close the front-end
  /// has come to its max_pending_connections backpressure ceiling
  /// (exported as the dmvi_accept_queue_high_water gauge).
  int accept_queue_high_water() const;

 private:
  void AcceptLoop() DMVI_EXCLUDES(queue_mutex_);
  void WorkerLoop() DMVI_EXCLUDES(queue_mutex_);
  /// Serves one connection until close/error/timeout/shutdown.
  void ServeConnection(int fd);
  /// Routes one parsed request (exact match, 404/405/500 fallbacks).
  HttpMessage Dispatch(const HttpMessage& request);
  /// The id every span and response header of this request carries: the
  /// client's x-request-id when given, else a generated "req-<n>".
  std::string RequestIdFor(const HttpMessage& request);
  /// Writes the full buffer; false on a broken pipe.
  bool WriteAll(int fd, const std::string& bytes);

  const ServerConfig config_;
  std::map<std::pair<std::string, std::string>, Handler> handlers_;
  std::atomic<int64_t> next_request_number_{1};
  // From config_.metrics; null when no registry is wired in.
  obs::Counter* http_requests_total_ = nullptr;
  obs::Histogram* stage_read_ = nullptr;
  obs::Histogram* stage_handle_ = nullptr;
  obs::Histogram* stage_write_ = nullptr;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> requests_served_{0};

  std::thread accept_thread_;
  std::thread pool_thread_;  // Runs the ParallelFor worker region.

  mutable Mutex queue_mutex_;
  CondVar queue_cv_;         // Workers wait for connections.
  CondVar backpressure_cv_;  // Accept loop waits for space.
  // Accepted fds awaiting a worker.
  std::deque<int> pending_ DMVI_GUARDED_BY(queue_mutex_);
  int pending_high_water_ DMVI_GUARDED_BY(queue_mutex_) = 0;
};

/// Splits "host:port" (host may be empty for "0.0.0.0"); InvalidArgument
/// on a malformed or out-of-range port.
Status ParseHostPort(const std::string& address, std::string* host,
                     int* port);

}  // namespace net
}  // namespace deepmvi

#endif  // DEEPMVI_NET_SERVER_H_
