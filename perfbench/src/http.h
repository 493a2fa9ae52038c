#ifndef PERFBENCH_HTTP_H_
#define PERFBENCH_HTTP_H_

// Loopback HTTP plumbing for the benchmark: a keep-alive connection with
// a per-request deadline (net::Client has none), and a dmvi_serve child
// process with start-up timing, peak-memory readout and clean shutdown.

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// Monotonic seconds (steady clock) — the one clock every timestamp of a
/// run uses.
double NowSeconds();

/// A finished HTTP exchange.
struct Response {
  int status = 0;
  std::string body;
};

/// One keep-alive HTTP/1.1 connection to 127.0.0.1:port. Connects lazily;
/// any transport error or deadline miss closes the socket, so the next
/// request starts on a fresh connection.
class Connection {
 public:
  explicit Connection(int port) : port_(port) {}
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends the serialized request `wire` and reads one response. Returns
  /// false on connect/IO error or when `timeout_s` passes first.
  /// `sent_s` receives the time the first byte was written.
  bool RoundTrip(const std::string& wire, double timeout_s, Response* out,
                 double* sent_s = nullptr);
  void Close();

 private:
  bool Connect(double deadline);

  int port_;
  int fd_ = -1;
};

/// Serializes a request for `Connection::RoundTrip` ("Connection:
/// keep-alive", Host and Content-Length filled in).
std::string MakeWire(const std::string& method, const std::string& target,
                     const std::string& body = "",
                     const std::string& content_type = "application/json");

/// GET `target` on a fresh connection that is closed afterwards, so no
/// idle connection pins one of the server's workers.
bool FetchOnce(int port, const std::string& target, double timeout_s,
               Response* out);

/// A dmvi_serve child process.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Launches `binary args... --listen 127.0.0.1:0 --port-file PF` with
  /// stdout/stderr appended to `log_path`, then polls GET /healthz on
  /// fresh connections until it answers 200. Returns the seconds from
  /// launch to that first 200, or a negative value on failure (the child
  /// is then stopped and `error` says why). With `cpu` >= 0 the server runs
  /// on that CPU only; otherwise it inherits the calling thread's CPUs.
  double Start(const std::string& binary, const std::vector<std::string>& args,
               const std::string& work_dir, const std::string& log_path,
               double timeout_s, std::string* error, int cpu = -1);

  /// SIGTERM, wait up to a few seconds, then SIGKILL; always reaps.
  void Stop();

  int port() const { return port_; }
  /// VmHWM (peak resident set) of the child in MiB, 0 when unreadable.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// VmHWM of process `pid` ("self" for this process) in MiB.
double ReadPeakRssMb(const std::string& pid);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_H_
