#include "http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/personality.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "net/http.h"

namespace perfbench {
namespace {

/// Waits until `fd` is ready for `events` or `deadline` passes.
bool WaitFd(int fd, short events, double deadline) {
  for (;;) {
    const double left = deadline - NowSeconds();
    if (left <= 0.0) return false;
    pollfd p{fd, events, 0};
    const int timeout_ms = static_cast<int>(left * 1e3) + 1;
    const int ready = ::poll(&p, 1, timeout_ms);
    if (ready > 0) return true;
    if (ready < 0 && errno != EINTR) return false;
  }
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool Connection::Connect(double deadline) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS || !WaitFd(fd_, POLLOUT, deadline)) {
      Close();
      return false;
    }
    int error = 0;
    socklen_t len = sizeof(error);
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &error, &len);
    if (error != 0) {
      Close();
      return false;
    }
  }
  return true;
}

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Connection::RoundTrip(const std::string& wire, double timeout_s,
                           Response* out, double* sent_s) {
  const double deadline = NowSeconds() + timeout_s;
  // A keep-alive connection the server already closed fails before any
  // response byte; that case alone is retried once on a fresh socket.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool reused = fd_ >= 0;
    if (!reused && !Connect(deadline)) return false;
    if (sent_s != nullptr) *sent_s = NowSeconds();
    size_t written = 0;
    bool io_ok = true;
    while (written < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + written, wire.size() - written,
                               MSG_NOSIGNAL);
      if (n > 0) {
        written += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        if (!WaitFd(fd_, POLLOUT, deadline)) {
          Close();
          return false;
        }
      } else {
        io_ok = false;
        break;
      }
    }
    deepmvi::net::HttpParser parser(deepmvi::net::HttpParser::Mode::kResponse);
    char buffer[64 * 1024];
    while (io_ok && !parser.done()) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n > 0) {
        parser.Feed(buffer, static_cast<size_t>(n));
        if (parser.failed()) io_ok = false;
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        if (!WaitFd(fd_, POLLIN, deadline)) {
          Close();
          return false;
        }
      } else {
        io_ok = false;  // EOF or error.
      }
    }
    if (io_ok) {
      out->status = parser.message().status_code;
      out->body = std::move(parser.mutable_message().body);
      if (!deepmvi::net::WantsKeepAlive(parser.message())) Close();
      return true;
    }
    Close();
    if (!reused || parser.started()) return false;
  }
  return false;
}

std::string MakeWire(const std::string& method, const std::string& target,
                     const std::string& body, const std::string& content_type) {
  deepmvi::net::HttpMessage request;
  request.method = method;
  request.target = target;
  request.SetHeader("host", "127.0.0.1");
  request.SetHeader("connection", "keep-alive");
  if (!body.empty()) request.SetHeader("content-type", content_type);
  request.body = body;
  return deepmvi::net::SerializeRequest(request);
}

bool FetchOnce(int port, const std::string& target, double timeout_s,
               Response* out) {
  Connection connection(port);
  const bool ok = connection.RoundTrip(MakeWire("GET", target), timeout_s, out);
  connection.Close();
  return ok;
}

double ServerProcess::Start(const std::string& binary,
                            const std::vector<std::string>& args,
                            const std::string& work_dir,
                            const std::string& log_path, double timeout_s,
                            std::string* error, int cpu) {
  const std::string port_file = work_dir + "/port.txt";
  std::remove(port_file.c_str());
  std::vector<std::string> argv_strings = {binary};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  for (const char* extra :
       {"--listen", "127.0.0.1:0", "--port-file", port_file.c_str()}) {
    argv_strings.emplace_back(extra);
  }
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  const double launched = NowSeconds();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork failed";
    return -1.0;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    // A fixed address-space layout: run-to-run speed then does not depend
    // on where ASLR happened to place the heap and stacks.
    ::personality(ADDR_NO_RANDOMIZE);
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      ::sched_setaffinity(0, sizeof(set), &set);
    }
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    ::execv(binary.c_str(), argv.data());
    std::_Exit(127);
  }
  pid_ = pid;

  const double deadline = launched + timeout_s;
  while (NowSeconds() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "dmvi_serve exited during start-up (see " + log_path + ")";
      return -1.0;
    }
    if (port_ == 0) {
      std::ifstream in(port_file);
      std::string address;
      if (in && std::getline(in, address) && in.good()) {
        const size_t colon = address.rfind(':');
        if (colon != std::string::npos) {
          port_ = std::atoi(address.c_str() + colon + 1);
        }
      }
    }
    Response response;
    if (port_ > 0 && FetchOnce(port_, "/healthz", 1.0, &response) &&
        response.status == 200) {
      return NowSeconds() - launched;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *error = "dmvi_serve did not answer /healthz in time";
  Stop();
  return -1.0;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const double deadline = NowSeconds() + 5.0;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (NowSeconds() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  port_ = 0;
}

double ServerProcess::PeakRssMb() const {
  return pid_ > 0 ? ReadPeakRssMb(std::to_string(pid_)) : 0.0;
}

double ReadPeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
