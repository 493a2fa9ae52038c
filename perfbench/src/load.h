#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

// Load generation: an open loop on a fixed schedule and a closed loop,
// each over a fixed number of connections (one thread per connection).
// The transport is injected, so the schedule logic is testable without a
// server.

#include <functional>
#include <vector>

#include "http.h"
#include "stats.h"

namespace perfbench {

/// One operation of a phase.
struct OpRecord {
  int index = -1;       // Position in the request stream.
  int connection = -1;  // Which connection carried it.
  double due_s = 0.0;   // Scheduled send (open loop) / issue time (closed).
  double sent_s = 0.0;  // First byte written.
  double done_s = 0.0;  // Response parsed, or failure noticed.
  bool transport_ok = false;
  Response response;

  /// Latency from the scheduled send, so a stall's wait on later requests
  /// is counted.
  double LatencyMs() const { return (done_s - due_s) * 1e3; }
  /// Send to receive, what the server can account for.
  double ServiceMs() const { return (done_s - sent_s) * 1e3; }
  /// How late the generator sent it.
  double LatenessMs() const { return (sent_s - due_s) * 1e3; }
};

/// Sends stream request `index` on connection `connection`, filling
/// `response` and `sent_s`; false on transport failure or timeout.
using Sender = std::function<bool(int connection, int index,
                                  Response* response, double* sent_s)>;

struct PhaseResult {
  std::vector<OpRecord> ops;  // Ordered by stream index.
  double started_s = 0.0;
  double ended_s = 0.0;  // Last completion.
};

/// Open loop: request i is due at start + i / rate, for `duration_s`
/// seconds. Each connection's thread takes the next due request, waits for
/// its due time and sends; when every connection is busy the request goes
/// out late and the lateness shows in its latency.
PhaseResult RunOpenLoop(double rate, double duration_s, int connections,
                        const Sender& send);

/// Closed loop: every connection sends its next request as soon as the
/// previous one completes, until `duration_s` has passed.
PhaseResult RunClosedLoop(double duration_s, int connections,
                          const Sender& send);

/// Latencies from schedule, one per op; `ok(op)` decides whether an op
/// succeeded (transport, status and output check), a failed op is +inf.
LatencySample LatenciesOf(const PhaseResult& phase,
                          const std::function<bool(const OpRecord&)>& ok);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
