#include "load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

namespace perfbench {
namespace {

void SleepUntil(double when_s) {
  const double left = when_s - NowSeconds();
  if (left > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(left));
  }
}

void Finish(PhaseResult* phase) {
  std::sort(phase->ops.begin(), phase->ops.end(),
            [](const OpRecord& a, const OpRecord& b) { return a.index < b.index; });
  phase->ended_s = phase->started_s;
  for (const OpRecord& op : phase->ops) {
    phase->ended_s = std::max(phase->ended_s, op.done_s);
  }
}

}  // namespace

PhaseResult RunOpenLoop(double rate, double duration_s, int connections,
                        const Sender& send) {
  PhaseResult phase;
  const int count = std::max(1, static_cast<int>(rate * duration_s));
  phase.ops.resize(count);
  // A short lead so every thread is parked before the first due time.
  phase.started_s = NowSeconds() + 0.005;
  std::atomic<int> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      for (int i; (i = next.fetch_add(1)) < count;) {
        OpRecord& op = phase.ops[i];
        op.index = i;
        op.connection = c;
        op.due_s = phase.started_s + i / rate;
        SleepUntil(op.due_s);
        op.sent_s = NowSeconds();  // The sender refines it.
        op.transport_ok = send(c, i, &op.response, &op.sent_s);
        op.done_s = NowSeconds();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Finish(&phase);
  return phase;
}

PhaseResult RunClosedLoop(double duration_s, int connections,
                          const Sender& send) {
  PhaseResult phase;
  phase.started_s = NowSeconds();
  const double stop_s = phase.started_s + duration_s;
  std::atomic<int> next{0};
  std::vector<std::vector<OpRecord>> per_connection(connections);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      while (NowSeconds() < stop_s) {
        OpRecord op;
        op.index = next.fetch_add(1);
        op.connection = c;
        op.due_s = NowSeconds();
        op.sent_s = op.due_s;
        op.transport_ok = send(c, op.index, &op.response, &op.sent_s);
        op.done_s = NowSeconds();
        per_connection[c].push_back(std::move(op));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& ops : per_connection) {
    for (OpRecord& op : ops) phase.ops.push_back(std::move(op));
  }
  Finish(&phase);
  return phase;
}

LatencySample LatenciesOf(const PhaseResult& phase,
                          const std::function<bool(const OpRecord&)>& ok) {
  LatencySample sample;
  for (const OpRecord& op : phase.ops) {
    if (ok(op)) {
      sample.AddCompleted(op.LatencyMs());
    } else {
      sample.AddFailed();
    }
  }
  return sample;
}

}  // namespace perfbench
