#include "speed.h"

#include <pthread.h>
#include <sched.h>

#include "http.h"
#include "stats.h"

namespace perfbench {
namespace {

constexpr double kWarmupS = 0.02;

}  // namespace

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

void PinCurrentThread(int cpu) {
  static const std::vector<int> allowed = AllowedCpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) {
    CPU_SET(cpu, &set);
  } else {
    for (int c : allowed) {
      if (c >= 0) CPU_SET(c, &set);
    }
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double SlowdownHere(double seconds) {
  // Busy the CPU first: one that was idle runs the first milliseconds
  // slower, and that is not the slowdown being measured.
  const double warm_until = NowSeconds() + kWarmupS;
  while (NowSeconds() < warm_until) TimeReferenceMs();
  std::vector<double> ms;
  const double until = NowSeconds() + seconds;
  while (ms.empty() || NowSeconds() < until) ms.push_back(TimeReferenceMs());
  return Median(ms) / kReferenceMs;
}

void FitSpeedProbe::Record(deepmvi::obs::SpanRecord record) {
  if (record.name == "train.batch") ms_.push_back(TimeReferenceMs());
}

double FitSpeedProbe::reference_seconds() const {
  double total = 0.0;
  for (double ms : ms_) total += ms;
  return total * 1e-3;
}

double FitSpeedProbe::slowdown() const {
  return ms_.empty() ? 1.0 : Median(ms_) / kReferenceMs;
}

}  // namespace perfbench
