#ifndef PERFBENCH_SPEED_H_
#define PERFBENCH_SPEED_H_

// Machine-speed reference. On a shared host the CPUs slow down by up to
// ~1.9x for seconds to minutes at a time, because of work outside the
// benchmark. A fixed reference computation run on the same thread right
// next to the measured work slows down by about the same factor: on a
// 4-vCPU Xeon VM, AirQ Predict went from 15 ms to 28 ms across such phases
// while its ratio to the interleaved reference stayed within +-5%. The
// in-process measurements (offline Predict passes and set-up builds, and
// every Fit, with a reference run between training batches) divide their
// times (and multiply their rates) by that factor, so they read as on an
// unloaded machine; the raw values are printed in the run's report. A
// reference run does not track work on other threads or in another
// process: one on another CPU during the load over-corrected by ~1.7x,
// and the median over every CPU taken with the server idle, right before
// and after each load phase, widened the five-seed spread of the serve
// p50 from 6.9% to 12.6% and of its rate from 15% to 20%. So the times
// measured over HTTP are reported raw. Cache and memory
// contention from outside slows the workload more than the
// cache-resident reference, so the correction is partial. The reference
// is the benchmark's own code in its own target with fixed compile flags
// (reference/reference.h), so no change to the program under test, its
// sources or its build flags moves it.

#include <vector>

#include "obs/trace.h"
#include "reference.h"

namespace perfbench {

/// The CPUs this process may run on.
std::vector<int> AllowedCpus();

/// Pins the calling thread to `cpu`; -1 restores every allowed CPU. The
/// in-process measurements rotate over AllowedCpus(), so a CPU slowed by
/// something outside the benchmark cannot skew a whole run.
void PinCurrentThread(int cpu);

/// Slowdown of the CPU the calling thread is on: the median reference time
/// over `seconds` of back-to-back runs (after a short warm-up) divided by
/// kReferenceMs.
double SlowdownHere(double seconds);

/// Times a training run with the reference interleaved in it: installed
/// as the process-global tracer for one Fit, its sink runs the reference
/// computation each time a "train.batch" span ends, which happens on the
/// training thread between batches.
class FitSpeedProbe : public deepmvi::obs::TraceSink {
 public:
  FitSpeedProbe() : tracer_(this) { deepmvi::obs::SetGlobalTracer(&tracer_); }
  ~FitSpeedProbe() override { deepmvi::obs::SetGlobalTracer(nullptr); }
  FitSpeedProbe(const FitSpeedProbe&) = delete;
  FitSpeedProbe& operator=(const FitSpeedProbe&) = delete;

  void Record(deepmvi::obs::SpanRecord record) override;

  /// Seconds the reference runs took (to subtract from the fit's time).
  double reference_seconds() const;
  /// Median reference time / kReferenceMs (1 when no batch ended).
  double slowdown() const;

 private:
  deepmvi::obs::Tracer tracer_;
  std::vector<double> ms_;  // Only the training thread appends.
};

}  // namespace perfbench

#endif  // PERFBENCH_SPEED_H_
