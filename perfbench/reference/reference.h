#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

// The machine-speed reference computation (see ../src/speed.h). It lives in
// a target of its own, compiled with fixed flags and linked against nothing
// (CMakeLists.txt here), and run.py checks its compile command before every
// run: a flag the repository adds for its own code (-march, FMA, ...) must
// not speed up the reference as well, or the correction would cancel the
// gain being measured.

namespace perfbench {

/// Time of the reference computation on the reference machine (4-vCPU
/// Intel Xeon VM, unloaded, GCC -O3), in ms.
constexpr double kReferenceMs = 1.1;

/// Runs the reference computation (a fixed 96x96 matrix product loop) once
/// on the calling thread and returns its wall time in ms.
double TimeReferenceMs();

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
