#include "reference.h"

#include <algorithm>
#include <chrono>

namespace perfbench {
namespace {

constexpr int kN = 96;
constexpr int kRounds = 6;

// Keeps the reference product observable so it is never optimized away.
volatile double g_reference_sink = 0.0;

// Fixed, padded static storage: the operands' placement relative to each
// other (and so the reference's speed) is the same in every process.
alignas(64) double g_a[kN * kN + 8];
alignas(64) double g_b[kN * kN + 8];
alignas(64) double g_c[kN * kN + 8];

}  // namespace

double TimeReferenceMs() {
  double* const a = g_a;
  double* const b = g_b;
  double* const c = g_c;
  static const bool filled = [a, b] {
    std::fill(a, a + kN * kN, 0.5);
    std::fill(b, b + kN * kN, 0.25);
    return true;
  }();
  (void)filled;
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kN; ++i) {
      for (int k = 0; k < kN; ++k) {
        const double x = a[i * kN + k];
        for (int j = 0; j < kN; ++j) c[i * kN + j] += x * b[k * kN + j];
      }
    }
  }
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  g_reference_sink = c[kN + 1];
  return elapsed.count();
}

}  // namespace perfbench
