#ifndef DEEPMVI_TESTS_TESTING_TEST_UTIL_H_
#define DEEPMVI_TESTS_TESTING_TEST_UTIL_H_

// Shared helpers for the gtest suites: matrix comparators, seeded-RNG
// fixtures, synthetic dataset/mask factories, the Imputer-contract
// checker, and small model configs. Everything is header-only and lives
// in deepmvi::testutil; test files typically open it with
// `using namespace testutil;` inside their own anonymous namespace.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "autodiff/ops.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/deepmvi_config.h"
#include "data/imputer.h"
#include "data/synthetic.h"
#include "nn/serialize.h"
#include "obs/trace.h"
#include "scenario/scenarios.h"
#include "tensor/data_tensor.h"
#include "tensor/mask.h"
#include "tensor/matrix.h"

namespace deepmvi {
namespace testutil {

// ---- Comparators -----------------------------------------------------------

/// Elementwise near-equality with a located failure message. Prefer this
/// over Matrix::ApproxEquals inside EXPECT_TRUE: on mismatch it names the
/// first offending cell instead of printing "false".
inline void ExpectMatricesNear(const Matrix& actual, const Matrix& expected,
                               double tol, const std::string& what = "") {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  for (int r = 0; r < actual.rows(); ++r) {
    for (int c = 0; c < actual.cols(); ++c) {
      EXPECT_NEAR(actual(r, c), expected(r, c), tol)
          << what << " at (" << r << "," << c << ")";
    }
  }
}

/// Exact equality, double for double — the contract of the binary
/// serialization round trip and of the serving determinism guarantees
/// (ApproxEquals with tol 0 would be close, but a located message beats
/// "false", and exact compares state the intent).
inline void ExpectMatricesBitIdentical(const Matrix& actual,
                                       const Matrix& expected,
                                       const std::string& what = "") {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  for (int r = 0; r < actual.rows(); ++r) {
    for (int c = 0; c < actual.cols(); ++c) {
      ASSERT_EQ(actual(r, c), expected(r, c))
          << what << " at (" << r << "," << c << ")";
    }
  }
}

/// Byte equality: unlike ==, tells -0.0 from 0.0 and compares NaNs.
inline void ExpectSameBits(const Matrix& actual, const Matrix& expected,
                           const std::string& what) {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        sizeof(double) * actual.size()),
            0)
      << what;
}

/// Asserts that analytic and numerical gradients of `f` agree at `inputs`.
using GradientGraphFn =
    std::function<ad::Var(ad::Tape&, const std::vector<ad::Var>&)>;
inline void ExpectGradientsMatch(const GradientGraphFn& f,
                                 const std::vector<Matrix>& inputs,
                                 double tol = 1e-6) {
  std::vector<Matrix> analytic = ad::AnalyticGradient(f, inputs);
  std::vector<Matrix> numeric = ad::NumericalGradient(f, inputs);
  ASSERT_EQ(analytic.size(), numeric.size());
  for (size_t i = 0; i < analytic.size(); ++i) {
    ExpectMatricesNear(analytic[i], numeric[i], tol,
                       "gradient of input " + std::to_string(i));
  }
}

/// Checks the Imputer contract: the output has the data's shape, is finite
/// everywhere, and passes available cells through bit-unchanged.
inline void CheckImputerContract(Imputer& imputer, const DataTensor& data,
                                 const Mask& mask) {
  Matrix imputed = imputer.Impute(data, mask);
  ASSERT_EQ(imputed.rows(), data.num_series());
  ASSERT_EQ(imputed.cols(), data.num_times());
  EXPECT_TRUE(imputed.AllFinite()) << imputer.name();
  for (int r = 0; r < imputed.rows(); ++r) {
    for (int t = 0; t < imputed.cols(); ++t) {
      if (mask.available(r, t)) {
        ASSERT_EQ(imputed(r, t), data.values()(r, t))
            << imputer.name() << " modified an available cell";
      }
    }
  }
}

// ---- Fixtures ---------------------------------------------------------------

/// Base fixture for seed-parameterized sweeps: instantiate with
/// INSTANTIATE_TEST_SUITE_P(Seeds, MySweep, ::testing::Range<uint64_t>(1, 9))
/// and draw from rng() inside the test body.
class SeededRngTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  SeededRngTest() : rng_(GetParam()) {}
  Rng& rng() { return rng_; }

 private:
  Rng rng_;
};

// ---- Data factories ---------------------------------------------------------

/// Gaussian matrix from a one-shot seeded stream.
inline Matrix RandomMatrix(int rows, int cols, uint64_t seed,
                           double stddev = 1.0) {
  Rng rng(seed);
  return Matrix::RandomGaussian(rows, cols, rng, 0.0, stddev);
}

/// Low-rank ground truth: X = U V^T + small noise. Matrix-completion
/// methods should recover it well under MCAR.
inline Matrix LowRankData(int n, int t_len, int rank, uint64_t seed) {
  Rng rng(seed);
  Matrix u = Matrix::RandomGaussian(n, rank, rng);
  Matrix v = Matrix::RandomGaussian(t_len, rank, rng);
  Matrix x = u.MatMulTranspose(v);
  for (int r = 0; r < n; ++r) {
    for (int t = 0; t < t_len; ++t) x(r, t) += 0.01 * rng.Gaussian();
  }
  return x;
}

/// Well-conditioned symmetric positive definite matrix.
inline Matrix RandomSpd(int n, Rng& rng) {
  Matrix a = Matrix::RandomGaussian(n, n, rng);
  Matrix spd = a.TransposeMatMul(a);
  for (int i = 0; i < n; ++i) spd(i, i) += n;
  return spd;
}

/// True when the columns of `m` form an orthonormal set.
inline bool ColumnsOrthonormal(const Matrix& m, double tol = 1e-8) {
  Matrix gram = m.TransposeMatMul(m);
  return gram.ApproxEquals(Matrix::Identity(m.cols()), tol);
}

/// MCAR availability mask with every series incomplete.
inline Mask McarMask(int n, int t_len, double frac, uint64_t seed,
                     int block = 5) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kMcar;
  config.percent_incomplete = 1.0;
  config.missing_fraction = frac;
  config.block_size = block;
  config.seed = seed;
  return GenerateScenario(config, n, t_len);
}

/// A small strongly-seasonal correlated dataset with ground truth `x`, its
/// DataTensor wrapper, and a 10% MCAR mask — the standard instance the
/// imputer suites train on.
struct SeasonalCase {
  Matrix x;
  DataTensor data;
  Mask mask;
};
inline SeasonalCase MakeSeasonalCase(uint64_t seed, int n = 6,
                                     int t_len = 200) {
  SyntheticConfig config;
  config.num_series = n;
  config.length = t_len;
  config.seasonal_periods = {25.0};
  config.seasonality_strength = 0.85;
  config.cross_correlation = 0.6;
  config.noise_level = 0.05;
  config.seed = seed;
  SeasonalCase out{GenerateSeriesMatrix(config), DataTensor(), Mask()};
  out.data = DataTensor::FromMatrix(out.x);
  ScenarioConfig scenario;
  scenario.kind = ScenarioKind::kMcar;
  scenario.percent_incomplete = 1.0;
  scenario.missing_fraction = 0.1;
  scenario.seed = seed + 1;
  out.mask = GenerateScenario(scenario, n, t_len);
  return out;
}

// ---- Model configs ----------------------------------------------------------

/// Smallest DeepMVI that still exercises every component; for smoke and
/// contract tests where accuracy does not matter.
inline DeepMviConfig TinyDeepMviConfig() {
  DeepMviConfig config;
  config.max_epochs = 3;
  config.samples_per_epoch = 24;
  config.patience = 1;
  config.filters = 8;
  config.num_heads = 2;
  config.embedding_dim = 4;
  return config;
}

/// Reduced-budget DeepMVI that trains to useful accuracy in seconds; for
/// the behavioral model tests.
inline DeepMviConfig FastDeepMviConfig() {
  DeepMviConfig config;
  config.max_epochs = 20;
  config.samples_per_epoch = 96;
  config.batch_size = 4;
  config.patience = 4;
  config.filters = 16;
  config.num_heads = 2;
  config.embedding_dim = 6;
  config.seed = 5;
  return config;
}

// ---- Tracing ----------------------------------------------------------------

/// Installs `tracer` as the process tracer (obs::GlobalTracer), which every
/// span reads, for this scope, and restores the previous one on exit.
/// Traced serving tests open it before HttpServer::Start (each connection
/// reads the tracer once) and close it after Stop.
class ScopedProcessTracer {
 public:
  explicit ScopedProcessTracer(obs::Tracer* tracer)
      : previous_(obs::GlobalTracer()) {
    obs::SetGlobalTracer(tracer);
  }
  ~ScopedProcessTracer() { obs::SetGlobalTracer(previous_); }
  ScopedProcessTracer(const ScopedProcessTracer&) = delete;
  ScopedProcessTracer& operator=(const ScopedProcessTracer&) = delete;

 private:
  obs::Tracer* const previous_;
};

// ---- Filesystem -------------------------------------------------------------

/// Path inside gtest's per-run temp directory.
inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---- Untrusted input --------------------------------------------------------

/// `count` dimensions d0, d1, ... of `members` members m0, m1, ... each.
inline std::vector<Dimension> UniformDims(int count, int members) {
  std::vector<Dimension> dims(count);
  for (int d = 0; d < count; ++d) {
    dims[d].name = "d" + std::to_string(d);
    for (int m = 0; m < members; ++m) {
      dims[d].members.push_back("m" + std::to_string(m));
    }
  }
  return dims;
}

/// The dimension-table bytes nn::WriteDims would write, with none of its
/// checks, so readers can be handed tables every writer refuses.
inline std::string RawDims(const std::vector<Dimension>& dims) {
  std::ostringstream out;
  nn::WritePod(out, static_cast<uint32_t>(dims.size()));
  for (const Dimension& dim : dims) {
    EXPECT_TRUE(nn::WriteString(out, dim.name).ok());
    nn::WritePod(out, static_cast<uint32_t>(dim.members.size()));
    for (const std::string& member : dim.members) {
      EXPECT_TRUE(nn::WriteString(out, member).ok());
    }
  }
  return out.str();
}

/// How tightly DecodeUnderAddressSpaceLimit caps the child's address space.
enum class AddressSpaceCap {
  /// 1 GiB, or a lower cap the process already has: far below the
  /// gigabytes a table sized from a crafted header asks for.
  kOneGiB,
  /// The child's current address space plus 64 MiB: refuses any one
  /// allocation of 64 MiB or more.
  kCurrentPlus64MiB,
};

/// Caps this process's address space as `cap` says, runs `decode` and
/// exits 0 when it returned an error Status (1 when it succeeded).
/// Sanitizer builds leave the cap off: their shadow memory alone exceeds
/// it.
[[noreturn]] inline void DecodeUnderAddressSpaceLimit(
    const std::function<Status()>& decode, AddressSpaceCap cap) {
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  rlimit limit{};
  if (getrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(2);
  rlim_t bytes = rlim_t{1} << 30;
  if (cap == AddressSpaceCap::kCurrentPlus64MiB) {
    // /proc/self/statm starts with the address-space size in pages.
    std::ifstream statm("/proc/self/statm");
    rlim_t pages = 0;
    if (!(statm >> pages)) std::_Exit(2);
    bytes = pages * static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
            (rlim_t{64} << 20);
  }
  limit.rlim_cur = std::min(limit.rlim_cur, bytes);
  if (setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(2);
#else
  (void)cap;
#endif
  std::_Exit(decode().ok() ? 1 : 0);
}

/// Expects `decode`, run in a child under DecodeUnderAddressSpaceLimit's
/// `cap` (below what the corrupt files the tests craft ask for), to
/// return an error Status instead of dying of a failed allocation.
inline void ExpectErrorUnderAddressSpaceLimit(
    const std::function<Status()>& decode,
    AddressSpaceCap cap = AddressSpaceCap::kOneGiB) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(DecodeUnderAddressSpaceLimit(decode, cap),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace testutil
}  // namespace deepmvi

#endif  // DEEPMVI_TESTS_TESTING_TEST_UTIL_H_
