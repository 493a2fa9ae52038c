#include "tensor/matmul_kernel.h"

#include <cmath>
#include <string>

#include "obs/profiler.h"
#include "obs/trace.h"

// Each kernel body is written once and inlined into every set's entry
// point, so each set compiles it for its own target.
#define DMVI_KERNEL_BODY inline __attribute__((always_inline))

namespace deepmvi {
namespace internal {
namespace {

/// Kernel-level trace scope: inert (one atomic load + branch) unless a
/// global tracer at TraceLevel::kKernel is installed. Dimension strings
/// are only built when the span is live.
inline void AnnotateDims(obs::Span& span, int m, int k, int n) {
  if (!span.active()) return;
  span.AddArg("m", std::to_string(m));
  span.AddArg("k", std::to_string(k));
  span.AddArg("n", std::to_string(n));
}

// Tile sizes. kKTile rows of B (the streamed operand) are kept hot in L1/L2
// while the full output is swept; 4 output rows x 4 k-terms are held in
// registers by the micro kernel so each loaded B row updates four C rows.
constexpr int kKTile = 64;

// A(i, kk) = a[i * a_row + kk * a_k]: row-major a (a_row = k, a_k = 1) for
// MatMul, a read transposed (a_row = 1, a_k = m) for TransposeMatMul. The
// output rows never alias the operands: callers own `c`.

/// Rows c[0..3] get the four ascending-k terms A(r, 0..3) * b[0..3]; each
/// b row is loaded once per j for all four output rows.
DMVI_KERNEL_BODY void MicroKernel4x4(double* __restrict c, const double* a,
                                     long long a_row, long long a_k,
                                     const double* b, int n) {
  double* __restrict c0 = c;
  double* __restrict c1 = c + n;
  double* __restrict c2 = c + 2 * n;
  double* __restrict c3 = c + 3 * n;
  const double* b0 = b;
  const double* b1 = b + n;
  const double* b2 = b + 2 * n;
  const double* b3 = b + 3 * n;
  double av[4][4];
  for (int r = 0; r < 4; ++r) {
    for (int q = 0; q < 4; ++q) av[r][q] = a[r * a_row + q * a_k];
  }
  for (int j = 0; j < n; ++j) {
    double acc0 = c0[j];
    acc0 += av[0][0] * b0[j];
    acc0 += av[0][1] * b1[j];
    acc0 += av[0][2] * b2[j];
    acc0 += av[0][3] * b3[j];
    c0[j] = acc0;
    double acc1 = c1[j];
    acc1 += av[1][0] * b0[j];
    acc1 += av[1][1] * b1[j];
    acc1 += av[1][2] * b2[j];
    acc1 += av[1][3] * b3[j];
    c1[j] = acc1;
    double acc2 = c2[j];
    acc2 += av[2][0] * b0[j];
    acc2 += av[2][1] * b1[j];
    acc2 += av[2][2] * b2[j];
    acc2 += av[2][3] * b3[j];
    c2[j] = acc2;
    double acc3 = c3[j];
    acc3 += av[3][0] * b0[j];
    acc3 += av[3][1] * b1[j];
    acc3 += av[3][2] * b2[j];
    acc3 += av[3][3] * b3[j];
    c3[j] = acc3;
  }
}

/// One output row: four ascending-k terms A(0, 0..3) * b[0..3].
DMVI_KERNEL_BODY void MicroKernel1x4(double* __restrict c0, const double* a,
                                     long long a_k, const double* b, int n) {
  const double a0 = a[0], a1 = a[a_k], a2 = a[2 * a_k], a3 = a[3 * a_k];
  const double* b0 = b;
  const double* b1 = b + n;
  const double* b2 = b + 2 * n;
  const double* b3 = b + 3 * n;
  for (int j = 0; j < n; ++j) {
    double acc = c0[j];
    acc += a0 * b0[j];
    acc += a1 * b1[j];
    acc += a2 * b2[j];
    acc += a3 * b3[j];
    c0[j] = acc;
  }
}

DMVI_KERNEL_BODY void MicroKernel1x1(double* __restrict c0, const double* b0,
                                     double a00, int n) {
  for (int j = 0; j < n; ++j) c0[j] += a00 * b0[j];
}

/// c[m x n] += A * b[k x n] with A addressed through (a_row, a_k).
DMVI_KERNEL_BODY void StridedMatMulBody(const double* a, long long a_row,
                                        long long a_k, const double* b,
                                        double* c, int m, int k, int n) {
  for (int k0 = 0; k0 < k; k0 += kKTile) {
    const int k1 = k0 + kKTile < k ? k0 + kKTile : k;
    int i = 0;
    for (; i + 3 < m; i += 4) {
      const double* ai = a + i * a_row;
      double* ci = c + static_cast<long long>(i) * n;
      int kk = k0;
      for (; kk + 3 < k1; kk += 4) {
        MicroKernel4x4(ci, ai + kk * a_k, a_row, a_k,
                       b + static_cast<long long>(kk) * n, n);
      }
      for (; kk < k1; ++kk) {
        for (int r = 0; r < 4; ++r) {
          MicroKernel1x1(ci + static_cast<long long>(r) * n,
                         b + static_cast<long long>(kk) * n,
                         ai[r * a_row + kk * a_k], n);
        }
      }
    }
    for (; i < m; ++i) {
      const double* ai = a + i * a_row;
      double* ci = c + static_cast<long long>(i) * n;
      int kk = k0;
      for (; kk + 3 < k1; kk += 4) {
        MicroKernel1x4(ci, ai + kk * a_k, a_k,
                       b + static_cast<long long>(kk) * n, n);
      }
      for (; kk < k1; ++kk) {
        MicroKernel1x1(ci, b + static_cast<long long>(kk) * n, ai[kk * a_k],
                       n);
      }
    }
  }
}

DMVI_KERNEL_BODY void MatMulBody(const double* a, const double* b, double* c,
                                 int m, int k, int n) {
  StridedMatMulBody(a, k, 1, b, c, m, k, n);
}

/// a is k x m and read transposed: output row i multiplies column i of a.
DMVI_KERNEL_BODY void TransposeMatMulBody(const double* a, const double* b,
                                          double* c, int m, int k, int n) {
  StridedMatMulBody(a, 1, m, b, c, m, k, n);
}

/// Writes the transpose of b (n x k) into b_t (k x n). Each b_t row is
/// one contiguous run; each cache line it reads from a row of b serves
/// eight b_t rows in turn.
DMVI_KERNEL_BODY void PackTransposeBody(const double* b, int n, int k,
                                        double* __restrict b_t) {
  for (int kk = 0; kk < k; ++kk) {
    double* dst = b_t + static_cast<long long>(kk) * n;
    for (int j = 0; j < n; ++j) dst[j] = b[static_cast<long long>(j) * k + kk];
  }
}

/// b is n x k: packing its transpose (k x n) into the caller's `b_t` lets
/// the product run the row-streaming MatMulBody, whose vector lanes are
/// output columns, where row-times-row dot products would have to gather
/// across B's rows. Each output is still one ascending-k chain started
/// from the zeroed `c`.
DMVI_KERNEL_BODY void MatMulTransposeBody(const double* a, const double* b,
                                          double* c, int m, int k, int n,
                                          double* __restrict b_t) {
  PackTransposeBody(b, n, k, b_t);
  MatMulBody(a, b_t, c, m, k, n);
}

/// Elements are independent, so the loop runs in vector lanes; each
/// element keeps the scalar expression and its order (AdamUpdate).
DMVI_KERNEL_BODY void AdamUpdateBody(double* __restrict value,
                                     double* __restrict m,
                                     double* __restrict v,
                                     const double* __restrict g, long long n,
                                     const AdamStep& step) {
  const double beta1 = step.beta1, beta2 = step.beta2;
  const double one_minus_beta1 = 1.0 - beta1;
  const double one_minus_beta2 = 1.0 - beta2;
  const double scale = step.grad_scale;
  const double bc1 = step.bias_correction1, bc2 = step.bias_correction2;
  const double lr = step.learning_rate, eps = step.epsilon;
  for (long long i = 0; i < n; ++i) {
    const double grad = g[i] * scale;
    const double mi = beta1 * m[i] + one_minus_beta1 * grad;
    const double vi = beta2 * v[i] + one_minus_beta2 * grad * grad;
    m[i] = mi;
    v[i] = vi;
    const double m_hat = mi / bc1;
    const double v_hat = vi / bc2;
    value[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

void MatMulPortable(const double* a, const double* b, double* c, int m, int k,
                    int n) {
  MatMulBody(a, b, c, m, k, n);
}

void TransposeMatMulPortable(const double* a, const double* b, double* c,
                             int m, int k, int n) {
  TransposeMatMulBody(a, b, c, m, k, n);
}

void MatMulTransposePortable(const double* a, const double* b, double* c,
                             int m, int k, int n, double* b_t) {
  MatMulTransposeBody(a, b, c, m, k, n, b_t);
}

void AdamUpdatePortable(double* value, double* m, double* v, const double* g,
                        long long n, const AdamStep& step) {
  AdamUpdateBody(value, m, v, g, n, step);
}

#if defined(__x86_64__) || defined(__i386__)
#define DMVI_X86_KERNELS 1

__attribute__((target("avx2"))) void MatMulAvx2(const double* a,
                                                const double* b, double* c,
                                                int m, int k, int n) {
  MatMulBody(a, b, c, m, k, n);
}

__attribute__((target("avx2"))) void TransposeMatMulAvx2(const double* a,
                                                         const double* b,
                                                         double* c, int m,
                                                         int k, int n) {
  TransposeMatMulBody(a, b, c, m, k, n);
}

__attribute__((target("avx2"))) void MatMulTransposeAvx2(const double* a,
                                                         const double* b,
                                                         double* c, int m,
                                                         int k, int n,
                                                         double* b_t) {
  MatMulTransposeBody(a, b, c, m, k, n, b_t);
}

__attribute__((target("avx2"))) void AdamUpdateAvx2(double* value, double* m,
                                                    double* v, const double* g,
                                                    long long n,
                                                    const AdamStep& step) {
  AdamUpdateBody(value, m, v, g, n, step);
}

__attribute__((target("avx512f"))) void MatMulAvx512(const double* a,
                                                     const double* b, double* c,
                                                     int m, int k, int n) {
  MatMulBody(a, b, c, m, k, n);
}

__attribute__((target("avx512f"))) void TransposeMatMulAvx512(
    const double* a, const double* b, double* c, int m, int k, int n) {
  TransposeMatMulBody(a, b, c, m, k, n);
}

__attribute__((target("avx512f"))) void MatMulTransposeAvx512(
    const double* a, const double* b, double* c, int m, int k, int n,
    double* b_t) {
  MatMulTransposeBody(a, b, c, m, k, n, b_t);
}

__attribute__((target("avx512f"))) void AdamUpdateAvx512(
    double* value, double* m, double* v, const double* g, long long n,
    const AdamStep& step) {
  AdamUpdateBody(value, m, v, g, n, step);
}
#endif

std::vector<MatMulKernelSet> DetectKernelSets() {
  std::vector<MatMulKernelSet> sets = {
      {"portable", &MatMulPortable, &TransposeMatMulPortable,
       &MatMulTransposePortable, &AdamUpdatePortable}};
#ifdef DMVI_X86_KERNELS
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    sets.push_back({"avx2", &MatMulAvx2, &TransposeMatMulAvx2,
                    &MatMulTransposeAvx2, &AdamUpdateAvx2});
  }
  if (__builtin_cpu_supports("avx512f")) {
    sets.push_back({"avx512", &MatMulAvx512, &TransposeMatMulAvx512,
                    &MatMulTransposeAvx512, &AdamUpdateAvx512});
  }
#endif
  return sets;
}

}  // namespace

const std::vector<MatMulKernelSet>& SupportedMatMulKernelSets() {
  static const std::vector<MatMulKernelSet> sets = DetectKernelSets();
  return sets;
}

const MatMulKernelSet& ActiveMatMulKernelSet() {
  static const MatMulKernelSet& active = SupportedMatMulKernelSets().back();
  return active;
}

void MatMulBlocked(const double* a, const double* b, double* c, int m, int k,
                   int n) {
  obs::ProfileLabelScope profile_label("matmul.blocked");
  obs::Span span = obs::KernelSpan("matmul.blocked");
  AnnotateDims(span, m, k, n);
  ActiveMatMulKernelSet().mat_mul(a, b, c, m, k, n);
}

void TransposeMatMulBlocked(const double* a, const double* b, double* c, int m,
                            int k, int n) {
  obs::ProfileLabelScope profile_label("matmul.transpose_a");
  obs::Span span = obs::KernelSpan("matmul.transpose_a");
  AnnotateDims(span, m, k, n);
  ActiveMatMulKernelSet().transpose_mat_mul(a, b, c, m, k, n);
}

void MatMulTransposeBlocked(const double* a, const double* b, double* c, int m,
                            int k, int n, double* b_t) {
  obs::ProfileLabelScope profile_label("matmul.transpose_b");
  obs::Span span = obs::KernelSpan("matmul.transpose_b");
  AnnotateDims(span, m, k, n);
  ActiveMatMulKernelSet().mat_mul_transpose(a, b, c, m, k, n, b_t);
}

void PackTranspose(const double* b, int n, int k, double* b_t) {
  obs::ProfileLabelScope profile_label("matmul.pack_transpose");
  PackTransposeBody(b, n, k, b_t);
}

void AdamUpdate(double* value, double* m, double* v, const double* g,
                long long n, const AdamStep& step) {
  obs::ProfileLabelScope profile_label("adam.update");
  ActiveMatMulKernelSet().adam_update(value, m, v, g, n, step);
}

void MatMulNaive(const double* a, const double* b, double* c, int m, int k,
                 int n) {
  for (int i = 0; i < m; ++i) {
    const double* arow = a + static_cast<long long>(i) * k;
    double* crow = c + static_cast<long long>(i) * n;
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        acc += arow[kk] * b[static_cast<long long>(kk) * n + j];
      }
      crow[j] += acc;
    }
  }
}

}  // namespace internal
}  // namespace deepmvi
