#ifndef DEEPMVI_TENSOR_MATMUL_KERNEL_H_
#define DEEPMVI_TENSOR_MATMUL_KERNEL_H_

#include <vector>

// Blocked dense matmul kernels shared by Matrix (and through it by the
// autodiff ops and the linalg layer). All kernels work on raw row-major
// buffers, accumulate into `c` (callers zero-initialize), and keep the
// per-output-element accumulation order identical to the textbook triple
// loop: for every c[i][j] the k terms are added in ascending k with a
// single accumulator chain. Blocking therefore only reorders *which*
// outputs are touched when, never the floating-point sum inside one
// output, so results are bit-identical to the naive reference — the
// contract tests/tensor_test.cc locks in.
//
// Unlike the historical kernels there is no `a == 0.0` skip: a zero times
// a NaN/Inf contributes NaN to the sum instead of silently hiding it.
//
// The kernel bodies are compiled into more than one set: a portable one
// for baseline x86-64 (or any other target), and on x86 one for AVX2,
// whose vectors hold four doubles instead of two, and one for AVX-512F,
// whose vectors hold eight. The public functions run the widest set the
// CPU supports, picked once per process. Vector lanes are independent
// output columns, so every set keeps the per-output order above, and
// matmul_kernel.cc is built with -ffp-contract=off so no set fuses a
// multiply-add: all sets are bit-identical to MatMulNaive.
//
// Each set also carries the Adam update (nn::Adam's per-element step).
// Its lanes are independent parameter elements, and IEEE add, multiply,
// divide and square root round the same in a vector lane as in a scalar
// register, so with no contraction every set matches the scalar loop bit
// for bit (-fno-math-errno lets sqrt vectorize without changing it).

namespace deepmvi {
namespace internal {

/// c[m x n] += a[m x k] * b[k x n].
void MatMulBlocked(const double* a, const double* b, double* c, int m, int k,
                   int n);

/// c[m x n] += a^T * b with a[k x m], b[k x n] (a is accessed transposed).
void TransposeMatMulBlocked(const double* a, const double* b, double* c, int m,
                            int k, int n);

/// c[m x n] += a * b^T with a[m x k], b[n x k]. b^T is packed into `b_t`,
/// k * n doubles of storage the caller owns (an autodiff tape's pack
/// buffer, or a buffer local to Matrix::MatMulTranspose), so the kernel
/// allocates nothing. The result is bit-identical to
/// PackTranspose(b, n, k, b_t) followed by MatMulBlocked(a, b_t, c, m, k, n):
/// a caller that multiplies by one b many times may pack it once.
void MatMulTransposeBlocked(const double* a, const double* b, double* c, int m,
                            int k, int n, double* b_t);

/// Writes the transpose of b[n x k] into b_t[k x n]: the pack
/// MatMulTransposeBlocked runs before its product.
void PackTranspose(const double* b, int n, int k, double* b_t);

/// Textbook ijk triple loop, kept as the bit-exact reference the blocked
/// kernels are tested and benchmarked against.
void MatMulNaive(const double* a, const double* b, double* c, int m, int k,
                 int n);

/// The scalars of one Adam step (nn::Adam::StepWithGrads).
struct AdamStep {
  double grad_scale;  // Clip factor: clip_norm / norm, or 1 when unclipped.
  double beta1;
  double beta2;
  double bias_correction1;  // 1 - beta1^t.
  double bias_correction2;  // 1 - beta2^t.
  double learning_rate;
  double epsilon;
};

/// Adam update of n elements in place; for each i, in this order:
///   grad = g[i] * grad_scale
///   m[i] = beta1 * m[i] + (1 - beta1) * grad
///   v[i] = beta2 * v[i] + (1 - beta2) * grad * grad
///   value[i] -= learning_rate * (m[i] / bc1) / (sqrt(v[i] / bc2) + epsilon)
/// The four buffers must not overlap.
void AdamUpdate(double* value, double* m, double* v, const double* g,
                long long n, const AdamStep& step);

/// One compiled set of the three blocked kernels and the Adam update,
/// without the profile labels and trace spans the public functions add.
struct MatMulKernelSet {
  const char* name;  // "portable", "avx2" or "avx512".
  void (*mat_mul)(const double* a, const double* b, double* c, int m, int k,
                  int n);
  void (*transpose_mat_mul)(const double* a, const double* b, double* c, int m,
                            int k, int n);
  void (*mat_mul_transpose)(const double* a, const double* b, double* c, int m,
                            int k, int n, double* b_t);
  void (*adam_update)(double* value, double* m, double* v, const double* g,
                      long long n, const AdamStep& step);
};

/// Every kernel set this CPU can run, portable first and widest last.
const std::vector<MatMulKernelSet>& SupportedMatMulKernelSets();

/// The set the public kernels run: the last of SupportedMatMulKernelSets().
const MatMulKernelSet& ActiveMatMulKernelSet();

}  // namespace internal
}  // namespace deepmvi

#endif  // DEEPMVI_TENSOR_MATMUL_KERNEL_H_
