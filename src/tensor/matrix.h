#ifndef DEEPMVI_TENSOR_MATRIX_H_
#define DEEPMVI_TENSOR_MATRIX_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace deepmvi {

/// Dense row-major matrix of doubles.
///
/// This is the numeric workhorse shared by the linear-algebra substrate,
/// the autodiff engine, and every imputation algorithm. Time-series
/// datasets are stored series-major: row = series, column = time, matching
/// the matrix view used by the paper's matrix-completion baselines.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Zero-initialized rows x cols matrix.
  Matrix(int rows, int cols);

  /// Constant-filled rows x cols matrix.
  Matrix(int rows, int cols, double fill);

  /// Builds from nested initializer lists: Matrix m = {{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> values);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  // ---- Factories -----------------------------------------------------

  static Matrix Zeros(int rows, int cols) { return Matrix(rows, cols); }
  static Matrix Ones(int rows, int cols) { return Matrix(rows, cols, 1.0); }
  static Matrix Constant(int rows, int cols, double v) { return Matrix(rows, cols, v); }
  static Matrix Identity(int n);
  /// Entries ~ N(mean, stddev).
  static Matrix RandomGaussian(int rows, int cols, Rng& rng, double mean = 0.0,
                               double stddev = 1.0);
  /// Entries ~ U[lo, hi).
  static Matrix RandomUniform(int rows, int cols, Rng& rng, double lo = 0.0,
                              double hi = 1.0);
  /// Column vector from data.
  static Matrix ColumnVector(const std::vector<double>& values);
  /// Row vector from data.
  static Matrix RowVector(const std::vector<double>& values);
  /// Diagonal matrix from data.
  static Matrix Diagonal(const std::vector<double>& diag);

  // ---- Shape and element access ---------------------------------------

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t size() const { return static_cast<int64_t>(rows_) * cols_; }
  bool empty() const { return size() == 0; }

  double& operator()(int r, int c) {
    DMVI_CHECK_GE(r, 0);
    DMVI_CHECK_LT(r, rows_);
    DMVI_CHECK_GE(c, 0);
    DMVI_CHECK_LT(c, cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    DMVI_CHECK_GE(r, 0);
    DMVI_CHECK_LT(r, rows_);
    DMVI_CHECK_GE(c, 0);
    DMVI_CHECK_LT(c, cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  /// Unchecked flat access for inner loops.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row_ptr(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const double* row_ptr(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  // ---- Mutators --------------------------------------------------------

  void Fill(double v);
  /// Reshapes to rows x cols and zero-fills in place. The storage is kept
  /// when it already holds rows * cols values, so only a larger shape
  /// allocates.
  void AssignZeros(int rows, int cols);
  /// Reshapes to rows x cols like AssignZeros but leaves the values
  /// unspecified (what the storage held before, zeros past its old size):
  /// for a caller that then writes every element.
  void AssignShape(int rows, int cols);
  void SetRow(int r, const std::vector<double>& values);
  void SetCol(int c, const std::vector<double>& values);
  /// Copies `block` into this matrix with top-left corner (r0, c0).
  void SetBlock(int r0, int c0, const Matrix& block);
  /// In-place scalar ops.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);
  Matrix& operator/=(double s);

  // ---- Slicing ---------------------------------------------------------

  std::vector<double> Row(int r) const;
  std::vector<double> Col(int c) const;
  /// Sub-matrix [r0, r0+nrows) x [c0, c0+ncols).
  Matrix Block(int r0, int c0, int nrows, int ncols) const;
  Matrix Transpose() const;

  // ---- Arithmetic --------------------------------------------------------

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(double s) const;
  /// Elementwise (Hadamard) product.
  Matrix CwiseProduct(const Matrix& other) const;
  /// Elementwise division.
  Matrix CwiseQuotient(const Matrix& other) const;
  /// Applies f to every element.
  Matrix Map(double (*f)(double)) const;

  /// this * other.
  Matrix MatMul(const Matrix& other) const;
  /// this^T * other without materializing the transpose.
  Matrix TransposeMatMul(const Matrix& other) const;
  /// this * other^T without materializing the transpose.
  Matrix MatMulTranspose(const Matrix& other) const;

  // ---- Reductions ---------------------------------------------------------

  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;
  /// Frobenius norm.
  double Norm() const;
  double SquaredNorm() const;
  /// Largest absolute entry.
  double MaxAbs() const;
  /// Per-row means / per-column means.
  std::vector<double> RowMeans() const;
  std::vector<double> ColMeans() const;

  /// True if all entries are finite.
  bool AllFinite() const;

  /// Approximate equality within `tol` (max-abs difference).
  bool ApproxEquals(const Matrix& other, double tol = 1e-9) const;

  std::string ToString(int max_rows = 8, int max_cols = 10) const;

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

/// scalar * matrix.
inline Matrix operator*(double s, const Matrix& m) { return m * s; }

/// Dot product of equal-length vectors.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean norm of a vector.
double Norm(const std::vector<double>& v);

/// Pearson correlation of two equal-length vectors; returns 0 when either
/// side has zero variance.
double PearsonCorrelation(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace deepmvi

#endif  // DEEPMVI_TENSOR_MATRIX_H_
