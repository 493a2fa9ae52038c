#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>

#include "tensor/matmul_kernel.h"

namespace deepmvi {

Matrix::Matrix(int rows, int cols)
    : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, 0.0) {
  DMVI_CHECK_GE(rows, 0);
  DMVI_CHECK_GE(cols, 0);
}

Matrix::Matrix(int rows, int cols, double fill)
    : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, fill) {
  DMVI_CHECK_GE(rows, 0);
  DMVI_CHECK_GE(cols, 0);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> values) {
  rows_ = static_cast<int>(values.size());
  cols_ = rows_ > 0 ? static_cast<int>(values.begin()->size()) : 0;
  data_.reserve(static_cast<size_t>(rows_) * cols_);
  for (const auto& row : values) {
    DMVI_CHECK_EQ(static_cast<int>(row.size()), cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::RandomGaussian(int rows, int cols, Rng& rng, double mean,
                              double stddev) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng.Gaussian(mean, stddev);
  return m;
}

Matrix Matrix::RandomUniform(int rows, int cols, Rng& rng, double lo, double hi) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng.Uniform(lo, hi);
  return m;
}

Matrix Matrix::ColumnVector(const std::vector<double>& values) {
  Matrix m(static_cast<int>(values.size()), 1);
  for (size_t i = 0; i < values.size(); ++i) m.data_[i] = values[i];
  return m;
}

Matrix Matrix::RowVector(const std::vector<double>& values) {
  Matrix m(1, static_cast<int>(values.size()));
  for (size_t i = 0; i < values.size(); ++i) m.data_[i] = values[i];
  return m;
}

Matrix Matrix::Diagonal(const std::vector<double>& diag) {
  int n = static_cast<int>(diag.size());
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = diag[i];
  return m;
}

void Matrix::Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::AssignZeros(int rows, int cols) {
  DMVI_CHECK_GE(rows, 0);
  DMVI_CHECK_GE(cols, 0);
  rows_ = rows;
  cols_ = cols;
  // vector::assign reallocates only when the count exceeds the capacity.
  data_.assign(static_cast<size_t>(rows) * cols, 0.0);
}

void Matrix::AssignShape(int rows, int cols) {
  DMVI_CHECK_GE(rows, 0);
  DMVI_CHECK_GE(cols, 0);
  rows_ = rows;
  cols_ = cols;
  data_.resize(static_cast<size_t>(rows) * cols);
}

void Matrix::SetRow(int r, const std::vector<double>& values) {
  DMVI_CHECK_EQ(static_cast<int>(values.size()), cols_);
  std::copy(values.begin(), values.end(), row_ptr(r));
}

void Matrix::SetCol(int c, const std::vector<double>& values) {
  DMVI_CHECK_EQ(static_cast<int>(values.size()), rows_);
  for (int r = 0; r < rows_; ++r) (*this)(r, c) = values[r];
}

void Matrix::SetBlock(int r0, int c0, const Matrix& block) {
  DMVI_CHECK_LE(r0 + block.rows(), rows_);
  DMVI_CHECK_LE(c0 + block.cols(), cols_);
  for (int r = 0; r < block.rows(); ++r) {
    std::copy(block.row_ptr(r), block.row_ptr(r) + block.cols(),
              row_ptr(r0 + r) + c0);
  }
}

Matrix& Matrix::operator+=(const Matrix& other) {
  DMVI_CHECK_EQ(rows_, other.rows_);
  DMVI_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  DMVI_CHECK_EQ(rows_, other.rows_);
  DMVI_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix& Matrix::operator/=(double s) {
  DMVI_CHECK_NE(s, 0.0);
  for (auto& v : data_) v /= s;
  return *this;
}

std::vector<double> Matrix::Row(int r) const {
  return std::vector<double>(row_ptr(r), row_ptr(r) + cols_);
}

std::vector<double> Matrix::Col(int c) const {
  std::vector<double> out(rows_);
  for (int r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

Matrix Matrix::Block(int r0, int c0, int nrows, int ncols) const {
  DMVI_CHECK_GE(r0, 0);
  DMVI_CHECK_GE(c0, 0);
  DMVI_CHECK_LE(r0 + nrows, rows_);
  DMVI_CHECK_LE(c0 + ncols, cols_);
  Matrix out(nrows, ncols);
  for (int r = 0; r < nrows; ++r) {
    std::copy(row_ptr(r0 + r) + c0, row_ptr(r0 + r) + c0 + ncols, out.row_ptr(r));
  }
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    const double* src = row_ptr(r);
    for (int c = 0; c < cols_; ++c) out(c, r) = src[c];
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out = *this;
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  Matrix out = *this;
  out -= other;
  return out;
}

Matrix Matrix::operator*(double s) const {
  Matrix out = *this;
  out *= s;
  return out;
}

Matrix Matrix::CwiseProduct(const Matrix& other) const {
  DMVI_CHECK_EQ(rows_, other.rows_);
  DMVI_CHECK_EQ(cols_, other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] *= other.data_[i];
  return out;
}

Matrix Matrix::CwiseQuotient(const Matrix& other) const {
  DMVI_CHECK_EQ(rows_, other.rows_);
  DMVI_CHECK_EQ(cols_, other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] /= other.data_[i];
  return out;
}

Matrix Matrix::Map(double (*f)(double)) const {
  Matrix out = *this;
  for (auto& v : out.data_) v = f(v);
  return out;
}

// The three product variants share the blocked kernels in
// matmul_kernel.cc. The historical ikj loops skipped a == 0.0 terms, which
// silently turned 0 * NaN / 0 * Inf into 0 and hid non-finite operands;
// the kernels carry no such branch, so non-finite values propagate.

Matrix Matrix::MatMul(const Matrix& other) const {
  DMVI_CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_);
  internal::MatMulBlocked(data(), other.data(), out.data(), rows_, cols_,
                          other.cols_);
  return out;
}

Matrix Matrix::TransposeMatMul(const Matrix& other) const {
  DMVI_CHECK_EQ(rows_, other.rows_);
  Matrix out(cols_, other.cols_);
  internal::TransposeMatMulBlocked(data(), other.data(), out.data(), cols_,
                                   rows_, other.cols_);
  return out;
}

Matrix Matrix::MatMulTranspose(const Matrix& other) const {
  DMVI_CHECK_EQ(cols_, other.cols_);
  Matrix out(rows_, other.rows_);
  // The packed other^T lives for this one product.
  std::unique_ptr<double[]> other_t(new double[other.size()]);
  internal::MatMulTransposeBlocked(data(), other.data(), out.data(), rows_,
                                   cols_, other.rows_, other_t.get());
  return out;
}

double Matrix::Sum() const {
  double acc = 0.0;
  for (double v : data_) acc += v;
  return acc;
}

double Matrix::Mean() const {
  DMVI_CHECK_GT(size(), 0);
  return Sum() / static_cast<double>(size());
}

double Matrix::Min() const {
  DMVI_CHECK_GT(size(), 0);
  return *std::min_element(data_.begin(), data_.end());
}

double Matrix::Max() const {
  DMVI_CHECK_GT(size(), 0);
  return *std::max_element(data_.begin(), data_.end());
}

double Matrix::Norm() const { return std::sqrt(SquaredNorm()); }

double Matrix::SquaredNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return acc;
}

double Matrix::MaxAbs() const {
  double acc = 0.0;
  for (double v : data_) acc = std::max(acc, std::fabs(v));
  return acc;
}

std::vector<double> Matrix::RowMeans() const {
  DMVI_CHECK_GT(cols_, 0);
  std::vector<double> out(rows_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    const double* p = row_ptr(r);
    double acc = 0.0;
    for (int c = 0; c < cols_; ++c) acc += p[c];
    out[r] = acc / cols_;
  }
  return out;
}

std::vector<double> Matrix::ColMeans() const {
  DMVI_CHECK_GT(rows_, 0);
  std::vector<double> out(cols_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    const double* p = row_ptr(r);
    for (int c = 0; c < cols_; ++c) out[c] += p[c];
  }
  for (auto& v : out) v /= rows_;
  return out;
}

bool Matrix::AllFinite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool Matrix::ApproxEquals(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Matrix::ToString(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << "Matrix " << rows_ << "x" << cols_ << "\n";
  const int show_r = std::min(rows_, max_rows);
  const int show_c = std::min(cols_, max_cols);
  char buf[48];
  for (int r = 0; r < show_r; ++r) {
    os << "  [";
    for (int c = 0; c < show_c; ++c) {
      std::snprintf(buf, sizeof(buf), "%10.4g", (*this)(r, c));
      os << buf << (c + 1 < show_c ? ", " : "");
    }
    if (show_c < cols_) os << ", ...";
    os << "]\n";
  }
  if (show_r < rows_) os << "  ...\n";
  return os.str();
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  DMVI_CHECK_EQ(a.size(), b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm(const std::vector<double>& v) { return std::sqrt(Dot(v, v)); }

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  DMVI_CHECK_EQ(a.size(), b.size());
  const size_t n = a.size();
  if (n == 0) return 0.0;
  double ma = 0.0, mb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  if (saa <= 0.0 || sbb <= 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

}  // namespace deepmvi
