#include "tensor/data_tensor.h"

#include <cmath>

#include "tensor/value_window.h"

namespace deepmvi {

DataTensor::DataTensor(std::vector<Dimension> dims, Matrix values)
    : dims_(std::move(dims)), values_(std::move(values)) {
  DMVI_CHECK(!dims_.empty());
  int64_t expected_rows = 1;
  for (const auto& d : dims_) {
    DMVI_CHECK_GT(d.size(), 0);
    expected_rows *= d.size();
  }
  DMVI_CHECK_EQ(expected_rows, values_.rows());
  strides_.assign(dims_.size(), 1);
  for (int i = num_dims() - 2; i >= 0; --i) {
    strides_[i] = strides_[i + 1] * dims_[i + 1].size();
  }
}

DataTensor DataTensor::FromMatrix(Matrix values, const std::string& dim_name) {
  Dimension d;
  d.name = dim_name;
  d.members.reserve(values.rows());
  for (int r = 0; r < values.rows(); ++r) {
    d.members.push_back("s" + std::to_string(r));
  }
  return DataTensor({std::move(d)}, std::move(values));
}

int DataTensor::FlattenIndex(const std::vector<int>& k) const {
  DMVI_CHECK_EQ(static_cast<int>(k.size()), num_dims());
  int row = 0;
  for (int i = 0; i < num_dims(); ++i) {
    DMVI_CHECK_GE(k[i], 0);
    DMVI_CHECK_LT(k[i], dims_[i].size());
    row += k[i] * strides_[i];
  }
  return row;
}

std::vector<int> DataTensor::UnflattenRow(int row) const {
  DMVI_CHECK_GE(row, 0);
  DMVI_CHECK_LT(row, num_series());
  std::vector<int> k(num_dims());
  for (int i = 0; i < num_dims(); ++i) {
    k[i] = row / strides_[i];
    row %= strides_[i];
  }
  return k;
}

std::vector<int> DataTensor::Siblings(int row, int dim_index) const {
  DMVI_CHECK_GE(dim_index, 0);
  DMVI_CHECK_LT(dim_index, num_dims());
  std::vector<int> k = UnflattenRow(row);
  std::vector<int> out;
  out.reserve(dims_[dim_index].size() - 1);
  const int own_member = k[dim_index];
  for (int m = 0; m < dims_[dim_index].size(); ++m) {
    if (m == own_member) continue;
    out.push_back(row + (m - own_member) * strides_[dim_index]);
  }
  return out;
}

DataTensor DataTensor::Flattened1D() const {
  if (num_dims() == 1) return *this;
  return DataTensor(FlattenedDims(dims_), values_);
}

DataTensor DataTensor::LayoutOnly(std::vector<Dimension> dims) {
  int64_t rows = 1;
  for (const auto& d : dims) rows *= d.size();
  return DataTensor(std::move(dims), Matrix(static_cast<int>(rows), 0));
}

std::vector<Dimension> FlattenedDims(const std::vector<Dimension>& dims) {
  if (dims.size() == 1) return dims;
  // Row-major strides, as in the DataTensor constructor.
  const int n = static_cast<int>(dims.size());
  std::vector<int> strides(n, 1);
  int64_t rows = 1;
  for (int i = n - 2; i >= 0; --i) strides[i] = strides[i + 1] * dims[i + 1].size();
  for (const auto& d : dims) rows *= d.size();

  Dimension flat;
  flat.name = "series";
  flat.members.reserve(rows);
  for (int r = 0; r < rows; ++r) {
    std::string name;
    int rest = r;
    for (int i = 0; i < n; ++i) {
      if (i > 0) name += "|";
      name += dims[i].members[rest / strides[i]];
      rest %= strides[i];
    }
    flat.members.push_back(std::move(name));
  }
  return {std::move(flat)};
}

DataTensor::NormalizationStats DataTensor::ComputeNormalization(
    const Mask& mask) const {
  DMVI_CHECK_EQ(mask.rows(), num_series());
  DMVI_CHECK_EQ(mask.cols(), num_times());
  NormalizationAccumulator acc(num_series());
  for (int r = 0; r < num_series(); ++r) {
    for (int t = 0; t < num_times(); ++t) {
      if (mask.available(r, t)) acc.Add(r, values_(r, t));
    }
  }
  return acc.Finalize();
}

DataTensor::NormalizationStats DataTensor::NormalizationAccumulator::Finalize()
    const {
  const int num_series = static_cast<int>(sum_.size());
  NormalizationStats stats;
  stats.mean.assign(num_series, 0.0);
  stats.stddev.assign(num_series, 1.0);

  // Global mean of available cells: fallback for fully-missing series.
  // Summed from the per-series partials (in series order) so a chunked
  // reader that accumulates per series reproduces it exactly.
  double global_sum = 0.0;
  int64_t global_count = 0;
  for (int r = 0; r < num_series; ++r) {
    global_sum += sum_[r];
    global_count += count_[r];
  }
  const double global_mean = global_count > 0 ? global_sum / global_count : 0.0;

  for (int r = 0; r < num_series; ++r) {
    if (count_[r] == 0) {
      stats.mean[r] = global_mean;
      stats.stddev[r] = 1.0;
      continue;
    }
    const double mean = sum_[r] / count_[r];
    const double var = std::max(sum2_[r] / count_[r] - mean * mean, 0.0);
    stats.mean[r] = mean;
    stats.stddev[r] = var > 1e-12 ? std::sqrt(var) : 1.0;
  }
  return stats;
}

DataTensor DataTensor::Normalized(const NormalizationStats& stats) const {
  DMVI_CHECK_EQ(static_cast<int>(stats.mean.size()), num_series());
  const ValueWindow normalized(values_, stats);
  Matrix out(num_series(), num_times());
  for (int r = 0; r < num_series(); ++r) {
    for (int t = 0; t < num_times(); ++t) out(r, t) = normalized(r, t);
  }
  return DataTensor(dims_, std::move(out));
}

Matrix DataTensor::Denormalize(const Matrix& values,
                               const NormalizationStats& stats) {
  DMVI_CHECK_EQ(static_cast<int>(stats.mean.size()), values.rows());
  Matrix out = values;
  for (int r = 0; r < out.rows(); ++r) {
    for (int t = 0; t < out.cols(); ++t) {
      out(r, t) = out(r, t) * stats.stddev[r] + stats.mean[r];
    }
  }
  return out;
}

}  // namespace deepmvi
