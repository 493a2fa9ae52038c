#include "data/io.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace deepmvi {
namespace {

std::vector<std::string> SplitString(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream stream(line);
  while (std::getline(stream, field, sep)) out.push_back(field);
  // Trailing separator produces an implicit empty last field.
  if (!line.empty() && line.back() == sep) out.push_back("");
  return out;
}

}  // namespace

void WriteDataTensorToStream(const DataTensor& data, std::ostream& out,
                             const Mask* mask) {
  for (const Dimension& dim : data.dims()) {
    out << "# dim:" << dim.name << "=";
    for (int m = 0; m < dim.size(); ++m) {
      if (m > 0) out << "|";
      out << dim.members[m];
    }
    out << "\n";
  }
  out.precision(17);
  for (int r = 0; r < data.num_series(); ++r) {
    for (int t = 0; t < data.num_times(); ++t) {
      if (t > 0) out << ",";
      if (mask != nullptr && mask->missing(r, t)) {
        out << "nan";
      } else {
        out << data.values()(r, t);
      }
    }
    out << "\n";
  }
}

Status WriteDataTensor(const DataTensor& data, const std::string& path,
                       const Mask* mask) {
  if (mask != nullptr) {
    if (mask->rows() != data.num_series() || mask->cols() != data.num_times()) {
      return Status::InvalidArgument("mask shape does not match dataset");
    }
  }
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  WriteDataTensorToStream(data, out, mask);
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

StatusOr<CsvSeriesReader> CsvSeriesReader::Open(const std::string& path) {
  auto file = std::make_unique<std::ifstream>(path);
  if (!*file) return Status::IoError("cannot open " + path);
  CsvSeriesReader reader(file.get(), path);
  reader.file_ = std::move(file);
  return reader;
}

StatusOr<bool> CsvSeriesReader::NextRow(std::vector<double>* values,
                                        std::vector<uint8_t>* missing) {
  std::string line;
  while (std::getline(*in_, line)) {
    if (line.empty()) continue;
    if (line.rfind("# dim:", 0) == 0) {
      const std::string spec = line.substr(6);
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("malformed dimension header: " + line);
      }
      Dimension dim;
      dim.name = spec.substr(0, eq);
      dim.members = SplitString(spec.substr(eq + 1), '|');
      if (dim.members.empty()) {
        return Status::InvalidArgument("dimension with no members: " + line);
      }
      dims_.push_back(std::move(dim));
      continue;
    }
    if (line[0] == '#') continue;  // Other comments.
    std::vector<std::string> fields = SplitString(line, ',');
    values->clear();
    missing->clear();
    values->reserve(fields.size());
    missing->reserve(fields.size());
    for (const std::string& field : fields) {
      if (field.empty() || field == "nan" || field == "NaN" || field == "NA") {
        values->push_back(0.0);
        missing->push_back(1);
        continue;
      }
      char* end = nullptr;
      const double v = std::strtod(field.c_str(), &end);
      if (end == field.c_str()) {
        return Status::InvalidArgument("non-numeric field '" + field + "'");
      }
      if (std::isnan(v)) {
        values->push_back(0.0);
        missing->push_back(1);
      } else {
        values->push_back(v);
        missing->push_back(0);
      }
    }
    if (num_cols_ < 0) {
      num_cols_ = static_cast<int>(values->size());
    } else if (static_cast<int>(values->size()) != num_cols_) {
      return Status::InvalidArgument("ragged rows in " + path_);
    }
    ++rows_read_;
    return true;
  }
  // getline stopped: distinguish a clean end of file from a stream I/O
  // failure — reporting a failing disk as EOF would silently truncate a
  // streaming conversion.
  if (in_->bad()) {
    return Status::IoError("read error in " + path_ + " after row " +
                           std::to_string(rows_read_));
  }
  return false;
}

StatusOr<DataTensor> ReadDataTensor(const std::string& path, Mask* mask_out) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return ReadDataTensor(in, path, mask_out);
}

StatusOr<DataTensor> ReadDataTensor(std::istream& in, const std::string& name,
                                    Mask* mask_out) {
  // Materializing wrapper over the streaming reader: both paths parse the
  // bytes identically, so a CSV sharded row-by-row (dmvi_shard) and one
  // slurped in-core produce the same values cell for cell.
  CsvSeriesReader reader(&in, name);
  std::vector<std::vector<double>> rows;
  std::vector<std::vector<uint8_t>> row_missing;
  std::vector<double> row_values;
  std::vector<uint8_t> row_miss;
  while (true) {
    StatusOr<bool> more = reader.NextRow(&row_values, &row_miss);
    if (!more.ok()) return more.status();
    if (!*more) break;
    // NextRow clears its outputs, so moving the buffers out is safe.
    rows.push_back(std::move(row_values));
    row_missing.push_back(std::move(row_miss));
  }
  if (rows.empty()) return Status::InvalidArgument("no data rows in " + name);

  const int n = static_cast<int>(rows.size());
  const int t_len = reader.num_cols();
  Matrix values(n, t_len);
  Mask mask(n, t_len);
  for (int r = 0; r < n; ++r) {
    for (int t = 0; t < t_len; ++t) {
      values(r, t) = rows[r][t];
      if (row_missing[r][t] != 0) mask.set_missing(r, t);
    }
  }
  if (mask_out != nullptr) *mask_out = mask;

  const std::vector<Dimension>& dims = reader.dims();
  if (dims.empty()) {
    return DataTensor::FromMatrix(std::move(values));
  }
  int64_t expected = 1;
  for (const auto& dim : dims) expected *= dim.size();
  if (expected != n) {
    return Status::InvalidArgument(
        "dimension headers imply " + std::to_string(expected) +
        " series but file has " + std::to_string(n));
  }
  return DataTensor(dims, std::move(values));
}

Status WriteMask(const Mask& mask, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  for (int r = 0; r < mask.rows(); ++r) {
    for (int t = 0; t < mask.cols(); ++t) {
      if (t > 0) out << ",";
      out << (mask.available(r, t) ? 1 : 0);
    }
    out << "\n";
  }
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

StatusOr<Mask> ReadMask(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<std::vector<bool>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields = SplitString(line, ',');
    std::vector<bool> row;
    row.reserve(fields.size());
    for (const std::string& field : fields) {
      if (field == "1") {
        row.push_back(true);
      } else if (field == "0") {
        row.push_back(false);
      } else {
        return Status::InvalidArgument("mask field must be 0/1, got '" +
                                       field + "'");
      }
    }
    if (!rows.empty() && row.size() != rows[0].size()) {
      return Status::InvalidArgument("ragged rows in " + path);
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return Status::InvalidArgument("no rows in " + path);
  Mask mask(static_cast<int>(rows.size()), static_cast<int>(rows[0].size()));
  for (int r = 0; r < mask.rows(); ++r) {
    for (int t = 0; t < mask.cols(); ++t) {
      mask.set_available(r, t, rows[r][t]);
    }
  }
  return mask;
}

}  // namespace deepmvi
