#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <set>
#include <utility>

namespace deepmvi {
namespace nn {
namespace {

constexpr char kStoreMagic[4] = {'D', 'M', 'V', 'P'};
constexpr uint32_t kStoreVersion = 1;

// Sanity bounds so a corrupt header fails fast instead of driving a
// multi-gigabyte allocation.
constexpr uint32_t kMaxNameLength = 1 << 20;
constexpr uint64_t kMaxParameters = 1 << 24;

/// Reads a matrix record straight into the existing `dst`: the record's
/// shape must equal dst's, so nothing is allocated.
Status ReadMatrixInto(std::istream& is, const std::string& what, Matrix& dst) {
  int32_t rows = 0;
  int32_t cols = 0;
  if (!ReadPod(is, &rows) || !ReadPod(is, &cols)) {
    return Status::IoError("truncated file: matrix shape missing");
  }
  if (rows != dst.rows() || cols != dst.cols()) {
    return Status::InvalidArgument(
        "shape mismatch for " + what + ": file has " + std::to_string(rows) +
        "x" + std::to_string(cols) + ", store has " +
        std::to_string(dst.rows()) + "x" + std::to_string(dst.cols()));
  }
  const std::streamsize bytes =
      static_cast<std::streamsize>(dst.size() * sizeof(double));
  is.read(reinterpret_cast<char*>(dst.data()), bytes);
  if (is.gcount() != bytes) {
    return Status::IoError("truncated file: matrix body missing");
  }
  return Status::OK();
}

Status CheckDimCount(uint64_t count) {
  if (count == 0 || count > kMaxDims) {
    return Status::InvalidArgument(
        "invalid dimension table: dimension count " +
        std::to_string(count) + " outside [1, " + std::to_string(kMaxDims) +
        "]");
  }
  return Status::OK();
}

/// Multiplies *series by a dimension's member count, which must be at least
/// one and keep the product within kMaxTableSeries.
Status MultiplySeries(const std::string& dim, uint64_t members, int* series) {
  if (members == 0 ||
      members > static_cast<uint64_t>(kMaxTableSeries / *series)) {
    return Status::InvalidArgument(
        "invalid dimension table: dimension '" + dim + "' has " +
        std::to_string(members) + " members, a table holds 1 to " +
        std::to_string(kMaxTableSeries) + " series");
  }
  *series *= static_cast<int>(members);
  return Status::OK();
}

}  // namespace

Status WriteString(std::ostream& os, const std::string& s) {
  if (s.size() > kMaxNameLength) {
    return Status::InvalidArgument("string of " + std::to_string(s.size()) +
                                   " bytes exceeds the string record bound");
  }
  WritePod(os, static_cast<uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
  if (!os) return Status::IoError("write failed for string record");
  return Status::OK();
}

StatusOr<std::string> ReadString(std::istream& is) {
  uint32_t length = 0;
  if (!ReadPod(is, &length)) {
    return Status::IoError("truncated file: string length missing");
  }
  if (length > kMaxNameLength) {
    return Status::InvalidArgument("corrupt file: implausible string length " +
                                   std::to_string(length));
  }
  std::string out(length, '\0');
  is.read(out.data(), static_cast<std::streamsize>(length));
  if (is.gcount() != static_cast<std::streamsize>(length)) {
    return Status::IoError("truncated file: string body missing");
  }
  return out;
}

Status WriteMatrix(std::ostream& os, const Matrix& matrix) {
  WritePod(os, static_cast<int32_t>(matrix.rows()));
  WritePod(os, static_cast<int32_t>(matrix.cols()));
  os.write(reinterpret_cast<const char*>(matrix.data()),
           static_cast<std::streamsize>(matrix.size() * sizeof(double)));
  if (!os) return Status::IoError("write failed for matrix record");
  return Status::OK();
}

StatusOr<int> TableSeriesCount(const std::vector<Dimension>& dims) {
  DMVI_RETURN_IF_ERROR(CheckDimCount(dims.size()));
  int series = 1;
  for (const Dimension& dim : dims) {
    DMVI_RETURN_IF_ERROR(MultiplySeries(dim.name, dim.members.size(), &series));
  }
  return series;
}

StatusOr<int> WriteDims(std::ostream& os, const std::vector<Dimension>& dims) {
  StatusOr<int> series = TableSeriesCount(dims);
  if (!series.ok()) return series.status();
  WritePod(os, static_cast<uint32_t>(dims.size()));
  for (const Dimension& dim : dims) {
    DMVI_RETURN_IF_ERROR(WriteString(os, dim.name));
    WritePod(os, static_cast<uint32_t>(dim.members.size()));
    for (const std::string& member : dim.members) {
      DMVI_RETURN_IF_ERROR(WriteString(os, member));
    }
  }
  if (!os) return Status::IoError("write failed for dimension table");
  return series;
}

StatusOr<int> ReadDims(std::istream& is, std::vector<Dimension>* dims) {
  uint32_t count = 0;
  if (!ReadPod(is, &count)) {
    return Status::IoError("truncated file: dimension count missing");
  }
  DMVI_RETURN_IF_ERROR(CheckDimCount(count));
  dims->clear();
  int series = 1;
  for (uint32_t d = 0; d < count; ++d) {
    Dimension dim;
    StatusOr<std::string> name = ReadString(is);
    if (!name.ok()) return name.status();
    dim.name = std::move(name).value();
    uint32_t num_members = 0;
    if (!ReadPod(is, &num_members)) {
      return Status::IoError("truncated file: member count missing");
    }
    DMVI_RETURN_IF_ERROR(MultiplySeries(dim.name, num_members, &series));
    // No reserve: the members grow only as fast as the file supplies them.
    for (uint32_t m = 0; m < num_members; ++m) {
      StatusOr<std::string> member = ReadString(is);
      if (!member.ok()) return member.status();
      dim.members.push_back(std::move(member).value());
    }
    dims->push_back(std::move(dim));
  }
  return series;
}

Status WriteParameter(std::ostream& os, const Parameter& parameter) {
  DMVI_RETURN_IF_ERROR(WriteString(os, parameter.name()));
  DMVI_RETURN_IF_ERROR(WriteMatrix(os, parameter.value()));
  // Adam moments ride along so a resumed training run continues exactly
  // where the checkpoint left off.
  DMVI_RETURN_IF_ERROR(WriteMatrix(os, parameter.adam_m()));
  DMVI_RETURN_IF_ERROR(WriteMatrix(os, parameter.adam_v()));
  return Status::OK();
}

StatusOr<std::string> ReadParameterInto(std::istream& is,
                                        ParameterStore& store) {
  StatusOr<std::string> name = ReadString(is);
  if (!name.ok()) return name.status();
  Parameter* parameter = store.Find(*name);
  if (parameter == nullptr) {
    return Status::NotFound("checkpoint names unknown parameter '" + *name +
                            "'");
  }
  DMVI_RETURN_IF_ERROR(ReadMatrixInto(is, *name, parameter->value()));
  DMVI_RETURN_IF_ERROR(
      ReadMatrixInto(is, *name + ".adam_m", parameter->adam_m()));
  DMVI_RETURN_IF_ERROR(
      ReadMatrixInto(is, *name + ".adam_v", parameter->adam_v()));
  return name;
}

Status SaveParameterStore(const ParameterStore& store, std::ostream& os) {
  os.write(kStoreMagic, sizeof(kStoreMagic));
  WritePod(os, kStoreVersion);
  WritePod(os, static_cast<uint64_t>(store.params().size()));
  for (const auto& parameter : store.params()) {
    DMVI_RETURN_IF_ERROR(WriteParameter(os, *parameter));
  }
  if (!os) return Status::IoError("write failed for parameter store");
  return Status::OK();
}

Status LoadParameterStore(std::istream& is, ParameterStore& store) {
  char magic[4] = {};
  is.read(magic, sizeof(magic));
  if (is.gcount() != sizeof(magic)) {
    return Status::IoError("truncated file: store header missing");
  }
  if (std::memcmp(magic, kStoreMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument(
        "corrupt file: bad parameter-store magic (not a DMVP section)");
  }
  uint32_t version = 0;
  if (!ReadPod(is, &version)) {
    return Status::IoError("truncated file: store version missing");
  }
  if (version != kStoreVersion) {
    return Status::InvalidArgument("unsupported parameter-store version " +
                                   std::to_string(version));
  }
  uint64_t count = 0;
  if (!ReadPod(is, &count)) {
    return Status::IoError("truncated file: parameter count missing");
  }
  if (count > kMaxParameters) {
    return Status::InvalidArgument(
        "corrupt file: implausible parameter count " + std::to_string(count));
  }
  if (count != store.params().size()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(count) + " parameters, store has " +
        std::to_string(store.params().size()) +
        " (model config does not match the checkpoint)");
  }
  // Count equality alone would accept a file that names one parameter
  // twice and another never; track names so a successful load really is a
  // complete restore.
  std::set<std::string> restored;
  for (uint64_t i = 0; i < count; ++i) {
    StatusOr<std::string> name = ReadParameterInto(is, store);
    if (!name.ok()) return name.status();
    if (!restored.insert(*name).second) {
      return Status::InvalidArgument(
          "corrupt file: parameter '" + *name + "' appears twice");
    }
  }
  return Status::OK();
}

Status SaveParameterStoreToFile(const ParameterStore& store,
                                const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  DMVI_RETURN_IF_ERROR(SaveParameterStore(store, out));
  out.close();
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Status LoadParameterStoreFromFile(const std::string& path,
                                  ParameterStore& store) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path + " for reading");
  return LoadParameterStore(in, store);
}

}  // namespace nn
}  // namespace deepmvi
