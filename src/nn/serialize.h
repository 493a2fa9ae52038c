#ifndef DEEPMVI_NN_SERIALIZE_H_
#define DEEPMVI_NN_SERIALIZE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/parameter.h"
#include "tensor/data_tensor.h"
#include "tensor/matrix.h"

namespace deepmvi {
namespace nn {

/// Binary (de)serialization for Matrix, Parameter, and ParameterStore —
/// the checkpoint substrate of the train-once/serve-many split.
///
/// Store file layout (little-endian, raw IEEE-754 doubles, so round trips
/// are exact to the bit):
///
///   magic   "DMVP" (4 bytes)
///   version uint32 (currently 1)
///   count   uint64 (number of parameter records)
///   records, one per parameter:
///     name   uint32 length + bytes
///     value  matrix record (int32 rows, int32 cols, rows*cols doubles)
///     adam_m matrix record
///     adam_v matrix record
///
/// Records are name-keyed: LoadParameterStore matches each record to the
/// parameter of the same name in the destination store (typically freshly
/// built from the model config), so the store's creation order need not
/// match the file. Corrupt headers, truncated files, and name/shape
/// mismatches are reported as Status errors, never crashes.

/// Raw little-endian POD write, the primitive every record is built from.
/// Shared with higher-level checkpoint writers (core/trained_deepmvi.cc).
template <typename T>
void WritePod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Raw POD read; returns false on short reads (truncated file).
template <typename T>
bool ReadPod(std::istream& is, T* value) {
  is.read(reinterpret_cast<char*>(value), sizeof(T));
  return is.gcount() == static_cast<std::streamsize>(sizeof(T));
}

/// Length-prefixed string record (uint32 length + bytes). Both sides
/// reject a string longer than 1 MiB.
Status WriteString(std::ostream& os, const std::string& s);
StatusOr<std::string> ReadString(std::istream& is);

/// Bounds of a valid dimension table: 1 to kMaxDims dimensions, each with
/// at least one member, whose member counts multiply out to at most
/// kMaxTableSeries series (so no dimension has more members than that).
constexpr uint32_t kMaxDims = 64;
constexpr int kMaxTableSeries = 1 << 24;

/// The dimension table of checkpoints and chunk-store manifests: uint32
/// dimension count, then per dimension its name string, a uint32 member
/// count and the member strings. WriteDims fails on every table ReadDims
/// would reject (on one that breaks the bounds above before writing a
/// byte), so a table it finishes always reads back. ReadDims checks the
/// bounds as it reads, before it reads a dimension's members. Both return
/// the table's series count, the product of its member counts.
StatusOr<int> WriteDims(std::ostream& os, const std::vector<Dimension>& dims);
StatusOr<int> ReadDims(std::istream& is, std::vector<Dimension>* dims);

/// The series count of `dims`, or InvalidArgument when the table breaks a
/// bound above; the check WriteDims runs before it writes.
StatusOr<int> TableSeriesCount(const std::vector<Dimension>& dims);

/// Writes one matrix record (shape header + raw doubles) to `os`.
Status WriteMatrix(std::ostream& os, const Matrix& matrix);

/// Writes one parameter record (name + value + Adam moments).
Status WriteParameter(std::ostream& os, const Parameter& parameter);

/// Reads the next parameter record and applies it to the parameter of the
/// same name in `store` (value and Adam moments), reading each matrix body
/// straight into the parameter. Returns the restored name. Fails with
/// kNotFound for unknown names and kInvalidArgument for a shape mismatch,
/// found from the record's shape before any body is read.
StatusOr<std::string> ReadParameterInto(std::istream& is,
                                        ParameterStore& store);

/// Writes the versioned header plus every parameter of `store` to `os`.
Status SaveParameterStore(const ParameterStore& store, std::ostream& os);

/// Reads a store section written by SaveParameterStore into `store`. The
/// destination must contain exactly the parameters named in the file (the
/// usual pattern is to rebuild the model from its config first); missing
/// or extra parameters are an error so a successful load is a complete
/// restore.
Status LoadParameterStore(std::istream& is, ParameterStore& store);

/// File-path convenience wrappers.
Status SaveParameterStoreToFile(const ParameterStore& store,
                                const std::string& path);
Status LoadParameterStoreFromFile(const std::string& path,
                                  ParameterStore& store);

}  // namespace nn
}  // namespace deepmvi

#endif  // DEEPMVI_NN_SERIALIZE_H_
