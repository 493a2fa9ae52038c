#ifndef DEEPMVI_DATA_IO_H_
#define DEEPMVI_DATA_IO_H_

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "tensor/data_tensor.h"
#include "tensor/mask.h"

namespace deepmvi {

/// CSV persistence for datasets and masks.
///
/// Dataset format (series-major, one row per series):
///   # dim:<name>=<member>[|<member2>...]   (one header line per dimension)
///   v_00,v_01,...,v_0T
///   v_10,v_11,...
/// Missing cells may be written as the literal `nan` or an empty field;
/// ReadDataTensor reports them through the optional Mask output.
///
/// Mask format: same shape, fields are 1 (available) / 0 (missing).

/// Writes `data` to `path`. Cells missing in `mask` (when provided) are
/// written as `nan`.
Status WriteDataTensor(const DataTensor& data, const std::string& path,
                       const Mask* mask = nullptr);

/// The formatting core of WriteDataTensor, exposed so other emitters (the
/// HTTP layer's text/csv responses) produce byte-identical output to the
/// files the tools write — the cross-transport `cmp` checks depend on a
/// single formatting path. `mask` must already be shape-checked.
void WriteDataTensorToStream(const DataTensor& data, std::ostream& out,
                             const Mask* mask = nullptr);

/// Reads a dataset written by WriteDataTensor (or any plain numeric CSV
/// without the dimension headers — then a single anonymous dimension is
/// created). When `mask_out` is non-null, cells that are empty or `nan`
/// are marked missing (and stored as 0.0 in the tensor).
StatusOr<DataTensor> ReadDataTensor(const std::string& path,
                                    Mask* mask_out = nullptr);

/// The same parse over any stream (an HTTP body, say); `name` stands for
/// the path in error messages.
StatusOr<DataTensor> ReadDataTensor(std::istream& in, const std::string& name,
                                    Mask* mask_out = nullptr);

/// Writes / reads an availability mask as 0/1 CSV.
Status WriteMask(const Mask& mask, const std::string& path);
StatusOr<Mask> ReadMask(const std::string& path);

/// Streaming row-by-row reader for the dataset CSV format: dimension
/// headers are parsed up front, then NextRow yields one series at a time,
/// so files larger than RAM can be converted (e.g. into a chunked store by
/// dmvi_shard) without ever materializing the full matrix. ReadDataTensor
/// is a thin materializing wrapper over this reader, so the two parse
/// identically.
class CsvSeriesReader {
 public:
  static StatusOr<CsvSeriesReader> Open(const std::string& path);

  /// Reads `in`, which must outlive the reader; `name` stands for the
  /// path in error messages.
  CsvSeriesReader(std::istream* in, std::string name)
      : path_(std::move(name)), in_(in) {}

  /// Empty (unopened) reader; StatusOr needs this. Use Open().
  CsvSeriesReader() = default;

  /// Dimension headers seen so far; in the standard format they precede
  /// the data, so this is complete after the first NextRow (and certainly
  /// after the last). Empty for a plain numeric CSV — the caller then
  /// typically builds a single anonymous dimension.
  const std::vector<Dimension>& dims() const { return dims_; }

  /// Reads the next data row into `values` (missing cells stored as 0.0)
  /// and `missing` (1 = missing). Returns false at end of file, true when
  /// a row was produced; malformed rows (non-numeric fields, ragged
  /// lengths) are Status errors. Vectors are reused across calls.
  StatusOr<bool> NextRow(std::vector<double>* values,
                         std::vector<uint8_t>* missing);

  /// Number of columns, known after the first NextRow.
  int num_cols() const { return num_cols_; }
  /// Data rows produced so far.
  int rows_read() const { return rows_read_; }

 private:
  std::string path_;
  // The file Open() owns (null for a caller's stream). Move-only: copies
  // would share (and race on) one stream position.
  std::unique_ptr<std::ifstream> file_;
  std::istream* in_ = nullptr;  // file_, or the caller's stream.
  std::vector<Dimension> dims_;
  int num_cols_ = -1;
  int rows_read_ = 0;
};

}  // namespace deepmvi

#endif  // DEEPMVI_DATA_IO_H_
