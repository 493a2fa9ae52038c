#ifndef DEEPMVI_NET_CODEC_H_
#define DEEPMVI_NET_CODEC_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/http.h"
#include "serve/service.h"
#include "serve/workload.h"

namespace deepmvi {
namespace net {

// ---- Minimal JSON document model --------------------------------------------

/// A parsed JSON value. Deliberately tiny: the request bodies this server
/// accepts are small control documents (the bulk payloads — datasets,
/// imputed matrices — travel as CSV), so a simple recursive model with
/// std::map/std::vector storage is plenty and keeps dmvi_net free of
/// third-party dependencies.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::map<std::string, JsonValue>& object_items() const {
    return object_;
  }

  /// Member `key` of an object, or null-kind sentinel when absent (or when
  /// this value is not an object) — chains safely.
  const JsonValue& at(const std::string& key) const;

  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(std::map<std::string, JsonValue> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses a complete JSON document (single value, trailing whitespace
/// allowed). Malformed input is an InvalidArgument Status naming the byte
/// offset — the server turns it into a 400 whose body carries the message.
StatusOr<JsonValue> ParseJson(const std::string& text);

// ---- /v1/impute request decoding --------------------------------------------

/// The decoded intent of one POST /v1/impute body. Exactly one data mode:
///  - query mode: `{"query": {"row": R, "t_start": T, "block_len": L}}`
///    hides one block of the *served* dataset on top of its base mask
///    (the workload unit dmvi_serve replays in-process);
///  - base mode: `{}` / no query — impute the served dataset's own base
///    mask (the cross-process exactness check);
///  - inline mode: `{"values": [[...]]}` rows of numbers with `null`
///    marking the cells to impute — self-contained requests that need no
///    server-side dataset.
/// A "model" field must pass CheckModelField. The response format follows
/// the Accept header: text/csv streams the full completed matrix in the
/// exact WriteDataTensor format; anything else gets JSON with only the
/// imputed cells.
struct ImputeApiRequest {
  bool has_query = false;
  serve::WorkloadQuery query;
  bool has_inline_data = false;
  Matrix inline_values;  // Missing cells hold 0.0.
  Mask inline_mask;      // Missing where the JSON held null.
  bool csv_response = false;
};

/// The one-model rule of the bodies of POST /v1/impute and POST
/// /admin/reload: a "model" field that is absent or "default"
/// (serve::kServedModelName) names the served model; another string is
/// NotFound (404) and any other JSON value InvalidArgument (400).
Status CheckModelField(const JsonValue& body);

/// Decodes the body of a POST /v1/impute. Malformed JSON or an invalid
/// combination of fields is InvalidArgument (answered as 400 with the
/// Status message in the body); a model name other than the served one
/// is NotFound (CheckModelField).
StatusOr<ImputeApiRequest> DecodeImputeRequest(const HttpMessage& request);

// ---- Response encoding ------------------------------------------------------

/// The completed matrix in the exact dataset CSV format WriteDataTensor
/// emits (dimension headers from `dims`, precision 17) — the byte-identity
/// anchor: fetching this over loopback must `cmp` equal to dmvi_train /
/// dmvi_serve --impute-csv files.
std::string EncodeImputedCsv(const std::vector<Dimension>& dims,
                             const Matrix& imputed);

/// JSON success body: request status, latency, and one {series, time,
/// value} entry per cell of `mask` that was missing (precision 17, so
/// values survive the trip bit-exactly). A degraded answer (the admission
/// ladder fell back to a cheap imputer under overload) says so loudly:
/// "status" becomes "degraded" and "degraded"/"degrade_method" fields name
/// the fallback — callers must never mistake a fallback for model output.
std::string EncodeImputedJson(const serve::ImputationResponse& response,
                              const Mask& mask);

/// JSON error body: {"error": {"code": ..., "message": ...}}.
std::string EncodeErrorJson(const Status& status);

/// HTTP status code conveying `status` (400 invalid argument, 404 not
/// found, 503 unavailable, 500 otherwise).
int HttpStatusFor(const Status& status);

}  // namespace net
}  // namespace deepmvi

#endif  // DEEPMVI_NET_CODEC_H_
