#include "net/codec.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/json_escape.h"
#include "data/io.h"

namespace deepmvi {
namespace net {

// ---- JsonValue --------------------------------------------------------------

namespace {
const JsonValue kNullValue;
}  // namespace

const JsonValue& JsonValue::at(const std::string& key) const {
  if (kind_ != Kind::kObject) return kNullValue;
  const auto it = object_.find(key);
  return it == object_.end() ? kNullValue : it->second;
}

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}
JsonValue JsonValue::MakeNumber(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}
JsonValue JsonValue::MakeString(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}
JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue out;
  out.kind_ = Kind::kArray;
  out.array_ = std::move(items);
  return out;
}
JsonValue JsonValue::MakeObject(std::map<std::string, JsonValue> members) {
  JsonValue out;
  out.kind_ = Kind::kObject;
  out.object_ = std::move(members);
  return out;
}

// ---- JSON parser ------------------------------------------------------------

namespace {

/// Recursive-descent JSON parser over a string view. Depth is capped so a
/// hostile "[[[[..." body can't blow the stack.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    JsonValue value;
    DMVI_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t n = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Status ParseString(std::string* out) {
    ++pos_;  // Opening quote.
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) return Error("dangling escape");
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + i];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return Error("bad hex digit in \\u escape");
          }
          pos_ += 4;
          // Encode the BMP code point as UTF-8 (surrogate pairs are not
          // recombined — control documents here are ASCII in practice).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error(std::string("unknown escape \\") + esc);
      }
    }
    return Error("unterminated string");
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of document");
    const char c = text_[pos_];
    if (c == 'n') {
      if (!ConsumeLiteral("null")) return Error("expected 'null'");
      *out = JsonValue();
      return Status::OK();
    }
    if (c == 't') {
      if (!ConsumeLiteral("true")) return Error("expected 'true'");
      *out = JsonValue::MakeBool(true);
      return Status::OK();
    }
    if (c == 'f') {
      if (!ConsumeLiteral("false")) return Error("expected 'false'");
      *out = JsonValue::MakeBool(false);
      return Status::OK();
    }
    if (c == '"') {
      std::string s;
      DMVI_RETURN_IF_ERROR(ParseString(&s));
      *out = JsonValue::MakeString(std::move(s));
      return Status::OK();
    }
    if (c == '[') {
      ++pos_;
      std::vector<JsonValue> items;
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        *out = JsonValue::MakeArray(std::move(items));
        return Status::OK();
      }
      for (;;) {
        JsonValue item;
        DMVI_RETURN_IF_ERROR(ParseValue(&item, depth + 1));
        items.push_back(std::move(item));
        SkipWhitespace();
        if (pos_ >= text_.size()) return Error("unterminated array");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          *out = JsonValue::MakeArray(std::move(items));
          return Status::OK();
        }
        return Error("expected ',' or ']' in array");
      }
    }
    if (c == '{') {
      ++pos_;
      std::map<std::string, JsonValue> members;
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        *out = JsonValue::MakeObject(std::move(members));
        return Status::OK();
      }
      for (;;) {
        SkipWhitespace();
        if (pos_ >= text_.size() || text_[pos_] != '"') {
          return Error("expected object key string");
        }
        std::string key;
        DMVI_RETURN_IF_ERROR(ParseString(&key));
        SkipWhitespace();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return Error("expected ':' after object key");
        }
        ++pos_;
        JsonValue value;
        DMVI_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
        members[std::move(key)] = std::move(value);
        SkipWhitespace();
        if (pos_ >= text_.size()) return Error("unterminated object");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          *out = JsonValue::MakeObject(std::move(members));
          return Status::OK();
        }
        return Error("expected ',' or '}' in object");
      }
    }
    // Number.
    if (c == '-' || (c >= '0' && c <= '9')) {
      char* end = nullptr;
      const double value = std::strtod(text_.c_str() + pos_, &end);
      if (end == text_.c_str() + pos_) return Error("malformed number");
      pos_ = static_cast<size_t>(end - text_.c_str());
      *out = JsonValue::MakeNumber(value);
      return Status::OK();
    }
    return Error(std::string("unexpected character '") + c + "'");
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

// ---- /v1/impute decoding ----------------------------------------------------

namespace {

/// `value` as a non-negative integer field, or an error naming `field`.
StatusOr<int> AsNonNegativeInt(const JsonValue& value,
                               const std::string& field) {
  if (!value.is_number()) {
    return Status::InvalidArgument("field '" + field + "' must be a number");
  }
  const double number = value.number_value();
  if (!(number >= 0) || number != std::floor(number) || number > 1e9) {
    return Status::InvalidArgument("field '" + field +
                                   "' must be a non-negative integer");
  }
  return static_cast<int>(number);
}

Status DecodeInlineValues(const JsonValue& rows, ImputeApiRequest* out) {
  if (!rows.is_array() || rows.array_items().empty()) {
    return Status::InvalidArgument("'values' must be a non-empty array of rows");
  }
  const int num_rows = static_cast<int>(rows.array_items().size());
  int num_cols = -1;
  for (int r = 0; r < num_rows; ++r) {
    const JsonValue& row = rows.array_items()[r];
    if (!row.is_array()) {
      return Status::InvalidArgument("'values' row " + std::to_string(r) +
                                     " is not an array");
    }
    const int cols = static_cast<int>(row.array_items().size());
    if (num_cols == -1) {
      num_cols = cols;
      if (cols == 0) {
        return Status::InvalidArgument("'values' rows must not be empty");
      }
      out->inline_values = Matrix(num_rows, num_cols);
      out->inline_mask = Mask(num_rows, num_cols);
    } else if (cols != num_cols) {
      return Status::InvalidArgument(
          "'values' rows have ragged lengths (" + std::to_string(cols) +
          " vs " + std::to_string(num_cols) + ")");
    }
    for (int t = 0; t < cols; ++t) {
      const JsonValue& cell = row.array_items()[t];
      if (cell.is_null()) {
        out->inline_mask.set_missing(r, t);
      } else if (cell.is_number()) {
        out->inline_values(r, t) = cell.number_value();
      } else {
        return Status::InvalidArgument("'values' cells must be numbers or null");
      }
    }
  }
  out->has_inline_data = true;
  return Status::OK();
}

}  // namespace

Status CheckModelField(const JsonValue& body) {
  const JsonValue& model = body.at("model");
  if (model.is_null()) return Status::OK();
  if (!model.is_string()) {
    return Status::InvalidArgument("field 'model' must be a string");
  }
  if (model.string_value() == serve::kServedModelName) return Status::OK();
  return Status::NotFound("no model registered under '" +
                          model.string_value() + "'");
}

StatusOr<ImputeApiRequest> DecodeImputeRequest(const HttpMessage& request) {
  ImputeApiRequest out;
  const std::string& accept = request.Header("accept");
  out.csv_response = accept.find("text/csv") != std::string::npos;

  if (request.body.empty()) return out;  // Base-mask imputation, JSON reply.

  StatusOr<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& doc = *parsed;
  if (!doc.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }

  DMVI_RETURN_IF_ERROR(CheckModelField(doc));

  const JsonValue& query = doc.at("query");
  const JsonValue& values = doc.at("values");
  if (!query.is_null() && !values.is_null()) {
    return Status::InvalidArgument(
        "request carries both 'query' and 'values'; pick one");
  }
  if (!query.is_null()) {
    if (!query.is_object()) {
      return Status::InvalidArgument("field 'query' must be an object");
    }
    StatusOr<int> row = AsNonNegativeInt(query.at("row"), "query.row");
    if (!row.ok()) return row.status();
    StatusOr<int> t_start =
        AsNonNegativeInt(query.at("t_start"), "query.t_start");
    if (!t_start.ok()) return t_start.status();
    StatusOr<int> block_len =
        AsNonNegativeInt(query.at("block_len"), "query.block_len");
    if (!block_len.ok()) return block_len.status();
    if (*block_len <= 0) {
      return Status::InvalidArgument("query.block_len must be positive");
    }
    out.query.row = *row;
    out.query.t_start = *t_start;
    out.query.block_len = *block_len;
    out.has_query = true;
  } else if (!values.is_null()) {
    DMVI_RETURN_IF_ERROR(DecodeInlineValues(values, &out));
  }

  // "format": "csv" overrides the Accept header (handy for curl).
  const JsonValue& format = doc.at("format");
  if (format.is_string()) {
    if (format.string_value() == "csv") {
      out.csv_response = true;
    } else if (format.string_value() == "json") {
      out.csv_response = false;
    } else {
      return Status::InvalidArgument("field 'format' must be 'csv' or 'json'");
    }
  }
  return out;
}

// ---- Response encoding ------------------------------------------------------

std::string EncodeImputedCsv(const std::vector<Dimension>& dims,
                             const Matrix& imputed) {
  // Byte-identity with files written by dmvi_train/dmvi_serve --impute-csv
  // comes from sharing WriteDataTensorToStream — same dimension headers,
  // same precision, same formatting path.
  std::ostringstream out;
  WriteDataTensorToStream(DataTensor(dims, imputed), out);
  return out.str();
}

std::string EncodeImputedJson(const serve::ImputationResponse& response,
                              const Mask& mask) {
  std::ostringstream os;
  os.precision(17);
  os << "{\n";
  os << "  \"status\": \"" << (response.degraded ? "degraded" : "ok")
     << "\",\n";
  if (response.degraded) {
    os << "  \"degraded\": true,\n";
    os << "  \"degrade_method\": \"" << EscapeJson(response.degrade_method)
       << "\",\n";
  }
  os << "  \"latency_seconds\": " << response.latency_seconds << ",\n";
  os << "  \"cells_imputed\": " << response.cells_imputed << ",\n";
  os << "  \"rows_touched\": " << response.rows_touched << ",\n";
  os << "  \"cells\": [";
  bool first = true;
  for (int r = 0; r < mask.rows(); ++r) {
    for (int t = 0; t < mask.cols(); ++t) {
      if (!mask.missing(r, t)) continue;
      if (!first) os << ",";
      first = false;
      const double value = response.imputed(r, t);
      os << "\n    {\"series\": " << r << ", \"time\": " << t << ", \"value\": ";
      if (std::isfinite(value)) {
        os << value;
      } else {
        os << "null";
      }
      os << "}";
    }
  }
  os << (first ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

std::string EncodeErrorJson(const Status& status) {
  std::ostringstream os;
  os << "{\n  \"error\": {\n    \"code\": \""
     << EscapeJson(status.ToString().substr(0, status.ToString().find(':')))
     << "\",\n    \"message\": \"" << EscapeJson(status.message())
     << "\"\n  }\n}\n";
  return os.str();
}

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kFailedPrecondition: return 503;
    default: return 500;
  }
}

}  // namespace net
}  // namespace deepmvi
