#ifndef DEEPMVI_COMMON_JSON_ESCAPE_H_
#define DEEPMVI_COMMON_JSON_ESCAPE_H_

#include <cstdio>
#include <string>

namespace deepmvi {

/// JSON string escaping (quotes not included), the one copy every JSON
/// writer uses, from structured logs up to the HTTP codec: quote and
/// backslash are escaped, \b \f \n \r \t by name, and every other control
/// character as \u00XX.
inline std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace deepmvi

#endif  // DEEPMVI_COMMON_JSON_ESCAPE_H_
