#include "common/logging.h"

#include <iostream>

#include "common/json_escape.h"
#include "common/mutex.h"

namespace deepmvi {

LogSeverity& MinLogSeverity() {
  static LogSeverity severity = LogSeverity::kInfo;
  return severity;
}

LogFormat& GlobalLogFormat() {
  static LogFormat format = LogFormat::kPlain;
  return format;
}

bool ParseLogSeverity(const std::string& text, LogSeverity* out) {
  if (text == "debug") {
    *out = LogSeverity::kDebug;
  } else if (text == "info") {
    *out = LogSeverity::kInfo;
  } else if (text == "warning" || text == "warn") {
    *out = LogSeverity::kWarning;
  } else if (text == "error") {
    *out = LogSeverity::kError;
  } else {
    return false;
  }
  return true;
}

bool ParseLogFormat(const std::string& text, LogFormat* out) {
  if (text == "plain") {
    *out = LogFormat::kPlain;
  } else if (text == "kv" || text == "keyvalue") {
    *out = LogFormat::kKeyValue;
  } else if (text == "json") {
    *out = LogFormat::kJson;
  } else {
    return false;
  }
  return true;
}

const char* LogSeverityName(LogSeverity severity) {
  switch (severity) {
    case LogSeverity::kDebug:
      return "DEBUG";
    case LogSeverity::kInfo:
      return "INFO";
    case LogSeverity::kWarning:
      return "WARN";
    case LogSeverity::kError:
      return "ERROR";
    case LogSeverity::kFatal:
      return "FATAL";
  }
  return "UNKNOWN";
}

namespace {

/// Serializes emission so lines from concurrent request workers never
/// interleave mid-line.
Mutex& EmitMutex() {
  static Mutex mutex;
  return mutex;
}

bool NeedsKvQuoting(const std::string& value) {
  if (value.empty()) return true;
  for (char c : value) {
    if (c == ' ' || c == '"' || c == '=' || c == '\\' || c == '\n' ||
        c == '\t') {
      return true;
    }
  }
  return false;
}

void AppendKvValue(std::string* out, const std::string& value) {
  if (!NeedsKvQuoting(value)) {
    *out += value;
    return;
  }
  *out += '"';
  *out += EscapeJson(value);
  *out += '"';
}

}  // namespace

std::string FormatLogEvent(const LogEvent& event, LogFormat format) {
  std::string out;
  switch (format) {
    case LogFormat::kPlain: {
      out += "[";
      out += LogSeverityName(event.severity);
      out += " ";
      out += event.source;
      out += "] ";
      out += event.message;
      for (const LogField& field : event.fields) {
        out += " ";
        out += field.key;
        out += "=";
        AppendKvValue(&out, field.value);
      }
      break;
    }
    case LogFormat::kKeyValue: {
      out += "level=";
      out += LogSeverityName(event.severity);
      out += " src=";
      out += event.source;
      out += " msg=";
      AppendKvValue(&out, event.message);
      for (const LogField& field : event.fields) {
        out += " ";
        out += field.key;
        out += "=";
        AppendKvValue(&out, field.value);
      }
      break;
    }
    case LogFormat::kJson: {
      out += "{\"level\":\"";
      out += LogSeverityName(event.severity);
      out += "\",\"src\":\"";
      out += EscapeJson(event.source);
      out += "\",\"msg\":\"";
      out += EscapeJson(event.message);
      out += "\"";
      for (const LogField& field : event.fields) {
        out += ",\"";
        out += EscapeJson(field.key);
        out += "\":\"";
        out += EscapeJson(field.value);
        out += "\"";
      }
      out += "}";
      break;
    }
  }
  return out;
}

namespace internal_logging {

LogMessage::LogMessage(LogSeverity severity, const char* file, int line)
    : severity_(severity) {
  // Strip directories for terseness.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  source_ = base;
  source_ += ":";
  source_ += std::to_string(line);
}

LogMessage::~LogMessage() {
  if (severity_ >= MinLogSeverity() || severity_ == LogSeverity::kFatal) {
    LogEvent event;
    event.severity = severity_;
    event.source = source_;
    event.message = stream_.str();
    event.fields = std::move(fields_);
    const std::string line = FormatLogEvent(event, GlobalLogFormat());
    {
      MutexLock lock(&EmitMutex());
      std::cerr << line << std::endl;
    }
  }
  if (severity_ == LogSeverity::kFatal) {
    std::abort();
  }
}

}  // namespace internal_logging
}  // namespace deepmvi
