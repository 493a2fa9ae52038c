#include "obs/metrics.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/logging.h"

namespace deepmvi {
namespace obs {
namespace {

/// Numbers in exposition lines: enough digits to round-trip a latency
/// bound, no trailing-zero noise ("1e-06", "0.25", "192").
std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return value > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  os.precision(9);
  os << value;
  return os.str();
}

/// Exemplar label values are request ids; escape the characters the
/// exposition grammar reserves anyway.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// OpenMetrics exemplar suffix for one bucket line, empty when bucket b
/// carries none: ` # {request_id="..."} value`. Plain-text scrapers split
/// on whitespace and read the first two fields, so the suffix is
/// invisible to them.
std::string ExemplarSuffix(const HistogramSnapshot& snapshot, int b) {
  const size_t bucket = static_cast<size_t>(b);
  if (bucket >= snapshot.exemplar_labels.size() ||
      snapshot.exemplar_labels[bucket].empty()) {
    return "";
  }
  return " # {request_id=\"" +
         EscapeLabelValue(snapshot.exemplar_labels[bucket]) + "\"} " +
         FormatNumber(snapshot.exemplar_values[bucket]);
}

}  // namespace

MetricsRegistry::Entry& MetricsRegistry::EntryNamedLocked(
    const std::string& name, const std::string& help, Kind kind) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = kind;
    entry.help = help;
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(name, std::move(entry)).first;
  }
  DMVI_CHECK(it->second.kind == kind)
      << "metric '" << name << "' registered twice with different kinds";
  return it->second;
}

Counter* MetricsRegistry::CounterNamed(const std::string& name,
                                       const std::string& help) {
  MutexLock lock(&mutex_);
  return EntryNamedLocked(name, help, Kind::kCounter).counter.get();
}

Gauge* MetricsRegistry::GaugeNamed(const std::string& name,
                                   const std::string& help) {
  MutexLock lock(&mutex_);
  return EntryNamedLocked(name, help, Kind::kGauge).gauge.get();
}

Histogram* MetricsRegistry::HistogramNamed(const std::string& name,
                                           const std::string& help) {
  MutexLock lock(&mutex_);
  return EntryNamedLocked(name, help, Kind::kHistogram).histogram.get();
}

std::string MetricsRegistry::PrometheusText() const {
  MutexLock lock(&mutex_);
  std::ostringstream os;
  // std::map iteration is already name-sorted — stable exposition order.
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        AppendPrometheusCounter(os, name, entry.help, entry.counter->value());
        break;
      case Kind::kGauge:
        AppendPrometheusGauge(os, name, entry.help, entry.gauge->value());
        break;
      case Kind::kHistogram:
        AppendPrometheusHistogram(os, name, entry.help,
                                  entry.histogram->Snapshot());
        break;
    }
  }
  return os.str();
}

void AppendPrometheusCounter(std::ostream& os, const std::string& name,
                             const std::string& help, int64_t value) {
  os << "# HELP " << name << " " << help << "\n";
  os << "# TYPE " << name << " counter\n";
  os << name << " " << value << "\n";
}

void AppendPrometheusGauge(std::ostream& os, const std::string& name,
                           const std::string& help, double value) {
  os << "# HELP " << name << " " << help << "\n";
  os << "# TYPE " << name << " gauge\n";
  os << name << " " << FormatNumber(value) << "\n";
}

void AppendPrometheusHistogram(std::ostream& os, const std::string& name,
                               const std::string& help,
                               const HistogramSnapshot& snapshot) {
  os << "# HELP " << name << " " << help << "\n";
  os << "# TYPE " << name << " histogram\n";
  // Cumulative buckets up to the last non-empty one; the +Inf bucket is
  // mandatory and always carries the total count.
  int last = -1;
  for (size_t b = 0; b < snapshot.counts.size(); ++b) {
    if (snapshot.counts[b] > 0) last = static_cast<int>(b);
  }
  int64_t cumulative = 0;
  const int finite_last = std::min(last, Histogram::kNumBounds - 1);
  for (int b = 0; b <= finite_last; ++b) {
    cumulative += snapshot.counts[static_cast<size_t>(b)];
    os << name << "_bucket{le=\"" << FormatNumber(Histogram::UpperBound(b))
       << "\"} " << cumulative << ExemplarSuffix(snapshot, b) << "\n";
  }
  os << name << "_bucket{le=\"+Inf\"} " << snapshot.count
     << ExemplarSuffix(snapshot, Histogram::kNumBounds) << "\n";
  os << name << "_sum " << FormatNumber(snapshot.sum) << "\n";
  os << name << "_count " << snapshot.count << "\n";
}

double PrometheusValue(const std::string& text, const std::string& name) {
  const std::string prefix = name + " ";
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t end = text.find('\n', pos);
    const size_t len = (end == std::string::npos ? text.size() : end) - pos;
    if (len > prefix.size() && text.compare(pos, prefix.size(), prefix) == 0) {
      return std::atof(text.c_str() + pos + prefix.size());
    }
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return -1.0;
}

}  // namespace obs
}  // namespace deepmvi
