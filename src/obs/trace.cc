#include "obs/trace.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json_escape.h"
#include "common/logging.h"

namespace deepmvi {
namespace obs {
namespace {

/// Per-thread implicit parent stack. Keyed on the owning tracer so a
/// thread outliving one tracer (test fixtures create several) starts
/// clean under the next.
struct ThreadSpanStack {
  const Tracer* tracer = nullptr;
  std::vector<SpanContext> stack;
};

ThreadSpanStack& LocalStack() {
  thread_local ThreadSpanStack stack;
  return stack;
}

std::atomic<Tracer*> g_tracer{nullptr};

/// Microseconds with sub-microsecond residue kept — chrome://tracing
/// accepts fractional "ts"/"dur" and short kernel spans need it.
std::string Micros(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

}  // namespace

void CollectingTraceSink::Record(SpanRecord record) {
  MutexLock lock(&mutex_);
  if (records_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  records_.push_back(std::move(record));
}

std::vector<SpanRecord> CollectingTraceSink::records() const {
  MutexLock lock(&mutex_);
  return records_;
}

int64_t CollectingTraceSink::dropped() const {
  MutexLock lock(&mutex_);
  return dropped_;
}

int Tracer::CurrentThreadIndex() {
  static std::atomic<int> next_index{0};
  thread_local int index = next_index.fetch_add(1, std::memory_order_relaxed);
  return index;
}

SpanContext Tracer::CurrentContext() const {
  const ThreadSpanStack& local = LocalStack();
  if (local.tracer != this || local.stack.empty()) return SpanContext{};
  return local.stack.back();
}

void Tracer::PushContext(SpanContext context) {
  ThreadSpanStack& local = LocalStack();
  if (local.tracer != this) {
    local.tracer = this;
    local.stack.clear();
  }
  local.stack.push_back(context);
}

void Tracer::PopContext(SpanContext context) {
  ThreadSpanStack& local = LocalStack();
  if (local.tracer != this) return;
  // Spans end LIFO per thread; tolerate a stale stack rather than abort
  // inside a destructor.
  if (!local.stack.empty() && local.stack.back().span_id == context.span_id) {
    local.stack.pop_back();
  }
}

void Tracer::RecordSpan(std::string name, SpanContext context,
                        uint64_t parent_span_id, double start_seconds,
                        double duration_seconds, std::string request_id,
                        std::vector<std::pair<std::string, std::string>> args) {
  if (sink_ == nullptr) return;
  SpanRecord record;
  record.name = std::move(name);
  record.request_id = std::move(request_id);
  record.trace_id = context.trace_id;
  record.span_id = context.span_id;
  record.parent_span_id = parent_span_id;
  record.start_seconds = start_seconds;
  record.duration_seconds = duration_seconds;
  record.thread_index = CurrentThreadIndex();
  record.args = std::move(args);
  sink_->Record(std::move(record));
}

Span::Span(Tracer* tracer, const char* name, TraceLevel level) {
  if (tracer == nullptr || !tracer->enabled(level)) return;
  Begin(tracer, name, tracer->CurrentContext(), level);
}

Span::Span(Tracer* tracer, const char* name, SpanContext parent,
           TraceLevel level) {
  if (tracer == nullptr || !tracer->enabled(level)) return;
  Begin(tracer, name, parent, level);
}

void Span::Begin(Tracer* tracer, const char* name, SpanContext parent,
                 TraceLevel level) {
  (void)level;
  tracer_ = tracer;
  name_ = name;
  context_.trace_id =
      parent.trace_id != 0 ? parent.trace_id : tracer->NewId();
  context_.span_id = tracer->NewId();
  parent_span_id_ = parent.trace_id != 0 ? parent.span_id : 0;
  start_seconds_ = tracer->Now();
  tracer->PushContext(context_);
}

void Span::End() {
  if (tracer_ == nullptr) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  const double duration = tracer->Now() - start_seconds_;
  tracer->PopContext(context_);
  tracer->RecordSpan(name_, context_, parent_span_id_, start_seconds_,
                     duration, std::move(request_id_), std::move(args_));
}

Tracer* GlobalTracer() { return g_tracer.load(std::memory_order_acquire); }

void SetGlobalTracer(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

std::string ChromeTraceJson(const std::vector<SpanRecord>& records) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& record : records) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << EscapeJson(record.name) << "\",";
    os << "\"cat\":\"dmvi\",\"ph\":\"X\",";
    os << "\"ts\":" << Micros(record.start_seconds) << ",";
    os << "\"dur\":" << Micros(record.duration_seconds) << ",";
    os << "\"pid\":1,\"tid\":" << record.thread_index << ",";
    os << "\"args\":{";
    os << "\"trace_id\":" << record.trace_id << ",";
    os << "\"span_id\":" << record.span_id << ",";
    os << "\"parent_span_id\":" << record.parent_span_id;
    if (!record.request_id.empty()) {
      os << ",\"request_id\":\"" << EscapeJson(record.request_id) << "\"";
    }
    for (const auto& [key, value] : record.args) {
      os << ",\"" << EscapeJson(key) << "\":\"" << EscapeJson(value) << "\"";
    }
    os << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

Status WriteChromeTrace(const std::vector<SpanRecord>& records,
                        const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open trace output file: " + path);
  }
  const std::string json = ChromeTraceJson(records);
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.flush();
  if (!out) {
    return Status::IoError("failed writing trace output file: " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace deepmvi
