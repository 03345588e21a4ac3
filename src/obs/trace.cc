#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>

#include "obs/json.h"
#include "obs/log.h"

namespace autoem {
namespace obs {

namespace internal {

std::atomic<bool> g_tracing{false};

uint64_t NowMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

namespace {

std::mutex& BufferMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::vector<TraceEvent>& Buffer() {
  static std::vector<TraceEvent>* buffer = new std::vector<TraceEvent>;
  return *buffer;
}

std::mutex& ThreadNameMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::map<unsigned, std::string>& ThreadNames() {
  static std::map<unsigned, std::string>* names =
      new std::map<unsigned, std::string>;
  return *names;
}

// Flow ids start at 1 so 0 can mean "no flow" in TraceContext.
std::atomic<uint64_t> g_next_flow_id{1};

}  // namespace

void RecordEvent(TraceEvent event) {
  std::lock_guard<std::mutex> lock(BufferMutex());
  Buffer().push_back(std::move(event));
}

}  // namespace internal

void StartTracing() {
  {
    std::lock_guard<std::mutex> lock(internal::BufferMutex());
    internal::Buffer().clear();
  }
  // Touch the clock base before enabling so the first span doesn't pay for
  // static initialization inside a timed region.
  internal::NowMicros();
  internal::g_tracing.store(true, std::memory_order_relaxed);
}

void StopTracing() {
  internal::g_tracing.store(false, std::memory_order_relaxed);
}

size_t TraceEventCount() {
  std::lock_guard<std::mutex> lock(internal::BufferMutex());
  return internal::Buffer().size();
}

std::vector<TraceEvent> SnapshotTraceEvents() {
  std::lock_guard<std::mutex> lock(internal::BufferMutex());
  return internal::Buffer();
}

uint64_t NewFlowId() {
  return internal::g_next_flow_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t EmitFlowStart(const char* name) {
  if (!TracingEnabled()) return 0;
  TraceEvent event;
  event.name = name;
  event.ph = 's';
  event.tid = LogThreadId();
  event.ts_us = internal::NowMicros();
  event.flow_id = NewFlowId();
  uint64_t id = event.flow_id;
  internal::RecordEvent(std::move(event));
  return id;
}

void EmitFlowFinish(const char* name, uint64_t flow_id) {
  if (flow_id == 0 || !TracingEnabled()) return;
  TraceEvent event;
  event.name = name;
  event.ph = 'f';
  event.tid = LogThreadId();
  event.ts_us = internal::NowMicros();
  event.flow_id = flow_id;
  internal::RecordEvent(std::move(event));
}

void SetCurrentThreadName(const std::string& name) {
  unsigned tid = LogThreadId();
  std::lock_guard<std::mutex> lock(internal::ThreadNameMutex());
  internal::ThreadNames()[tid] = name;
}

std::vector<std::pair<unsigned, std::string>> SnapshotThreadNames() {
  std::lock_guard<std::mutex> lock(internal::ThreadNameMutex());
  return {internal::ThreadNames().begin(), internal::ThreadNames().end()};
}

std::string TraceJson() {
  std::vector<TraceEvent> events = SnapshotTraceEvents();
  std::vector<std::pair<unsigned, std::string>> names = SnapshotThreadNames();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata first: Perfetto applies "ph":"M" thread_name
  // records to the whole track regardless of position, but leading with
  // them keeps the file legible to humans too.
  for (const auto& [tid, name] : names) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    out += ",\"args\":{\"name\":";
    out += JsonQuote(name);
    out += "}}";
  }
  for (const TraceEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":";
    out += JsonQuote(e.label());
    out += ",\"cat\":\"autoem\",\"ph\":\"";
    out += e.ph;
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"ts\":";
    out += std::to_string(e.ts_us);
    if (e.ph == 'X') {
      out += ",\"dur\":";
      out += std::to_string(e.dur_us);
    } else if (e.ph == 's' || e.ph == 'f') {
      out += ",\"id\":";
      out += std::to_string(e.flow_id);
      // Bind the finish to the enclosing slice so the arrow lands on the
      // executing span, not on the thread baseline.
      if (e.ph == 'f') out += ",\"bp\":\"e\"";
    }
    if (!e.args_json.empty()) {
      out += ",\"args\":{";
      out += e.args_json;
      out += '}';
    }
    out += '}';
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void Span::AppendKey(const char* key) {
  if (!args_.empty()) args_ += ',';
  args_ += JsonQuote(key);
  args_ += ':';
}

void Span::Arg(const char* key, double value) {
  if (name_ == nullptr) return;
  AppendKey(key);
  args_ += JsonNumber(value);
}

void Span::Arg(const char* key, uint64_t value) {
  if (name_ == nullptr) return;
  AppendKey(key);
  args_ += std::to_string(value);
}

void Span::Arg(const char* key, int64_t value) {
  if (name_ == nullptr) return;
  AppendKey(key);
  args_ += std::to_string(value);
}

void Span::Arg(const char* key, const std::string& value) {
  if (name_ == nullptr) return;
  AppendKey(key);
  args_ += JsonQuote(value);
}

void Span::Finish() {
  uint64_t end_us = internal::NowMicros();
  TraceEvent event;
  if (name_ == owned_.c_str()) {
    // The buffer outlives this span; hand it the owned backing string
    // (even an empty one: name_ points into this span).
    event.owned_name = std::move(owned_);
    event.name = nullptr;
  } else {
    event.name = name_;
  }
  event.tid = LogThreadId();
  event.ts_us = start_us_;
  event.dur_us = end_us - start_us_;
  event.args_json = std::move(args_);
  internal::RecordEvent(std::move(event));
}

}  // namespace obs
}  // namespace autoem
