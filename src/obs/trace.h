#ifndef AUTOEM_OBS_TRACE_H_
#define AUTOEM_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace autoem {
namespace obs {

/// RAII span tracing in Chrome trace_event format.
///
///   { AUTOEM_SPAN("rf.fit"); model.Fit(X, y); }
///
/// produces one complete ("ph":"X") event with the calling thread's id, so
/// a whole AutoML-EM run loaded into chrome://tracing (or https://ui.perfetto.dev)
/// renders as a per-thread flame view: search trials on the main thread,
/// feature-gen / tree-fit chunks on the worker threads.
///
/// Causal tracing (obs v4) adds two more event shapes:
///  * flow events ("ph":"s"/"f") — a directed edge from the span that
///    *submitted* a unit of work to the span that *executed* it, keyed by a
///    process-unique flow id. The thread pool emits one flow per queued
///    task: the "s" timestamp is the enqueue instant (inside the submitting
///    span), the "f" timestamp the dequeue instant (inside the executing
///    "pool.task" span), so f.ts - s.ts *is* the task's queue delay and
///    Perfetto draws the arrow across threads.
///  * thread-name metadata ("ph":"M") — threads registered through
///    SetCurrentThreadName render as "worker-3" / "main" instead of bare
///    tids. Names live in a process-wide registry and are emitted when the
///    trace is serialized, so registration order vs StartTracing does not
///    matter.
/// critical_path.h consumes the span+flow graph to compute where the wall
/// time of a run actually went.
///
/// Tracing is off by default. A disabled span is one relaxed atomic load in
/// the constructor and a branch in the destructor — cheap enough to leave in
/// hot paths (verified by bench_obs_overhead); a disabled flow start is the
/// same single load. When enabled, finished spans append to a mutex-guarded
/// process-wide buffer; spans finish at most once per trial / chunk / fold,
/// so the lock is far off the per-row path.
struct TraceEvent {
  const char* name;        // static string from the call site (may be null
                           // when owned_name carries the label)
  std::string owned_name;  // owns the label for dynamically-named spans
  char ph = 'X';           // 'X' complete span, 's' flow start, 'f' flow end
  unsigned tid;            // LogThreadId() of the emitting thread
  uint64_t ts_us;          // start, microseconds since process start
  uint64_t dur_us = 0;     // duration in microseconds ('X' only)
  uint64_t flow_id = 0;    // binding id ('s'/'f' only; 0 elsewhere)
  std::string args_json;   // "k\":v,..." fragment, may be empty

  /// The event's label regardless of storage (static or owned).
  const char* label() const {
    return name != nullptr ? name : owned_name.c_str();
  }
};

namespace internal {
extern std::atomic<bool> g_tracing;
uint64_t NowMicros();
void RecordEvent(TraceEvent event);
}  // namespace internal

inline bool TracingEnabled() {
  return internal::g_tracing.load(std::memory_order_relaxed);
}

/// Clears the event buffer and starts recording.
void StartTracing();
/// Stops recording; the buffer is kept for TraceJson. Spans that
/// are open when tracing stops still record on destruction.
void StopTracing();

size_t TraceEventCount();
/// Copy of the buffered events (test hook).
std::vector<TraceEvent> SnapshotTraceEvents();

/// Process-unique flow id (never 0). Exposed for tests; EmitFlowStart
/// allocates one per call.
uint64_t NewFlowId();

/// Records a flow-start ("ph":"s") event on the calling thread at the
/// current timestamp and returns its flow id — the causal handle to carry
/// to wherever the work executes. Returns 0 (and records nothing) while
/// tracing is disabled; the cost is then one relaxed atomic load.
uint64_t EmitFlowStart(const char* name);

/// Records the matching flow-finish ("ph":"f", binding to the enclosing
/// span) on the calling — usually different — thread. No-op when
/// `flow_id == 0` or tracing is disabled, so the pair degrades safely when
/// tracing starts or stops between enqueue and execution.
void EmitFlowFinish(const char* name, uint64_t flow_id);

/// The causal baggage a queued task carries from its submitter to its
/// executor: the trace flow id (0 = untraced) and the enqueue timestamp
/// (0 = untimed). The thread pool attaches one to every queued task;
/// anything else that defers work across threads can do the same.
struct TraceContext {
  uint64_t flow_id = 0;
  uint64_t enqueue_us = 0;
  bool linked() const { return flow_id != 0; }
};

/// Names the calling thread in a process-wide registry ("worker-3",
/// "main", ...). Serialized as Chrome "ph":"M" thread_name metadata by
/// TraceJson, so Perfetto labels the track. Cheap (one mutex + map insert,
/// once per thread); independent of whether tracing is running — names
/// registered before StartTracing still appear in the trace.
void SetCurrentThreadName(const std::string& name);
/// The registered (tid, name) pairs, sorted by tid (test hook).
std::vector<std::pair<unsigned, std::string>> SnapshotThreadNames();

/// The buffered events as a chrome://tracing-loadable JSON object:
///   {"traceEvents":[{"name":...,"ph":"X","ts":...,"dur":...,"pid":1,
///                    "tid":...,"args":{...}},...],"displayTimeUnit":"ms"}
/// Thread-name metadata events lead, then spans and flows in buffer order.
/// ObsSession writes it to `--trace-out` through io::AtomicWriteFile.
std::string TraceJson();

/// One traced scope. The `const char*` constructor keeps the pointer, so
/// the name must outlive the span — use string literals. For names built at
/// runtime use the owning `std::string` overload, which copies; there is no
/// way to dangle it.
/// Arg() attaches key/values that land in the event's "args" object; calls
/// on a disabled span are no-ops, but guard non-trivial argument
/// computation with active().
class Span {
 public:
  explicit Span(const char* name) {
    if (TracingEnabled()) {
      name_ = name;
      start_us_ = internal::NowMicros();
    }
  }
  /// Owned-name overload: copies `name`, so callers can pass temporaries
  /// ("trial-" + std::to_string(i)) without lifetime rules. Slightly
  /// costlier than the literal form (one string copy when tracing is on);
  /// still a single relaxed load when it is off.
  explicit Span(const std::string& name) {
    if (TracingEnabled()) {
      owned_ = name;
      name_ = owned_.c_str();
      start_us_ = internal::NowMicros();
    }
  }
  ~Span() {
    if (name_ != nullptr) Finish();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return name_ != nullptr; }

  void Arg(const char* key, double value);
  void Arg(const char* key, uint64_t value);
  void Arg(const char* key, int64_t value);
  void Arg(const char* key, int value) {
    Arg(key, static_cast<int64_t>(value));
  }
  void Arg(const char* key, const std::string& value);

 private:
  void Finish();
  void AppendKey(const char* key);

  const char* name_ = nullptr;
  uint64_t start_us_ = 0;
  std::string owned_;  // backing storage for the owned-name overload
  std::string args_;
};

}  // namespace obs
}  // namespace autoem

#define AUTOEM_OBS_CONCAT2(a, b) a##b
#define AUTOEM_OBS_CONCAT(a, b) AUTOEM_OBS_CONCAT2(a, b)
/// Declares an anonymous span covering the rest of the enclosing scope.
#define AUTOEM_SPAN(name) \
  ::autoem::obs::Span AUTOEM_OBS_CONCAT(autoem_span_, __LINE__)(name)

#endif  // AUTOEM_OBS_TRACE_H_
