#ifndef AUTOEM_COMMON_THREAD_POOL_H_
#define AUTOEM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace autoem {

/// Fixed-size worker pool. Tasks are void() closures; Wait() blocks until the
/// queue drains. With `num_threads == 0` (or 1), Submit() runs tasks inline,
/// which keeps single-core machines free of thread overhead and makes runs
/// deterministic there.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task (or runs it inline in single-thread mode).
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void Wait();

  size_t num_threads() const { return threads_.size(); }

  /// Runs fn(i) for i in [0, n). Blocks until all iterations finish. Work is
  /// chunked to limit queue churn. Callers must make fn thread-safe.
  /// `trace_label`, when non-null, names the obs trace span emitted around
  /// each chunk (string literal only — the tracer keeps the pointer).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const char* trace_label = nullptr);

 private:
  /// A queued closure plus the causal baggage it carries from submitter to
  /// worker (obs v4): the trace flow id linking the submitting span to the
  /// executing "pool.task" span, and the enqueue timestamp the queue-delay
  /// attribution is computed from. Both stay 0 — and cost nothing past the
  /// enabled checks — when tracing / resource probes are off.
  struct PendingTask {
    std::function<void()> fn;
    obs::TraceContext ctx;
  };

  void WorkerLoop(size_t worker_index);
  /// Runs one task, maintaining the pool telemetry (tasks-executed counter,
  /// busy/wait-time accumulation, queue-delay histogram) and — when tracing —
  /// a "pool.task" span closing the flow opened at Submit(). Everything is
  /// gated on TracingEnabled() / ResourceProbesEnabled() so the
  /// un-instrumented cost is two relaxed loads and a branch.
  void RunTask(const PendingTask& task);
  /// Stamps the causal context onto a task about to be queued (flow start
  /// when tracing, enqueue timestamp when anything will consume it).
  static obs::TraceContext MakeContext();

  std::vector<std::thread> threads_;
  std::queue<PendingTask> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;

  // Pool telemetry (obs v2): handles are resolved once at construction, the
  // hot-path updates are relaxed atomics gated on the resource-probe switch.
  //   threadpool.workers        gauge    worker count for this pool
  //   threadpool.tasks_executed counter  tasks completed (incl. inline mode)
  //   threadpool.busy_micros    counter  summed task wall time on workers —
  //                                      utilization = rate / (workers * 1e6)
  // Queue-delay attribution (obs v4):
  //   threadpool.wait_micros    counter  summed enqueue→dequeue wait — the
  //                                      per-trial wait/run split in
  //                                      EvalRecord is a delta of this and
  //                                      busy_micros
  //   threadpool.queue_delay_ms histogram  per-task queue delay distribution
  obs::Gauge* workers_gauge_;
  obs::Counter* tasks_executed_;
  obs::Counter* busy_micros_;
  obs::Counter* wait_micros_;
  obs::Histogram* queue_delay_ms_;
};

}  // namespace autoem

#endif  // AUTOEM_COMMON_THREAD_POOL_H_
