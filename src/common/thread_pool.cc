#include "common/thread_pool.h"

#include <algorithm>
#include <string>

#include "obs/resource.h"
#include "obs/trace.h"

namespace autoem {

ThreadPool::ThreadPool(size_t num_threads)
    : workers_gauge_(
          obs::MetricsRegistry::Global().GetGauge("threadpool.workers")),
      tasks_executed_(obs::MetricsRegistry::Global().GetCounter(
          "threadpool.tasks_executed")),
      busy_micros_(obs::MetricsRegistry::Global().GetCounter(
          "threadpool.busy_micros")),
      wait_micros_(obs::MetricsRegistry::Global().GetCounter(
          "threadpool.wait_micros")),
      queue_delay_ms_(obs::MetricsRegistry::Global().GetHistogram(
          "threadpool.queue_delay_ms")) {
  if (num_threads <= 1) return;  // inline mode
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  workers_gauge_->Set(static_cast<double>(threads_.size()));
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& t : threads_) t.join();
}

obs::TraceContext ThreadPool::MakeContext() {
  obs::TraceContext ctx;
  // The flow start lands inside whatever span is open on the submitting
  // thread; the matching finish is emitted inside the worker's "pool.task"
  // span, which is what chains submitter → queue wait → execution in the
  // trace. The enqueue timestamp is also what the probe-side queue-delay
  // metrics are computed from, so it is stamped when either consumer is on.
  if (obs::TracingEnabled()) {
    ctx.flow_id = obs::EmitFlowStart("pool.task");
  }
  if (ctx.flow_id != 0 || obs::ResourceProbesEnabled()) {
    ctx.enqueue_us = obs::internal::NowMicros();
  }
  return ctx;
}

void ThreadPool::RunTask(const PendingTask& task) {
  const bool probes = obs::ResourceProbesEnabled();
  if (!probes && !task.ctx.linked()) {
    task.fn();
    return;
  }
  uint64_t start_us = obs::internal::NowMicros();
  uint64_t queue_us =
      task.ctx.enqueue_us != 0 && start_us > task.ctx.enqueue_us
          ? start_us - task.ctx.enqueue_us
          : 0;
  {
    // The span carries the queue delay as an arg and closes the flow opened
    // at Submit(); "bp":"e" binding makes the Perfetto arrow land on it.
    obs::Span span("pool.task");
    if (span.active() && task.ctx.enqueue_us != 0) {
      span.Arg("queue_us", queue_us);
    }
    obs::EmitFlowFinish("pool.task", task.ctx.flow_id);
    task.fn();
  }
  if (probes) {
    busy_micros_->Add(obs::internal::NowMicros() - start_us);
    tasks_executed_->Add(1);
    if (task.ctx.enqueue_us != 0) {
      wait_micros_->Add(queue_us);
      queue_delay_ms_->Observe(static_cast<double>(queue_us) / 1000.0);
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (threads_.empty()) {
    // Inline mode: no queue, so no flow and zero queue delay — RunTask's
    // fast path keeps the single-thread configuration unperturbed.
    PendingTask pending;
    pending.fn = std::move(task);
    RunTask(pending);
    return;
  }
  PendingTask pending;
  pending.fn = std::move(task);
  pending.ctx = MakeContext();
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(pending));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  if (threads_.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  // A stable name so traces render "worker-N" instead of a bare tid.
  obs::SetCurrentThreadName("worker-" + std::to_string(worker_index));
  for (;;) {
    PendingTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    RunTask(task);
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             const char* trace_label) {
  if (n == 0) return;
  if (threads_.empty()) {
    obs::Span span(trace_label != nullptr ? trace_label : "parallel.chunk");
    if (span.active()) span.Arg("n", n);
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  size_t num_chunks = std::min(n, threads_.size() * 4);
  size_t chunk = (n + num_chunks - 1) / num_chunks;
  for (size_t start = 0; start < n; start += chunk) {
    size_t end = std::min(n, start + chunk);
    Submit([&fn, start, end, trace_label] {
      // One span per chunk, on the worker thread that ran it — this is what
      // gives the trace its per-thread flame attribution without touching
      // the per-iteration hot path.
      obs::Span span(trace_label != nullptr ? trace_label : "parallel.chunk");
      if (span.active()) {
        span.Arg("first", start);
        span.Arg("count", end - start);
      }
      for (size_t i = start; i < end; ++i) fn(i);
    });
  }
  Wait();
}

}  // namespace autoem
