// Overhead of the autoem::obs instrumentation layer.
//
// The acceptance bar for the obs subsystem is "zero measurable overhead when
// tracing is off". Two angles:
//
//   1. Guard micro-benches: the per-call cost of a disabled span, a disabled
//      log statement, a counter add, and a histogram observe. The first two
//      must be in the single-nanosecond range (one relaxed atomic load); the
//      last two stay cheap because shards are cache-line padded.
//   2. A real workload (feature generation, the hottest instrumented path)
//      run with obs off vs with tracing on. `vs_off_baseline_s` exposes the
//      off-mode baseline; the tracing-on run's time/iteration should match
//      it within noise.
//
// Counters land in `--benchmark_format=json`; obs flags (--trace-out= etc.)
// are peeled off before google-benchmark parses the command line.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_gbench_report.h"
#include "common/parallelism.h"
#include "datagen/benchmark_gen.h"
#include "features/feature_gen.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace autoem {
namespace {

// ---- guard micro-benches --------------------------------------------------

void BM_SpanGuardDisabled(benchmark::State& state) {
  // Tracing must be off for this binary's benchmark run (no --trace-out).
  for (auto _ : state) {
    obs::Span span("bench.disabled");
    benchmark::DoNotOptimize(span.active());
  }
}
BENCHMARK(BM_SpanGuardDisabled);

void BM_LogGuardDisabled(benchmark::State& state) {
  obs::SetMinLogLevel(obs::LogLevel::kWarn);
  uint64_t x = 0;
  for (auto _ : state) {
    // The macro's guard must short-circuit before evaluating ++x.
    AUTOEM_LOG(DEBUG) << "never emitted " << ++x;
    benchmark::DoNotOptimize(x);
  }
  if (x != 0) state.SkipWithError("disabled log evaluated its arguments");
}
BENCHMARK(BM_LogGuardDisabled);

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("bench.overhead_counter");
  for (auto _ : state) {
    counter->Add();
  }
  benchmark::DoNotOptimize(counter->Total());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram* hist =
      obs::MetricsRegistry::Global().GetHistogram("bench.overhead_hist");
  double v = 0.0;
  for (auto _ : state) {
    hist->Observe(v);
    v += 0.125;
    if (v > 100.0) v = 0.0;
  }
}
BENCHMARK(BM_HistogramObserve);

void BM_FlowStartDisabled(benchmark::State& state) {
  // ThreadPool::Submit calls EmitFlowStart on every task; with tracing off it
  // must return 0 after a single relaxed atomic load — the same
  // single-nanosecond bar as the disabled span guard, because every pool
  // submission in the program pays this cost unconditionally.
  if (obs::TracingEnabled()) {
    state.SkipWithError("tracing unexpectedly enabled");
    return;
  }
  for (auto _ : state) {
    uint64_t id = obs::EmitFlowStart("bench.flow_disabled");
    benchmark::DoNotOptimize(id);
    // EmitFlowFinish with id 0 is the disabled/unlinked no-op path RunTask
    // takes for every untraced task.
    obs::EmitFlowFinish("bench.flow_disabled", id);
  }
}
BENCHMARK(BM_FlowStartDisabled);

void BM_ResourceProbeDisabled(benchmark::State& state) {
  // Without --resources every probe placed on a trial/fold/iteration must
  // collapse to one relaxed atomic load plus a branch (same bar as the
  // disabled span: single-nanosecond range).
  obs::SetResourceProbesEnabled(false);
  for (auto _ : state) {
    obs::ResourceProbe probe;
    benchmark::DoNotOptimize(probe.active());
  }
}
BENCHMARK(BM_ResourceProbeDisabled);

void BM_ResourceProbeEnabled(benchmark::State& state) {
  // The *enabled* cost for contrast: two thread-CPU clock reads, a
  // getrusage, and an RSS sample per construct+Take pair.
  obs::SetResourceProbesEnabled(true);
  for (auto _ : state) {
    obs::ResourceProbe probe;
    obs::ResourceUsage usage = probe.Take();
    benchmark::DoNotOptimize(usage.cpu_seconds);
  }
  obs::SetResourceProbesEnabled(false);
}
BENCHMARK(BM_ResourceProbeEnabled);

void BM_ThreadPoolGaugeDisabled(benchmark::State& state) {
  // The exact code shape ThreadPool::Submit / RunTask use to gate their
  // queue-depth gauge and tasks-executed counter updates: a relaxed load,
  // branch not taken when probes are off.
  obs::SetResourceProbesEnabled(false);
  obs::Gauge* depth =
      obs::MetricsRegistry::Global().GetGauge("bench.overhead_queue_depth");
  uint64_t updates = 0;
  for (auto _ : state) {
    if (obs::ResourceProbesEnabled()) {
      depth->Set(static_cast<double>(++updates));
    }
    benchmark::DoNotOptimize(updates);
  }
  if (updates != 0) state.SkipWithError("disabled gauge path executed");
}
BENCHMARK(BM_ThreadPoolGaugeDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  // The *enabled* cost, for contrast: clock reads + one mutex push per span.
  // Iterations are pinned so the in-memory event buffer stays small.
  obs::StartTracing();
  for (auto _ : state) {
    obs::Span span("bench.enabled");
    benchmark::DoNotOptimize(span.active());
  }
  obs::StopTracing();
}
BENCHMARK(BM_SpanEnabled)->Iterations(1 << 16);

// ---- real-workload A/B ----------------------------------------------------

struct Workload {
  BenchmarkData data;
  bool ok = false;
};

Workload& SharedWorkload() {
  static Workload* w = [] {
    auto* out = new Workload;
    auto data = GenerateBenchmarkByName("Fodors-Zagats", /*seed=*/13,
                                        /*scale=*/0.3);
    if (data.ok()) {
      out->data = std::move(*data);
      out->ok = true;
    }
    return out;
  }();
  return *w;
}

double MeasureObsOffSeconds() {
  Workload& w = SharedWorkload();
  AutoMlEmFeatureGenerator gen;
  gen.set_parallelism(Parallelism::Serial());
  if (!gen.Plan(w.data.train.left, w.data.train.right).ok()) return 0.0;
  gen.Generate(w.data.train);  // warm-up
  auto start = std::chrono::steady_clock::now();
  constexpr int kReps = 3;
  for (int i = 0; i < kReps; ++i) gen.Generate(w.data.train);
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / kReps;
}

double ObsOffBaselineSeconds() {
  static double baseline = MeasureObsOffSeconds();
  return baseline;
}

void RunFeatureGenWorkload(benchmark::State& state, bool tracing) {
  Workload& w = SharedWorkload();
  if (!w.ok) {
    state.SkipWithError("benchmark generation failed");
    return;
  }
  AutoMlEmFeatureGenerator gen;
  gen.set_parallelism(Parallelism::Serial());
  if (!gen.Plan(w.data.train.left, w.data.train.right).ok()) {
    state.SkipWithError("plan failed");
    return;
  }
  double baseline_s = ObsOffBaselineSeconds();  // measured with obs off
  if (tracing) obs::StartTracing();
  for (auto _ : state) {
    Dataset d = gen.Generate(w.data.train);
    benchmark::DoNotOptimize(d.X.rows());
  }
  if (tracing) obs::StopTracing();
  int64_t pairs = static_cast<int64_t>(w.data.train.pairs.size());
  state.SetItemsProcessed(state.iterations() * pairs);
  state.counters["vs_off_baseline_s"] = baseline_s;
  // value * iterations / total_time = baseline_s / mean_iteration_s; 1.0
  // means identical throughput to the obs-off baseline.
  state.counters["throughput_vs_off"] = benchmark::Counter(
      baseline_s, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_FeatureGenObsOff(benchmark::State& state) {
  RunFeatureGenWorkload(state, /*tracing=*/false);
}
BENCHMARK(BM_FeatureGenObsOff)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FeatureGenTracingOn(benchmark::State& state) {
  RunFeatureGenWorkload(state, /*tracing=*/true);
}
BENCHMARK(BM_FeatureGenTracingOn)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace autoem

int main(int argc, char** argv) {
  return autoem::bench::RunGBenchMain(argc, argv);
}
