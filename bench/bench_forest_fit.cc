// Random-forest training throughput (google-benchmark): the presorted
// splitter behind RandomForestClassifier::Fit against the sort-based
// `reference::` builder on the same forests (DESIGN.md §13).
//
// Grid: rows {256, 4096, 16384} × features {16, 64} × trees {32, 128} ×
// threads {1, 4}. Inputs mimic EM similarity features: scores quantized to
// 1/64 (heavy ties), a zero-heavy column family and 5% missing cells.
// Every case uses real time, so `trees_per_s` is per wall-clock second at
// any thread count. BM_ForestFitReference fits the same bootstraps, seeds
// and tree options with reference::FitClassifierNodes, making it the
// in-binary denominator for the splitter's speedup.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "bench/bench_gbench_report.h"
#include "common/parallelism.h"
#include "common/rng.h"
#include "ml/models/decision_tree.h"
#include "ml/models/random_forest.h"

namespace autoem {
namespace {

struct ForestInput {
  Matrix X;
  std::vector<int> y;
};

const ForestInput& Input(size_t rows, size_t cols) {
  static std::map<std::pair<size_t, size_t>, ForestInput> cache;
  auto [it, inserted] = cache.try_emplace({rows, cols});
  if (!inserted) return it->second;
  ForestInput& in = it->second;
  Rng rng(rows * 131 + cols);
  in.X = Matrix(rows, cols);
  in.y.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    const bool match = rng.UniformIndex(4) == 0;
    for (size_t c = 0; c < cols; ++c) {
      double v;
      if (rng.UniformIndex(20) == 0) {
        v = std::numeric_limits<double>::quiet_NaN();
      } else if (c % 4 == 3 && rng.UniformIndex(3) != 0) {
        v = 0.0;
      } else {
        // Matches score higher on every column, with overlap.
        const double u = rng.Uniform(0.0, 1.0);
        v = std::floor((match ? std::sqrt(u) : u * u) * 64.0) / 64.0;
      }
      in.X.At(r, c) = v;
    }
    in.y[r] = match != (rng.UniformIndex(10) == 0) ? 1 : 0;
  }
  return in;
}

RandomForestOptions ForestOptions(const benchmark::State& state) {
  RandomForestOptions opt;
  opt.n_estimators = static_cast<int>(state.range(2));
  opt.parallelism = Parallelism::Threads(static_cast<int>(state.range(3)));
  opt.seed = 17;
  return opt;
}

void SetCounters(benchmark::State& state) {
  const double trees = static_cast<double>(state.iterations()) *
                       static_cast<double>(state.range(2));
  state.counters["trees_per_s"] =
      benchmark::Counter(trees, benchmark::Counter::kIsRate);
  state.counters["rows"] = static_cast<double>(state.range(0));
  state.counters["features"] = static_cast<double>(state.range(1));
  state.counters["threads"] = static_cast<double>(state.range(3));
}

void BM_ForestFit(benchmark::State& state) {
  const ForestInput& in = Input(state.range(0), state.range(1));
  const RandomForestOptions opt = ForestOptions(state);
  for (auto _ : state) {
    RandomForestClassifier rf(opt);
    Status st = rf.Fit(in.X, in.y);
    if (!st.ok()) {
      state.SkipWithError(st.message().c_str());
      return;
    }
    benchmark::DoNotOptimize(rf.trees().data());
  }
  SetCounters(state);
}

// The same forest with the sort-based builder: RandomForestClassifier::Fit's
// seed and bootstrap staging, then one reference fit per tree.
void BM_ForestFitReference(benchmark::State& state) {
  const ForestInput& in = Input(state.range(0), state.range(1));
  const RandomForestOptions opt = ForestOptions(state);
  const size_t n = in.X.rows();
  const size_t n_trees = static_cast<size_t>(opt.n_estimators);
  for (auto _ : state) {
    Rng rng(opt.seed);
    std::vector<TreeOptions> tree_opts(n_trees);
    std::vector<std::vector<double>> weights(n_trees,
                                             std::vector<double>(n, 0.0));
    for (size_t t = 0; t < n_trees; ++t) {
      tree_opts[t].max_features =
          std::sqrt(static_cast<double>(in.X.cols())) / in.X.cols();
      tree_opts[t].seed = rng.engine()();
      for (size_t k = 0; k < n; ++k) weights[t][rng.UniformIndex(n)] += 1.0;
    }
    std::vector<std::vector<DecisionTreeClassifier::Node>> trees(n_trees);
    ParallelFor(opt.parallelism, n_trees, [&](size_t t) {
      trees[t] = reference::FitClassifierNodes(in.X, in.y, weights[t],
                                               tree_opts[t]);
    });
    benchmark::DoNotOptimize(trees.data());
  }
  SetCounters(state);
}

void ForestGrid(benchmark::internal::Benchmark* b) {
  b->ArgNames({"rows", "features", "trees", "threads"})
      ->ArgsProduct({{256, 4096, 16384}, {16, 64}, {32, 128}, {1, 4}})
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
}
BENCHMARK(BM_ForestFit)->Apply(ForestGrid);
BENCHMARK(BM_ForestFitReference)->Apply(ForestGrid);

}  // namespace
}  // namespace autoem

int main(int argc, char** argv) {
  return autoem::bench::RunGBenchMain(argc, argv);
}
