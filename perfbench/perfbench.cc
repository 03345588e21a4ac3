// perfbench: the repository benchmark.
//
// Runs one workload in a closed loop (one caller; the next call starts when
// the previous one returns), checks every output, and prints one JSON
// result line. It links the library and times calls into each
// layer's public functions from the outside; no library code is
// instrumented for it.
//
//   perfbench --workload search_beer|predict_wa
//             --seed N --seconds S --trace 0|1
//             [--smoke] [--perturb] [--trace-out PATH]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// once untraced and once with its own spans around each layer call,
// replays the search trials stage by stage, and reports the per-layer
// ledger. See perfbench/README.md for the workloads and the metric map.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "automl/automl_em.h"
#include "automl/search_space.h"
#include "automl/surrogate.h"
#include "common/rng.h"
#include "datagen/benchmark_gen.h"
#include "em/blocking.h"
#include "em/matcher.h"
#include "io/model_io.h"
#include "ml/metrics.h"
#include "ml/models/model_registry.h"
#include "obs/critical_path.h"
#include "preprocess/balancing.h"
#include "preprocess/feature_agglomeration.h"
#include "preprocess/feature_selection.h"
#include "preprocess/imputer.h"
#include "preprocess/pca.h"
#include "preprocess/scalers.h"

namespace autoem {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kScoreChunk = 4096;
constexpr size_t kSampleSize = 4096;
constexpr size_t kSetupMinRepeats = 3;
constexpr size_t kSetupMaxRepeats = 100;
constexpr double kSetupMinSeconds = 2.0;
// SMAC's defaults (automl/smac.h): six initial-design trials, then a
// surrogate fit on every other trial (random interleaving in between).
constexpr size_t kSmacInit = 6;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         1e-6 * (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::max<size_t>(rank, 1) - 1];
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb93fe53ccd53ull;
  x ^= x >> 33;
  return x;
}

// Order-independent digest of a candidate set: sum and xor of per-pair
// hashes, so equal sets digest equally in any emission order.
std::pair<uint64_t, uint64_t> CandidateDigest(
    const std::vector<RecordPair>& pairs) {
  uint64_t sum = 0, x = 0;
  for (const RecordPair& p : pairs) {
    uint64_t h = Mix64((static_cast<uint64_t>(p.left_id) << 32) ^ p.right_id);
    sum += h;
    x ^= h;
  }
  return {sum, x};
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<RecordPair> TruePairs(const PairSet& labeled) {
  std::vector<RecordPair> truth;
  for (const RecordPair& p : labeled.pairs) {
    if (p.label == 1) truth.push_back(p);
  }
  return truth;
}

struct Counts {
  uint64_t tp = 0, fp = 0, fn = 0;
  void Add(const Counts& o) {
    tp += o.tp;
    fp += o.fp;
    fn += o.fn;
  }
  double F1() const {
    const uint64_t d = 2 * tp + fp + fn;
    return d == 0 ? 0.0 : 2.0 * tp / d;
  }
};

Counts CountLabeled(const std::vector<RecordPair>& pairs,
                    const std::vector<double>& scores) {
  Counts c;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const bool pred = scores[i] >= 0.5;
    const bool truth = pairs[i].label == 1;
    c.tp += pred && truth;
    c.fp += pred && !truth;
    c.fn += !pred && truth;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Ledger: perfbench's spans around public layer calls, each with its parent,
// start and end, kept in memory and written once at exit as Chrome
// trace_event JSON.

class Ledger {
 public:
  explicit Ledger(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  // Times `fn` as span `name`. When `cpu` is set the span's process CPU
  // time is accumulated for the name's *_cpu_util metric.
  template <typename Fn>
  auto Time(const char* name, Fn&& fn, bool cpu = false) {
    if (!enabled_) return fn();
    Scope scope(this, name, cpu);
    return fn();
  }

  // Opens a structural span (bench.*) that layer spans nest under.
  class Scope {
   public:
    Scope(Ledger* ledger, const char* name, bool cpu = false)
        : ledger_(ledger->enabled_ ? ledger : nullptr), cpu_(cpu) {
      if (ledger_ == nullptr) return;
      index_ = ledger_->spans_.size();
      const int parent = ledger_->open_.empty() ? -1 : ledger_->open_.back();
      ledger_->spans_.push_back({name, parent, ledger_->Now(), 0});
      ledger_->open_.push_back(static_cast<int>(index_));
      if (cpu_) cpu_start_ = ProcessCpuSeconds();
    }
    ~Scope() {
      if (ledger_ == nullptr) return;
      ledger_->open_.pop_back();
      Span& span = ledger_->spans_[index_];
      span.end_us = ledger_->Now();
      if (cpu_) {
        Use& use = ledger_->cpu_[span.name];
        use.cpu_s += ProcessCpuSeconds() - cpu_start_;
        use.wall_s += (span.end_us - span.start_us) * 1e-6;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger* ledger_;
    bool cpu_;
    size_t index_ = 0;
    double cpu_start_ = 0.0;
  };

  // getrusage CPU over (wall x threads) of every span named `name`.
  double CpuUtil(const std::string& name, int threads) const {
    auto it = cpu_.find(name);
    if (it == cpu_.end() || it->second.wall_s <= 0.0) return 0.0;
    return it->second.cpu_s / (it->second.wall_s * threads);
  }

  std::string ChromeJson() const {
    std::string out = "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%llu,\"dur\":%llu,"
                    "\"args\":{\"span\":%zu,\"parent\":%d}}%s\n",
                    s.name.c_str(),
                    static_cast<unsigned long long>(s.start_us),
                    static_cast<unsigned long long>(s.end_us - s.start_us),
                    i, s.parent, i + 1 < spans_.size() ? "," : "");
      out += buf;
    }
    out += "]}\n";
    return out;
  }

 private:
  struct Span {
    std::string name;
    int parent;  // index of the enclosing span, -1 at the top
    uint64_t start_us;
    uint64_t end_us;
  };
  struct Use {
    double cpu_s = 0.0;
    double wall_s = 0.0;
  };

  uint64_t Now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              origin_)
            .count());
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // indices of the spans open right now
  std::map<std::string, Use> cpu_;
};

// ---------------------------------------------------------------------------
// Run state shared by every workload: options, output checks, counters.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;    // tiny inputs, for the README's smoke mode
  bool perturb = false;  // corrupt one output; the checks must catch it
  std::string trace_out;
};

struct Run {
  explicit Run(const Options& options)
      : options(options), ledger(options.trace) {}

  const Options options;
  Ledger ledger;
  int threads = 1;  // pool size of the workload's library calls
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  // Records one output check; a failed check counts as a failed operation.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    correct = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }

  // Records one library call; a non-OK status is a failed call.
  bool Call(const Status& status, const std::string& what) {
    ++attempted;
    if (status.ok()) return true;
    ++failed;
    correct = false;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
                 status.ToString().c_str());
    return false;
  }

  // Adds work items (trials, scored pairs) and the ones that failed
  // (quarantined trials, non-finite scores) to attempted/failed.
  void Count(uint64_t items, uint64_t bad) {
    attempted += items;
    failed += bad;
  }

  // Reported metrics (name -> value), and raw tallies the per-layer
  // rates are derived from.
  std::map<std::string, double> metrics;
  std::map<std::string, double> tallies;
};

// Seed of the k-th generated dataset of a run.
uint64_t DatasetSeed(uint64_t seed, size_t k) {
  return Mix64(seed * 0x9e3779b97f4a7c15ull + k + 1);
}

Result<BenchmarkData> Generate(Run* run, const std::string& dataset,
                               uint64_t seed, double scale) {
  return run->ledger.Time("datagen.generate", [&] {
    return GenerateBenchmarkByName(dataset, seed, scale);
  });
}

// Untraced runs set up at least kSetupMinRepeats times and for at least
// kSetupMinSeconds in total, and report the median as setup_s; the traced
// run sets up once.
void MeasureSetup(Run* run, const std::function<void()>& setup) {
  std::vector<double> walls;
  double total = 0.0;
  do {
    Ledger::Scope scope(&run->ledger, "bench.setup");
    auto start = Clock::now();
    setup();
    walls.push_back(Since(start));
    total += walls.back();
  } while (!run->options.trace && walls.size() < kSetupMaxRepeats &&
           (walls.size() < kSetupMinRepeats || total < kSetupMinSeconds));
  if (!run->options.trace) run->metrics["setup_s"] = Median(walls);
}

// Closed loop: calls `op` until the run's seconds have elapsed (at least
// once). `op` returns its timed wall and the work items it completed;
// call_s and pairs_per_s are medians over the calls.
struct OpSample {
  double wall_s;
  double items;
};
void ClosedLoop(Run* run, const std::function<OpSample()>& op) {
  std::vector<double> walls, rates;
  auto start = Clock::now();
  do {
    OpSample s = op();
    walls.push_back(s.wall_s);
    rates.push_back(s.items / s.wall_s);
  } while (Since(start) < run->options.seconds);
  run->metrics["call_s"] = Median(walls);
  run->metrics["pairs_per_s"] = Median(rates);
  std::fprintf(stderr, "perfbench: %zu calls, call_s p50 %.4f max %.4f\n",
               walls.size(), Median(walls),
               *std::max_element(walls.begin(), walls.end()));
}

EntityMatcher::Options MatcherOptions(int evals, int threads) {
  EntityMatcher::Options options;
  options.automl.max_evaluations = evals;
  options.automl.parallelism = Parallelism::Threads(threads);
  return options;
}

// ---------------------------------------------------------------------------
// Stage replay: re-fits each trial's configuration through the public
// preprocessing and classifier classes, in EmPipeline::Fit's order, so the
// trial wall splits into preprocess.* / ml.rf_fit / ml.rf_predict.
// EmPipeline keeps its configuration -> component mapping private, so the
// replay restates it below; the valid_f1 check catches any drift.

ParamMap SubParams(const Configuration& config, const std::string& prefix) {
  ParamMap out;
  const std::string full = prefix + ":";
  for (const auto& [key, value] : config) {
    if (key.compare(0, full.size(), full) == 0) {
      out[key.substr(full.size())] = value;
    }
  }
  return out;
}

std::unique_ptr<Transform> MakeScaler(const Configuration& config) {
  const std::string choice =
      GetString(config, "rescaling:__choice__", "none");
  if (choice == "standard_scaler") return std::make_unique<StandardScaler>();
  if (choice == "minmax_scaler") return std::make_unique<MinMaxScaler>();
  if (choice == "robust_scaler") {
    ParamMap p = SubParams(config, "rescaling:robust_scaler");
    return std::make_unique<RobustScaler>(GetDouble(p, "q_min", 25.0),
                                          GetDouble(p, "q_max", 75.0));
  }
  return nullptr;
}

std::unique_ptr<Transform> MakePreprocessor(const Configuration& config) {
  const std::string choice =
      GetString(config, "preprocessor:__choice__", "no_preprocessing");
  ParamMap p = SubParams(config, "preprocessor:" + choice);
  if (choice == "select_percentile_classification") {
    return std::make_unique<SelectPercentile>(
        GetDouble(p, "percentile", 50.0),
        GetString(p, "score_func", "f_classif"));
  }
  if (choice == "select_rates") {
    return std::make_unique<SelectRates>(GetDouble(p, "alpha", 0.05),
                                         GetString(p, "mode", "fpr"),
                                         GetString(p, "score_func", "chi2"));
  }
  if (choice == "pca") {
    return std::make_unique<Pca>(GetDouble(p, "keep_variance", 0.95));
  }
  if (choice == "feature_agglomeration") {
    return std::make_unique<FeatureAgglomeration>(
        static_cast<int>(GetInt(p, "n_clusters", 25)));
  }
  if (choice == "variance_threshold") {
    return std::make_unique<VarianceThreshold>(GetDouble(p, "threshold", 0.0));
  }
  return nullptr;
}

struct ReplayTotals {
  uint64_t mismatched = 0;
  double trees = 0.0;
  double predict_rows = 0.0;
};

// Replays one trial; returns its validation F1.
Result<double> ReplayTrial(Run* run, const Configuration& config,
                           const Dataset& train, const Dataset& valid,
                           ReplayTotals* totals) {
  Ledger& ledger = run->ledger;
  const uint64_t seed = static_cast<uint64_t>(GetInt(config, "seed", 11));
  SimpleImputer imputer(GetString(config, "imputation:strategy", "mean"));
  std::unique_ptr<Transform> scaler = MakeScaler(config);
  std::unique_ptr<Transform> preprocessor = MakePreprocessor(config);

  auto fit_apply = [](Transform* t, Matrix* X, const std::vector<int>& y) {
    Status st = t->Fit(*X, y);
    if (st.ok()) *X = t->Apply(*X);
    return st;
  };
  Matrix X = train.X;
  AUTOEM_RETURN_IF_ERROR(ledger.Time("preprocess.impute", [&] {
    return fit_apply(&imputer, &X, train.y);
  }));
  if (scaler) {
    AUTOEM_RETURN_IF_ERROR(ledger.Time("preprocess.scale", [&] {
      return fit_apply(scaler.get(), &X, train.y);
    }));
  }
  if (preprocessor) {
    AUTOEM_RETURN_IF_ERROR(ledger.Time("preprocess.select", [&] {
      return fit_apply(preprocessor.get(), &X, train.y);
    }));
  }

  std::vector<int> y = train.y;
  std::vector<double> weights;
  ledger.Time("preprocess.balance", [&] {
    const std::string balancing =
        GetString(config, "balancing:strategy", "none");
    if (balancing == "weighting") {
      auto w = BalancedClassWeights(y);
      if (w.ok()) weights = std::move(*w);
    } else if (balancing == "oversample") {
      Rng rng(seed);
      auto idx = RandomOversampleIndices(y, &rng);
      if (idx.ok()) {
        X = X.SelectRows(*idx);
        std::vector<int> resampled;
        resampled.reserve(idx->size());
        for (size_t i : *idx) resampled.push_back(y[i]);
        y = std::move(resampled);
      }
    }
    return 0;
  });

  const std::string model =
      GetString(config, "classifier:__choice__", "random_forest");
  ParamMap params = SubParams(config, "classifier:" + model);
  params["seed"] = static_cast<int64_t>(seed);
  auto classifier = CreateClassifier(model, params);
  AUTOEM_RETURN_IF_ERROR(classifier.status());
  (*classifier)->SetParallelism(Parallelism::Threads(run->threads));
  AUTOEM_RETURN_IF_ERROR(ledger.Time(
      "ml.rf_fit",
      [&] {
        return (*classifier)->Fit(X, y, weights.empty() ? nullptr : &weights);
      },
      /*cpu=*/true));
  totals->trees += GetInt(params, "n_estimators", 0);

  Matrix Xv = ledger.Time("preprocess.apply", [&] {
    Matrix out = imputer.Apply(valid.X);
    if (scaler) out = scaler->Apply(out);
    if (preprocessor) out = preprocessor->Apply(out);
    return out;
  });
  std::vector<double> proba = ledger.Time(
      "ml.rf_predict", [&] { return (*classifier)->PredictProba(Xv); });
  totals->predict_rows += Xv.rows();
  std::vector<int> pred(proba.size());
  for (size_t i = 0; i < proba.size(); ++i) pred[i] = proba[i] >= 0.5;
  return F1Score(valid.y, pred);
}

// Replays every clean trial of `result` and SMAC's surrogate fits on the
// trajectory prefixes it fits on. Counts replayed trials whose validation
// F1 differs from the recorded one in `totals->mismatched`.
void ReplaySearch(Run* run, const AutoMlEmResult& result,
                  const Dataset& train, const Dataset& valid,
                  const AutoMlEmOptions& options, ReplayTotals* totals) {
  Ledger::Scope scope(&run->ledger, "bench.replay");
  for (const EvalRecord& record : result.trajectory) {
    if (record.failure != TrialFailure::kNone) continue;
    auto f1 = ReplayTrial(run, record.config, train, valid, totals);
    if (!f1.ok() || *f1 != record.valid_f1) ++totals->mismatched;
  }
  const ConfigurationSpace space = BuildEmSearchSpace(options.model_space);
  const auto& trajectory = result.trajectory;
  for (size_t t = kSmacInit; t < trajectory.size(); t += 2) {
    Matrix X(t, space.Encode(trajectory[0].config).size());
    std::vector<double> scores(t);
    for (size_t r = 0; r < t; ++r) {
      std::vector<double> row = space.Encode(trajectory[r].config);
      std::copy(row.begin(), row.end(), X.RowPtr(r));
      scores[r] = trajectory[r].valid_f1;
    }
    SurrogateForest surrogate;
    Status st = run->ledger.Time("automl.surrogate_fit",
                                 [&] { return surrogate.Fit(X, scores); });
    run->Call(st, "SurrogateForest::Fit");
  }
}

// ---------------------------------------------------------------------------
// Workload search_beer: EntityMatcher::Train on BeerAdvo-RateBeer labeled
// pairs, many datasets per call.

// One search's wall depends on the forests SMAC proposes for its dataset
// (1.4-4.9 s serial at 50 evaluations), so a call trains many datasets and
// reports their mean: a median over datasets jumps between those modes.
constexpr const char* kBeerDataset = "BeerAdvo-RateBeer";
constexpr int kBeerEvals = 25;
constexpr size_t kBeerDatasets = 32;  // generated at set-up
constexpr size_t kBeerTraced = 16;    // trained and replayed when traced
// The search's forests are tiny, so with a pool every fit waits on workers
// waking on other vCPUs. On a shared host that wake-up latency, not the
// code, set the time: same-seed runs spread 25% at 4 threads, 13% at 2 and
// a few % serial.
constexpr int kBeerThreads = 1;

struct TrainOutput {
  std::string model_bytes;
  std::vector<double> test_scores;
  Counts counts;
  size_t trials = 0;
  size_t trials_failed = 0;
};

// Serializes the matcher and scores its test pairs, checking the model
// round-trips through io::DeserializeModel bit-identically.
TrainOutput Inspect(Run* run, const EntityMatcher& matcher,
                    const PairSet& test) {
  TrainOutput out;
  const auto& result = matcher.automl_result();
  out.trials = result.trajectory.size();
  out.trials_failed = result.trials_failed;
  run->Count(out.trials, out.trials_failed);
  if (!run->Call(io::SerializeModel(matcher, &out.model_bytes),
                 "SerializeModel")) {
    return out;
  }
  auto scores = matcher.ScorePairs(test);
  if (!run->Call(scores.status(), "ScorePairs")) return out;
  out.test_scores = std::move(*scores);
  if (run->options.perturb) out.test_scores[0] += 0.25;
  out.counts = CountLabeled(test.pairs, out.test_scores);

  auto loaded = io::DeserializeModel(out.model_bytes);
  if (!run->Call(loaded.status(), "DeserializeModel")) return out;
  auto reloaded = loaded->ScorePairs(test);
  if (!run->Call(reloaded.status(), "ScorePairs(reloaded)")) return out;
  run->Check(BitIdentical(out.test_scores, *reloaded),
             "test scores of the trained and the reloaded model agree");
  return out;
}

void RunSearch(Run* run) {
  const Options& opt = run->options;
  run->threads = kBeerThreads;
  const int evals = opt.smoke ? 12 : kBeerEvals;
  const EntityMatcher::Options matcher_options =
      MatcherOptions(evals, run->threads);

  std::vector<BenchmarkData> sets;
  MeasureSetup(run, [&] {
    std::vector<BenchmarkData> generated;
    for (size_t k = 0; k < kBeerDatasets; ++k) {
      auto data = Generate(run, kBeerDataset, DatasetSeed(opt.seed, k), 1.0);
      if (!run->Call(data.status(), "GenerateBenchmark")) std::exit(1);
      generated.push_back(std::move(*data));
    }
    sets = std::move(generated);
  });

  // Trains dataset k, checks the matcher, and returns the Train wall.
  std::vector<TrainOutput> reference;  // first output per dataset
  auto train = [&](size_t k) {
    auto start = Clock::now();
    auto matcher = EntityMatcher::Train(sets[k].train, matcher_options);
    const double wall = Since(start);
    if (!run->Call(matcher.status(), "EntityMatcher::Train")) std::exit(1);
    TrainOutput out = Inspect(run, *matcher, sets[k].test);
    if (reference.size() == k) {
      reference.push_back(std::move(out));
    } else {
      run->Check(out.model_bytes == reference[k].model_bytes,
                 "repeated training gives identical model bytes");
    }
    return wall;
  };

  // One closed-loop call trains every dataset once and reports the mean
  // Train wall, so call_s reads as the time to one searched model.
  auto untraced = [&]() -> OpSample {
    double wall = 0.0, pairs = 0.0;
    for (size_t k = 0; k < sets.size(); ++k) {
      wall += train(k);
      pairs += sets[k].train.pairs.size();
    }
    return {wall / sets.size(), pairs / sets.size()};
  };

  if (!opt.trace) {
    ClosedLoop(run, untraced);
    Counts pooled;
    size_t trials = 0, quarantined = 0;
    for (const TrainOutput& o : reference) {
      pooled.Add(o.counts);
      trials += o.trials;
      quarantined += o.trials_failed;
    }
    run->metrics["quality"] = pooled.F1();
    std::printf("search_beer: %zu datasets, test_f1 %.4f, %zu trials, %zu "
                "quarantined\n",
                sets.size(), pooled.F1(), trials, quarantined);
    return;
  }

  // Traced run: one untraced pass over the first kBeerTraced datasets, then
  // the same pass decomposed into its public layer calls under ledger
  // spans, then the stage replay.
  sets.resize(std::min(sets.size(), kBeerTraced));
  double untraced_wall = 0.0;
  for (size_t k = 0; k < sets.size(); ++k) untraced_wall += train(k);
  Ledger& ledger = run->ledger;
  double traced_wall = 0.0;
  std::vector<double> trial_ms;
  double trial_wall_s = 0.0, feature_pairs = 0.0;
  ReplayTotals totals;
  for (size_t k = 0; k < sets.size(); ++k) {
    const PairSet& pairs = sets[k].train;
    std::unique_ptr<FeatureGenerator> generator;
    Dataset train, valid;
    Result<AutoMlEmResult> result = Status::Internal("not run");
    {
      Ledger::Scope op(&ledger, "bench.op");
      auto start = Clock::now();
      auto created = CreateFeatureGenerator("automl_em");
      if (!run->Call(created.status(), "CreateFeatureGenerator")) std::exit(1);
      generator = std::move(*created);
      generator->set_parallelism(matcher_options.automl.parallelism);
      Status planned = ledger.Time("features.plan", [&] {
        return generator->Plan(pairs.left, pairs.right);
      });
      if (!run->Call(planned, "FeatureGenerator::Plan")) std::exit(1);
      feature_pairs += pairs.pairs.size();
      Dataset all = ledger.Time(
          "features.generate", [&] { return generator->Generate(pairs); },
          /*cpu=*/true);
      // RunAutoMlEm(train_all, ...)'s own stratified split, made here so
      // the replay sees exactly the datasets the search saw.
      Rng rng(matcher_options.automl.seed ^ 0x9e3779b97f4a7c15ull);
      SplitResult split = TrainTestSplit(
          all, matcher_options.automl.valid_fraction, &rng, true);
      train = std::move(split.train);
      valid = std::move(split.test);
      result = ledger.Time("automl.search", [&] {
        return RunAutoMlEm(train, valid, matcher_options.automl);
      });
      traced_wall += Since(start);
    }
    if (!run->Call(result.status(), "RunAutoMlEm")) std::exit(1);
    for (const EvalRecord& r : result->trajectory) {
      trial_ms.push_back(1e3 * r.fit_seconds);
      trial_wall_s += r.fit_seconds;
    }
    ReplaySearch(run, *result, train, valid, matcher_options.automl, &totals);
    EntityMatcher matcher =
        EntityMatcher::FromFitted(std::move(generator), std::move(*result));
    TrainOutput out = Inspect(run, matcher, sets[k].test);
    run->Check(out.model_bytes == reference[k].model_bytes,
               "traced and untraced training give identical model bytes");
    run->Check(out.counts.F1() == reference[k].counts.F1(),
               "traced and untraced training give identical test F1");
  }
  run->Check(totals.mismatched == 0,
             "every replayed trial reproduces its recorded validation F1");

  uint64_t quarantined = 0;
  for (const TrainOutput& o : reference) quarantined += o.trials_failed;
  run->metrics["bench.trace_overhead_s"] = traced_wall - untraced_wall;
  run->metrics["automl.trials"] = trial_ms.size();
  run->metrics["automl.trials_failed"] = quarantined;
  run->metrics["automl.trial_p50_ms"] = Percentile(trial_ms, 0.5);
  run->metrics["automl.trial_p90_ms"] = Percentile(trial_ms, 0.9);
  run->tallies["automl.trial_wall_s"] = trial_wall_s;
  run->tallies["features.pairs"] = feature_pairs;
  run->tallies["ml.trees"] = totals.trees;
  run->tallies["ml.predict_rows"] = totals.predict_rows;
}

// ---------------------------------------------------------------------------
// Workload predict_wa: block the test tables, score every candidate with a
// model that went through SerializeModel -> DeserializeModel.

// Scoring splits into 4,096-pair chunks, coarse enough that a 4-thread
// pool measures the code rather than the host's scheduler.
constexpr int kPredictThreads = 4;

void RunPredict(Run* run) {
  const Options& opt = run->options;
  run->threads = kPredictThreads;
  const double scale = opt.smoke ? 0.05 : 1.0;
  const QGramBlocker blocker("name", 3);

  BenchmarkData data;
  std::string model_bytes;
  std::unique_ptr<EntityMatcher> matcher;
  MeasureSetup(run, [&] {
    auto generated = Generate(run, "Walmart-Amazon", opt.seed, scale);
    if (!run->Call(generated.status(), "GenerateBenchmark")) std::exit(1);
    // One evaluation without refit: the deployed model is the default
    // configuration on every seed, so set-up and scoring cost do not
    // depend on which configuration a short search happens to pick.
    EntityMatcher::Options options = MatcherOptions(1, run->threads);
    options.automl.refit_on_train_plus_valid = false;
    auto trained = run->ledger.Time("em.train", [&] {
      return EntityMatcher::Train(generated->train, options);
    });
    if (!run->Call(trained.status(), "EntityMatcher::Train")) std::exit(1);
    std::string bytes;
    Status saved = run->ledger.Time(
        "io.save", [&] { return io::SerializeModel(*trained, &bytes); });
    if (!run->Call(saved, "SerializeModel")) std::exit(1);
    auto loaded = run->ledger.Time(
        "io.load", [&] { return io::DeserializeModel(bytes); });
    if (!run->Call(loaded.status(), "DeserializeModel")) std::exit(1);
    loaded->SetParallelism(Parallelism::Threads(run->threads));
    if (!model_bytes.empty()) {
      run->Check(bytes == model_bytes, "set-up trains identical models");
    }
    data = std::move(*generated);
    model_bytes = std::move(bytes);
    matcher = std::make_unique<EntityMatcher>(std::move(*loaded));
  });
  run->tallies["io.model_bytes"] = model_bytes.size();

  PairSet candidates{data.test.left, data.test.right, {}};
  std::set<std::pair<size_t, size_t>> truth;
  for (const RecordPair& p : TruePairs(data.test)) {
    truth.insert({p.left_id, p.right_id});
  }

  // Scores of a fixed strided sample, recomputed with a 1-thread ScorePairs.
  auto check_sample = [&](const std::vector<double>& scores) {
    auto serial = io::DeserializeModel(model_bytes);
    if (!run->Call(serial.status(), "DeserializeModel")) return;
    serial->SetParallelism(Parallelism::Serial());
    PairSet sample{candidates.left, candidates.right, {}};
    std::vector<double> expected;
    const size_t n = candidates.pairs.size();
    const size_t m = std::min(kSampleSize, n);
    for (size_t i = 0; i < m; ++i) {
      const size_t idx = i * n / m;
      sample.pairs.push_back(candidates.pairs[idx]);
      expected.push_back(scores[idx]);
    }
    auto got = serial->ScorePairs(sample);
    if (!run->Call(got.status(), "ScorePairs(serial)")) return;
    run->Check(BitIdentical(expected, *got),
               "batched scores match a 1-thread ScorePairs on the sample");
  };

  struct Output {
    size_t count = 0;
    std::pair<uint64_t, uint64_t> digest;
    std::vector<double> scores;
  };
  Output reference;
  auto inspect = [&](std::vector<double> scores) {
    if (opt.perturb) scores[scores.size() / 2] += 0.25;
    uint64_t bad = 0;
    for (double s : scores) bad += !(std::isfinite(s) && s >= 0.0 && s <= 1.0);
    run->Count(scores.size(), bad);
    Output out{candidates.pairs.size(), CandidateDigest(candidates.pairs),
               std::move(scores)};
    if (reference.scores.empty()) {
      check_sample(out.scores);
      reference = std::move(out);
      return;
    }
    run->Check(out.count == reference.count && out.digest == reference.digest,
               "repeated blocking gives the same candidate set");
    run->Check(BitIdentical(out.scores, reference.scores),
               "repeated scoring gives identical scores");
  };

  auto untraced = [&]() -> OpSample {
    auto start = Clock::now();
    auto blocked = blocker.Block(candidates.left, candidates.right);
    if (!run->Call(blocked.status(), "QGramBlocker::Block")) std::exit(1);
    candidates.pairs = std::move(*blocked);
    auto scores = matcher->ScorePairsBatched(candidates, kScoreChunk);
    const double wall = Since(start);
    if (!run->Call(scores.status(), "ScorePairsBatched")) std::exit(1);
    inspect(std::move(*scores));
    return {wall, static_cast<double>(candidates.pairs.size())};
  };

  if (!opt.trace) {
    ClosedLoop(run, untraced);
    Counts c;
    for (size_t i = 0; i < candidates.pairs.size(); ++i) {
      const RecordPair& p = candidates.pairs[i];
      const bool pred = reference.scores[i] >= 0.5;
      const bool match = truth.count({p.left_id, p.right_id}) > 0;
      c.tp += pred && match;
      c.fp += pred && !match;
    }
    c.fn = truth.size() - c.tp;
    run->metrics["quality"] = c.F1();
    std::printf("predict_wa: %zu candidates, match_f1 %.4f\n",
                candidates.pairs.size(), c.F1());
    return;
  }

  const double untraced_wall = untraced().wall_s;
  Ledger& ledger = run->ledger;
  double traced_wall = 0.0;
  std::vector<double> batched;
  {
    Ledger::Scope op(&ledger, "bench.op");
    auto start = Clock::now();
    auto blocked = ledger.Time("em.block", [&] {
      return blocker.Block(candidates.left, candidates.right);
    });
    if (!run->Call(blocked.status(), "QGramBlocker::Block")) std::exit(1);
    candidates.pairs = std::move(*blocked);
    auto scores = ledger.Time(
        "em.score",
        [&] { return matcher->ScorePairsBatched(candidates, kScoreChunk); },
        /*cpu=*/true);
    traced_wall = Since(start);
    if (!run->Call(scores.status(), "ScorePairsBatched")) std::exit(1);
    batched = std::move(*scores);
  }
  inspect(std::move(batched));
  run->metrics["bench.trace_overhead_s"] = traced_wall - untraced_wall;
  run->tallies["em.block_candidates"] = candidates.pairs.size();

  // Replay of ScorePairsBatched through its public parts: one Prepare, then
  // per chunk GenerateChunk + the fitted pipeline's PredictProba.
  Ledger::Scope replay(&ledger, "bench.replay");
  const FeatureGenerator& generator = matcher->feature_generator();
  const EmPipeline& model = matcher->automl_result().model;
  auto prepared = ledger.Time("features.prepare", [&] {
    return generator.Prepare(candidates.left, candidates.right);
  });
  std::vector<double> scores;
  const size_t n = candidates.pairs.size();
  for (size_t begin = 0; begin < n; begin += kScoreChunk) {
    const size_t end = std::min(begin + kScoreChunk, n);
    Matrix X = ledger.Time(
        "features.generate",
        [&] {
          return generator.GenerateChunk(prepared, candidates.pairs, begin,
                                         end);
        },
        /*cpu=*/true);
    std::vector<double> chunk =
        ledger.Time("ml.rf_predict", [&] { return model.PredictProba(X); });
    scores.insert(scores.end(), chunk.begin(), chunk.end());
  }
  run->Check(BitIdentical(scores, reference.scores),
             "replayed Prepare/GenerateChunk/PredictProba scores match "
             "ScorePairsBatched");
  run->tallies["features.pairs"] = n;
  run->tallies["ml.predict_rows"] = n;
}

// ---------------------------------------------------------------------------
// Reporting.

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (--trace 0) and the per-layer ledger (--trace 1),
// in BENCHMARK.json's order. Every workload reports every name; a layer a
// workload does not exercise reads 0.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},     {"call_s", "s"},       {"pairs_per_s", "1/s"},
    {"quality", "ratio"}, {"peak_rss_mb", "MB"},
};
const std::vector<MetricSpec> kPerLayer = {
    {"datagen.generate_s", "s"},
    {"features.plan_s", "s"},
    {"features.prepare_s", "s"},
    {"features.generate_s", "s"},
    {"features.pairs_per_s", "1/s"},
    {"features.cpu_util", "ratio"},
    {"automl.search_s", "s"},
    {"automl.trials", "count"},
    {"automl.trials_failed", "count"},
    {"automl.trial_p50_ms", "ms"},
    {"automl.trial_p90_ms", "ms"},
    {"automl.surrogate_fit_s", "s"},
    {"automl.overhead_s", "s"},
    {"preprocess.impute_s", "s"},
    {"preprocess.scale_s", "s"},
    {"preprocess.select_s", "s"},
    {"preprocess.balance_s", "s"},
    {"preprocess.apply_s", "s"},
    {"ml.rf_fit_s", "s"},
    {"ml.rf_trees_per_s", "1/s"},
    {"ml.rf_fit_cpu_util", "ratio"},
    {"ml.rf_predict_s", "s"},
    {"ml.rf_predict_rows_per_s", "1/s"},
    {"em.block_s", "s"},
    {"em.block_candidates", "count"},
    {"em.score_s", "s"},
    {"em.score_cpu_util", "ratio"},
    {"io.save_s", "s"},
    {"io.load_s", "s"},
    {"io.model_bytes", "bytes"},
    {"bench.trace_overhead_s", "s"},
    {"bench.unattributed_s", "s"},
};

// Writes the trace, reads it back through the library's trace analyzer
// (the reader behind `autoem_cli trace-analyze`), and derives the ledger:
// each layer's self time is its spans' wall minus their children's.
void PublishLayers(Run* run) {
  const std::string json = run->ledger.ChromeJson();
  if (!run->options.trace_out.empty()) {
    std::ofstream out(run->options.trace_out, std::ios::binary);
    out << json;
    run->Check(static_cast<bool>(out),
               "trace written to " + run->options.trace_out);
  }
  auto analysis = obs::AnalyzeTraceJson(json);
  if (!run->Call(analysis.status(), "obs::AnalyzeTraceJson")) return;
  std::map<std::string, double> self_s;
  for (const obs::BlameRow& row : analysis->blame) {
    self_s[row.name] = row.self_us * 1e-6;
  }
  auto self = [&](const std::string& span) { return self_s[span]; };
  auto tally = [&](const std::string& name) { return run->tallies[name]; };
  auto per_s = [](double n, double s) { return s > 0.0 ? n / s : 0.0; };
  const Ledger& ledger = run->ledger;
  auto& m = run->metrics;

  // Every "<span>_s" metric is that span's summed self time.
  for (const MetricSpec& spec : kPerLayer) {
    const std::string name = spec.name;
    if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0 &&
        self_s.count(name.substr(0, name.size() - 2))) {
      m[name] = self(name.substr(0, name.size() - 2));
    }
  }
  m["features.pairs_per_s"] =
      per_s(tally("features.pairs"), self("features.generate"));
  m["features.cpu_util"] = ledger.CpuUtil("features.generate", run->threads);
  if (self("automl.search") > 0.0) {
    m["automl.overhead_s"] =
        self("automl.search") - tally("automl.trial_wall_s");
  }
  m["ml.rf_trees_per_s"] = per_s(tally("ml.trees"), self("ml.rf_fit"));
  m["ml.rf_fit_cpu_util"] = ledger.CpuUtil("ml.rf_fit", run->threads);
  m["ml.rf_predict_rows_per_s"] =
      per_s(tally("ml.predict_rows"), self("ml.rf_predict"));
  m["em.block_candidates"] = tally("em.block_candidates");
  m["em.score_cpu_util"] = ledger.CpuUtil("em.score", run->threads);
  m["io.model_bytes"] = tally("io.model_bytes");
  m["bench.unattributed_s"] = self("bench.op");
}

// Prints the workload's end-to-end figures under their user-facing names,
// then the result line.
void Report(Run* run) {
  const Options& opt = run->options;
  auto& m = run->metrics;
  if (!opt.trace) {
    const double fail_ratio =
        run->attempted > 0 ? double(run->failed) / run->attempted : 0.0;
    std::vector<std::pair<std::string, std::pair<double, const char*>>> lines;
    lines.push_back({"setup_s", {m["setup_s"], "s"}});
    if (opt.workload == "search_beer") {
      lines.push_back({"train_s", {m["call_s"], "s"}});
      lines.push_back({"test_f1", {m["quality"], "ratio"}});
    } else {
      lines.push_back({"predict_s", {m["call_s"], "s"}});
      lines.push_back({"score_pairs_per_s", {m["pairs_per_s"], "1/s"}});
      lines.push_back({"match_f1", {m["quality"], "ratio"}});
    }
    lines.push_back({"peak_rss_mb", {m["peak_rss_mb"], "MB"}});
    lines.push_back({"fail_ratio", {fail_ratio, "ratio"}});
    for (const auto& [name, value] : lines) {
      std::printf("%s %s %.6g %s\n", opt.workload.c_str(), name.c_str(),
                  value.first, value.second);
    }
  }
  std::string json = "{\"correct\": ";
  json += run->correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run->attempted);
  json += ", \"failed\": " + std::to_string(run->failed);
  json += ", \"metrics\": {";
  const auto& specs = opt.trace ? kPerLayer : kEndToEnd;
  for (size_t i = 0; i < specs.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, m[specs[i].name],
                  specs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload search_beer|predict_wa "
               "--seed N --seconds S --trace 0|1 [--smoke] [--perturb] "
               "[--trace-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace autoem

int main(int argc, char** argv) {
  using namespace autoem;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(Usage());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--perturb") {
      opt.perturb = true;
    } else {
      return Usage();
    }
  }

  Run run(opt);
  if (opt.workload == "search_beer") {
    RunSearch(&run);
  } else if (opt.workload == "predict_wa") {
    RunPredict(&run);
  } else {
    return Usage();
  }
  run.metrics["peak_rss_mb"] = PeakRssMb();
  if (opt.trace) PublishLayers(&run);
  Report(&run);
  return run.correct ? 0 : 1;
}
