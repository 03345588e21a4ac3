// Tests for the autoem::obs subsystem: logger, metrics registry, span
// tracer, session plumbing — and the invariant everything else hinges on:
// instrumentation never changes computed results.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "automl/automl_em.h"
#include "automl/config_io.h"
#include "automl/explain.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/critical_path.h"
#include "obs/json.h"
#include "obs/obs.h"

namespace autoem {
namespace {

bool IsValidJson(const std::string& text) {
  return obs::ValidateJson(text).ok();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---- JSON validator sanity ------------------------------------------------

TEST(JsonValidatorTest, AcceptsAndRejects) {
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_TRUE(IsValidJson("{\"a\":[1,2.5,-3e-2],\"b\":{\"c\":null}}"));
  EXPECT_TRUE(IsValidJson("[\"\\u00e9\\n\",true,false]"));
  EXPECT_FALSE(IsValidJson("{"));
  EXPECT_FALSE(IsValidJson("{\"a\":}"));
  EXPECT_FALSE(IsValidJson("{\"a\":1,}"));
  EXPECT_FALSE(IsValidJson("[1 2]"));
  EXPECT_FALSE(IsValidJson("\"unterminated"));
  EXPECT_FALSE(IsValidJson("nan"));
}

// ---- JsonReader grammar ---------------------------------------------------

TEST(JsonReaderTest, AcceptsAndRejectsByGrammarTable) {
  struct Case {
    std::string doc;
    bool valid;
  };
  auto nested = [](size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const Case cases[] = {
      // Numbers.
      {"0", true}, {"-0", true}, {"10", true}, {"1.5e-3", true},
      {"-12E+2", true}, {"4.9e-324", true}, {"01", false}, {"-01", false},
      {"00", false}, {"1.", false}, {".5", false}, {"+1", false},
      {"-", false}, {"1e", false}, {"1e+", false}, {"0x10", false},
      {"inf", false}, {"-inf", false}, {"nan", false}, {"1e999", false},
      // Strings.
      {"\"\"", true}, {"\"\\u00e9\\ud83d\\ude00\"", true},
      {"\"\\ud800\"", true}, {"\"a\x01" "b\"", false},
      {std::string("\"a\0b\"", 5), false}, {"\"a\tb\"", false},
      {"\"\\u12\"", false}, {"\"\\u00g0\"", false}, {"\"\\u", false},
      {"\"\\x\"", false}, {"\"abc", false},
      // Whitespace and trailing data.
      {" \t\r\n[1] \t\r\n", true}, {"\v1", false}, {"1\f", false},
      {"{} x", false}, {"[1]]", false}, {"", false}, {"  ", false},
      // Containers and literals.
      {"{}", true}, {"[]", true}, {"{ }", true}, {"[ ]", true},
      {"[true,false,null]", true}, {"tru", false}, {"nul", false},
      {"[1,]", false}, {"[,1]", false}, {"{\"a\" 1}", false},
      {"{\"a\":1,}", false}, {"{1:2}", false}, {"[1}", false},
      {"{\"a\":1,\"a\":2}", true}, {nested(64), true}, {nested(65), false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(obs::ValidateJson(c.doc).ok(), c.valid) << "'" << c.doc << "'";
  }
}

TEST(JsonReaderTest, DecodesEscapesToUtf8AndReportsOffsets) {
  const std::string doc = "\"\\u00e9 \\ud83d\\ude00 \\ud800 \\/\\b\\t\"";
  obs::JsonReader reader(doc);
  std::string s;
  ASSERT_TRUE(reader.ReadString(&s) && reader.End())
      << reader.status().ToString();
  EXPECT_EQ(s, "\xc3\xa9 \xf0\x9f\x98\x80 \xed\xa0\x80 /\b\t");
  EXPECT_EQ(obs::ValidateJson("[1,]").message(),
            "json: unexpected character at offset 3");
  EXPECT_EQ(obs::ValidateJson(std::string(65, '[')).message(),
            "json: nesting deeper than 64 at offset 64");
}

TEST(JsonReaderTest, DuplicateKeysLastOneWins) {
  // The reader reports every member; readers that store by key keep the
  // last, as the trace reader does for an event's fields.
  auto analysis = obs::AnalyzeTraceJson(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"tid\":1,\"ts\":0,"
      "\"dur\":5,\"dur\":10}]}");
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_EQ(analysis->wall_us, 10u);
}

// ---- metrics --------------------------------------------------------------

TEST(MetricsTest, ConcurrentCounterSumsExactly) {
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("test.concurrent_counter");
  uint64_t before = counter->Total();

  constexpr size_t kIncrements = 100000;
  ThreadPool pool(8);
  pool.ParallelFor(kIncrements, [&](size_t i) { counter->Add(i % 3 + 1); });

  uint64_t expected = 0;
  for (size_t i = 0; i < kIncrements; ++i) expected += i % 3 + 1;
  EXPECT_EQ(counter->Total() - before, expected);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  obs::Histogram* hist = obs::MetricsRegistry::Global().GetHistogram(
      "test.bounds_hist", {1.0, 2.0, 5.0});
  // Boundary semantics: bucket i counts values <= bounds[i] (Prometheus
  // `le`); values above the last bound land in the overflow bucket.
  hist->Observe(0.5);   // bucket 0
  hist->Observe(1.0);   // bucket 0 (inclusive upper bound)
  hist->Observe(1.001); // bucket 1
  hist->Observe(2.0);   // bucket 1
  hist->Observe(5.0);   // bucket 2
  hist->Observe(100.0); // overflow

  obs::Histogram::Snapshot snap = hist->Snap();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 100.0);
}

TEST(MetricsTest, HistogramConcurrentObservationsAllLand) {
  obs::Histogram* hist = obs::MetricsRegistry::Global().GetHistogram(
      "test.concurrent_hist", {10.0, 100.0});
  uint64_t before = hist->Snap().count;
  constexpr size_t kObs = 50000;
  ThreadPool pool(8);
  pool.ParallelFor(kObs, [&](size_t i) {
    hist->Observe(static_cast<double>(i % 200));
  });
  EXPECT_EQ(hist->Snap().count - before, kObs);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge("test.gauge");
  gauge->Set(0.25);
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.25);
  gauge->Set(-3.5);
  EXPECT_DOUBLE_EQ(gauge->Value(), -3.5);
}

TEST(MetricsTest, RegistryHandlesAreStableAndShared) {
  obs::Counter* a = obs::MetricsRegistry::Global().GetCounter("test.stable");
  obs::Counter* b = obs::MetricsRegistry::Global().GetCounter("test.stable");
  EXPECT_EQ(a, b);
}

TEST(MetricsTest, SnapshotJsonIsParseable) {
  obs::MetricsRegistry::Global().GetCounter("test.snap_counter")->Add(3);
  obs::MetricsRegistry::Global().GetGauge("test.snap_gauge")->Set(1.5);
  obs::MetricsRegistry::Global()
      .GetHistogram("test.snap_hist")
      ->Observe(4.2);
  std::string json = obs::MetricsRegistry::Global().SnapshotJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"test.snap_counter\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // NaN/inf must never leak into the JSON (they are not valid JSON tokens).
  obs::MetricsRegistry::Global()
      .GetGauge("test.snap_nan")
      ->Set(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(IsValidJson(obs::MetricsRegistry::Global().SnapshotJson()));
}

// ---- logging --------------------------------------------------------------

TEST(LogTest, ParseLogLevel) {
  obs::LogLevel level = obs::LogLevel::kOff;
  EXPECT_TRUE(obs::ParseLogLevel("info", &level));
  EXPECT_EQ(level, obs::LogLevel::kInfo);
  EXPECT_TRUE(obs::ParseLogLevel("WARN", &level));
  EXPECT_EQ(level, obs::LogLevel::kWarn);
  EXPECT_TRUE(obs::ParseLogLevel("warning", &level));
  EXPECT_EQ(level, obs::LogLevel::kWarn);
  EXPECT_FALSE(obs::ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, obs::LogLevel::kWarn);  // untouched on failure
}

TEST(LogTest, DisabledLevelSkipsArgumentEvaluation) {
  obs::LogLevel saved = obs::MinLogLevel();
  obs::SetMinLogLevel(obs::LogLevel::kWarn);
  int evaluations = 0;
  auto touch = [&]() {
    ++evaluations;
    return 42;
  };
  AUTOEM_LOG(DEBUG) << "value " << touch();
  EXPECT_EQ(evaluations, 0);
  obs::SetMinLogLevel(saved);
}

TEST(LogTest, JsonlSinkEmitsParseableLines) {
  std::string path = TempPath("obs_test_log.jsonl");
  obs::LogLevel saved = obs::MinLogLevel();
  obs::SetMinLogLevel(obs::LogLevel::kInfo);
  ASSERT_TRUE(obs::OpenLogFile(path));
  AUTOEM_LOG(INFO) << "hello \"quoted\" and \\ backslash";
  AUTOEM_LOG(DEBUG) << "must be filtered out";
  AUTOEM_LOG(ERROR) << "numbered " << 7;
  obs::CloseLogFile();
  obs::SetMinLogLevel(saved);

  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);  // debug filtered
  for (const std::string& l : lines) {
    EXPECT_TRUE(IsValidJson(l)) << l;
    EXPECT_NE(l.find("\"level\""), std::string::npos);
    EXPECT_NE(l.find("\"msg\""), std::string::npos);
    EXPECT_NE(l.find("\"src\""), std::string::npos);
  }
  EXPECT_NE(lines[0].find("quoted"), std::string::npos);
  EXPECT_NE(lines[1].find("numbered 7"), std::string::npos);
  std::remove(path.c_str());
}

TEST(LogDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ AUTOEM_CHECK_MSG(1 == 2, "intentional failure"); },
               "intentional failure");
}

TEST(LogTest, DcheckCompilesAndPasses) {
  AUTOEM_DCHECK(1 + 1 == 2);  // must compile in both build modes
#ifdef NDEBUG
  // In release builds the condition must not be evaluated.
  int evaluations = 0;
  auto touch = [&]() {
    ++evaluations;
    return false;
  };
  AUTOEM_DCHECK(touch());
  EXPECT_EQ(evaluations, 0);
#endif
}

// ---- tracing --------------------------------------------------------------

TEST(TraceTest, DisabledSpanRecordsNothing) {
  ASSERT_FALSE(obs::TracingEnabled());
  size_t before = obs::TraceEventCount();
  {
    obs::Span span("test.disabled");
    EXPECT_FALSE(span.active());
    span.Arg("k", 1.0);  // must be a safe no-op
  }
  EXPECT_EQ(obs::TraceEventCount(), before);
}

TEST(TraceTest, SpansNestAndJsonParses) {
  obs::StartTracing();
  {
    obs::Span outer("test.outer");
    ASSERT_TRUE(outer.active());
    outer.Arg("trial", 3);
    outer.Arg("f1", 0.875);
    outer.Arg("name", std::string("a \"quoted\" label"));
    {
      obs::Span inner("test.inner");
      AUTOEM_SPAN("test.macro");
    }
  }
  obs::StopTracing();

  std::vector<obs::TraceEvent> events = obs::SnapshotTraceEvents();
  ASSERT_EQ(events.size(), 3u);

  const obs::TraceEvent* outer_ev = nullptr;
  const obs::TraceEvent* inner_ev = nullptr;
  for (const auto& e : events) {
    if (std::strcmp(e.name, "test.outer") == 0) outer_ev = &e;
    if (std::strcmp(e.name, "test.inner") == 0) inner_ev = &e;
  }
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);
  // Same thread, and the inner span's [start, end] sits inside the outer's.
  EXPECT_EQ(outer_ev->tid, inner_ev->tid);
  EXPECT_LE(outer_ev->ts_us, inner_ev->ts_us);
  EXPECT_GE(outer_ev->ts_us + outer_ev->dur_us,
            inner_ev->ts_us + inner_ev->dur_us);

  std::string json = obs::TraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("test.outer"), std::string::npos);
  EXPECT_NE(json.find("\"trial\":3"), std::string::npos);
}

TEST(TraceTest, EmptyRuntimeNameIsOwnedByTheEvent) {
  // An owned name that is empty must still be handed to the buffer: the
  // span's own storage is gone by the time the trace is serialized.
  obs::StartTracing();
  { obs::Span span(std::string("")); }
  obs::StopTracing();
  std::vector<obs::TraceEvent> events = obs::SnapshotTraceEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, nullptr);
  EXPECT_STREQ(events[0].label(), "");
  std::string json = obs::TraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"name\":\"\""), std::string::npos) << json;
}

TEST(TraceTest, WorkerThreadSpansCarryDistinctTids) {
  obs::StartTracing();
  {
    std::atomic<int> done{0};
    ThreadPool pool(4);
    pool.ParallelFor(
        256,
        [&](size_t) {
          done.fetch_add(1, std::memory_order_relaxed);
        },
        "test.chunk");
    EXPECT_EQ(done.load(), 256);
  }
  obs::StopTracing();

  std::vector<obs::TraceEvent> events = obs::SnapshotTraceEvents();
  size_t chunk_events = 0;
  for (const auto& e : events) {
    if (std::strcmp(e.name, "test.chunk") == 0) ++chunk_events;
  }
  EXPECT_GT(chunk_events, 0u);
  EXPECT_TRUE(IsValidJson(obs::TraceJson()));
}

TEST(TraceTest, WriteTraceProducesLoadableFile) {
  // The trace file is written by the session that started tracing, through
  // the atomic writer: no temporary is left next to it.
  ASSERT_FALSE(obs::TracingEnabled());
  std::string path = TempPath("obs_test_trace.json");
  {
    obs::ObsOptions options;
    options.trace_path = path;
    obs::ObsSession session(options);
    AUTOEM_SPAN("test.file_span");
  }
  EXPECT_FALSE(obs::TracingEnabled());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::string content = ReadFile(path);
  EXPECT_TRUE(IsValidJson(content)) << content;
  EXPECT_NE(content.find("test.file_span"), std::string::npos);
  std::remove(path.c_str());
}

// ---- ObsOptions / ObsSession ---------------------------------------------

TEST(ObsOptionsTest, ParseObsFlag) {
  obs::ObsOptions opt;
  EXPECT_FALSE(opt.Any());
  EXPECT_TRUE(obs::ParseObsFlag("--log-level=debug", &opt));
  EXPECT_TRUE(obs::ParseObsFlag("--trace-out=/tmp/t.json", &opt));
  EXPECT_TRUE(obs::ParseObsFlag("--metrics-out=/tmp/m.json", &opt));
  EXPECT_EQ(opt.log_level, "debug");
  EXPECT_EQ(opt.trace_path, "/tmp/t.json");
  EXPECT_EQ(opt.metrics_path, "/tmp/m.json");
  EXPECT_TRUE(opt.Any());
  EXPECT_FALSE(obs::ParseObsFlag("--threads=4", &opt));
  EXPECT_FALSE(obs::ParseObsFlag("--log-level", &opt));  // missing '='
}

TEST(ObsSessionTest, WritesTraceAndMetricsOnExit) {
  std::string trace_path = TempPath("obs_session_trace.json");
  std::string metrics_path = TempPath("obs_session_metrics.json");
  {
    obs::ObsOptions opt;
    opt.trace_path = trace_path;
    opt.metrics_path = metrics_path;
    obs::ObsSession session(opt);
    EXPECT_TRUE(obs::TracingEnabled());
    {
      // A nested session must not stop the outer session's tracing.
      obs::ObsOptions inner_opt;
      inner_opt.trace_path = trace_path;
      obs::ObsSession inner(inner_opt);
    }
    EXPECT_TRUE(obs::TracingEnabled());
    AUTOEM_SPAN("test.session_span");
  }
  EXPECT_FALSE(obs::TracingEnabled());

  std::string trace = ReadFile(trace_path);
  std::string metrics = ReadFile(metrics_path);
  EXPECT_TRUE(IsValidJson(trace)) << trace;
  EXPECT_TRUE(IsValidJson(metrics));
  EXPECT_NE(trace.find("test.session_span"), std::string::npos);
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

// ---- instrumentation must not change results ------------------------------

Dataset MakeEmLikeData(size_t n, uint64_t seed, double noise = 1.6) {
  Rng rng(seed);
  Dataset d;
  const size_t dims = 10;
  d.X = Matrix(n, dims);
  d.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int label = rng.Bernoulli(0.25) ? 1 : 0;
    d.y[i] = label;
    for (size_t c = 0; c < dims; ++c) {
      double center = (c < dims / 2 && label == 1) ? 1.0 : 0.0;
      d.X.At(i, c) = rng.Normal(center, noise);
    }
  }
  for (size_t c = 0; c < dims; ++c) {
    d.feature_names.push_back("f" + std::to_string(c));
  }
  return d;
}

AutoMlEmResult MustRunSearch(const Dataset& train, const Dataset& valid,
                             const AutoMlEmOptions& options) {
  auto result = RunAutoMlEm(train, valid, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

TEST(ObsDeterminismTest, SearchIsBitIdenticalWithTracingOnAndOff) {
  Dataset train = MakeEmLikeData(160, 21);
  Dataset valid = MakeEmLikeData(80, 22);

  AutoMlEmOptions options;
  options.max_evaluations = 6;
  options.seed = 3;

  AutoMlEmResult off = MustRunSearch(train, valid, options);

  AutoMlEmOptions traced_options = options;
  traced_options.obs.trace_path = TempPath("obs_determinism_trace.json");
  AutoMlEmResult on = MustRunSearch(train, valid, traced_options);

  // The trace was actually produced...
  std::string trace = ReadFile(traced_options.obs.trace_path);
  EXPECT_TRUE(IsValidJson(trace));
  EXPECT_NE(trace.find("automl.pipeline_eval"), std::string::npos);
  std::remove(traced_options.obs.trace_path.c_str());

  // ...and had zero effect on the search: identical configs and
  // bit-identical scores, trial by trial.
  ASSERT_EQ(off.trajectory.size(), on.trajectory.size());
  EXPECT_EQ(SerializeConfiguration(off.best_config),
            SerializeConfiguration(on.best_config));
  for (size_t i = 0; i < off.trajectory.size(); ++i) {
    EXPECT_EQ(SerializeConfiguration(off.trajectory[i].config),
              SerializeConfiguration(on.trajectory[i].config))
        << "trial " << i;
    EXPECT_EQ(0, std::memcmp(&off.trajectory[i].valid_f1,
                             &on.trajectory[i].valid_f1, sizeof(double)))
        << "trial " << i;
  }
}

TEST(ObsDeterminismTest, EvalRecordsCarryTrialAndElapsed) {
  Dataset train = MakeEmLikeData(120, 31);
  Dataset valid = MakeEmLikeData(60, 32);
  AutoMlEmOptions options;
  options.max_evaluations = 4;
  options.seed = 5;
  AutoMlEmResult result = MustRunSearch(train, valid, options);
  ASSERT_GE(result.trajectory.size(), 2u);
  for (size_t i = 0; i < result.trajectory.size(); ++i) {
    EXPECT_EQ(result.trajectory[i].trial, static_cast<int>(i));
    EXPECT_GE(result.trajectory[i].elapsed_seconds, 0.0);
  }
  // Elapsed is cumulative wall clock: non-decreasing across trials.
  for (size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_GE(result.trajectory[i].elapsed_seconds,
              result.trajectory[i - 1].elapsed_seconds);
  }
}

// ---- trajectory serialization (Fig. 3 tuning curve) -----------------------

TEST(TrajectoryTest, SerializeTrajectoryCsvFormat) {
  EvalRecord a;
  a.trial = 0;
  a.elapsed_seconds = 1.5;
  a.fit_seconds = 1.25;
  a.valid_f1 = 0.5;
  a.config["model"] = ParamValue(std::string("random_forest"));
  EvalRecord b = a;
  b.trial = 1;
  b.elapsed_seconds = 3.0;
  b.valid_f1 = 0.75;

  std::string csv = SerializeTrajectoryCsv({a, b});
  std::istringstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "trial,elapsed_seconds,fit_seconds,valid_f1,test_f1,"
            "best_f1_so_far,config_hash,cpu_seconds,peak_rss_delta_kb,"
            "allocs,pool_wait_micros,pool_busy_micros,"
            "failure");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.substr(0, 2), "0,");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.substr(0, 2), "1,");
  // best_f1_so_far is the running max.
  EXPECT_NE(line.find("0.75"), std::string::npos);
  EXPECT_FALSE(std::getline(in, line) && !line.empty());
}

TEST(TrajectoryTest, ConfigurationHashIsStableAndSensitive) {
  Configuration config;
  config["model"] = ParamValue(std::string("random_forest"));
  config["n_estimators"] = ParamValue(static_cast<int64_t>(100));
  uint64_t h1 = ConfigurationHash(config);
  EXPECT_EQ(h1, ConfigurationHash(config));  // deterministic
  config["n_estimators"] = ParamValue(static_cast<int64_t>(101));
  EXPECT_NE(h1, ConfigurationHash(config));  // sensitive to changes
}

TEST(TrajectoryTest, FormatTuningCurveShapes) {
  std::vector<EvalRecord> trajectory;
  for (int t = 0; t < 10; ++t) {
    EvalRecord r;
    r.trial = t;
    r.elapsed_seconds = t * 0.5;
    r.valid_f1 = 0.1 * t;
    trajectory.push_back(r);
  }
  std::string full = FormatTuningCurve(trajectory);
  EXPECT_EQ(std::count(full.begin(), full.end(), '\n'), 11);  // header + 10
  std::string capped = FormatTuningCurve(trajectory, 4);
  EXPECT_NE(capped.find("elided"), std::string::npos);
  EXPECT_LT(std::count(capped.begin(), capped.end(), '\n'), 11);
  // The last (best) row always survives elision.
  EXPECT_NE(capped.find("0.9000"), std::string::npos);
}

}  // namespace
}  // namespace autoem
