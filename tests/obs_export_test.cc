// Tests for the obs export surface: ResourceProbe accounting and the
// self-contained HTML run report, including the metrics snapshot an
// ObsSession writes.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "automl/config_io.h"
#include "automl/evaluator.h"
#include "io/atomic_file.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/resource.h"

namespace autoem {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string MustRead(const std::string& path) {
  std::string bytes;
  Status st = io::ReadFileToString(path, &bytes);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return bytes;
}

// ---- ResourceProbe --------------------------------------------------------------

TEST(ResourceProbeTest, DisabledProbeSamplesNothing) {
  obs::SetResourceProbesEnabled(false);
  obs::ResourceProbe probe;
  EXPECT_FALSE(probe.active());
  obs::ResourceUsage usage = probe.Take();
  EXPECT_FALSE(usage.sampled);
  EXPECT_EQ(usage.cpu_seconds, 0.0);
  EXPECT_EQ(usage.wall_seconds, 0.0);
  EXPECT_EQ(usage.peak_rss_delta_kb, 0);
  EXPECT_EQ(usage.allocs, 0u);
}

TEST(ResourceProbeTest, EnabledProbeMeasuresWorkAndAllocations) {
  obs::SetResourceProbesEnabled(true);
  obs::SetAllocationCounting(true);
  {
    obs::ResourceProbe probe;
    ASSERT_TRUE(probe.active());
    // Burn a little CPU and make heap allocations the hook must count.
    volatile double sink = 0.0;
    std::vector<std::string> strings;
    for (int i = 0; i < 2000; ++i) {
      strings.push_back(std::string(64, static_cast<char>('a' + i % 26)));
      for (int j = 0; j < 200; ++j) sink += j * 0.5;
    }
    obs::ResourceUsage usage = probe.Take();
    EXPECT_TRUE(usage.sampled);
    EXPECT_GE(usage.cpu_seconds, 0.0);
    EXPECT_GE(usage.wall_seconds, usage.cpu_seconds * 0.0);  // both sampled
    EXPECT_GT(usage.allocs, 0u);
  }
  obs::SetAllocationCounting(false);
  obs::SetResourceProbesEnabled(false);
}

TEST(ResourceProbeTest, RawSamplersReportPlausibleValues) {
  double cpu = obs::ThreadCpuSeconds();
  EXPECT_GE(cpu, 0.0);
  // Any live Linux process has a nonzero peak RSS.
  EXPECT_GT(obs::PeakRssKb(), 0);
}

// ---- run report -----------------------------------------------------------------

std::vector<EvalRecord> MakeTrajectory() {
  EvalRecord ok;
  ok.config["classifier:__choice__"] = std::string("random_forest");
  ok.config["classifier:random_forest:n_estimators"] = 64;
  ok.valid_f1 = 0.82;
  ok.test_f1 = 0.8;
  ok.fit_seconds = 0.4;
  ok.trial = 0;
  ok.elapsed_seconds = 1.5;
  ok.resources.sampled = true;
  ok.resources.cpu_seconds = 0.37;
  ok.resources.wall_seconds = 0.41;
  ok.resources.peak_rss_delta_kb = 2048;
  ok.resources.allocs = 123456;

  EvalRecord failed = ok;
  failed.trial = 1;
  failed.valid_f1 = 0.0;
  failed.test_f1 = -1.0;
  failed.failure = TrialFailure::kTimeout;
  failed.failure_message = "deadline exceeded";
  failed.config["classifier:random_forest:n_estimators"] = 512;
  return {ok, failed};
}

TEST(RunReportTest, CoversEveryTrialIncludingFailures) {
  std::vector<EvalRecord> trajectory = MakeTrajectory();
  obs::ReportInputs inputs;
  inputs.title = "unit-test run";
  inputs.trajectory_csv = SerializeTrajectoryCsv(trajectory);
  std::string html = obs::BuildRunReportHtml(inputs);

  ASSERT_FALSE(html.empty());
  // 100% trial coverage: each config hash from the CSV appears in the
  // embedded payload, completed and quarantined alike.
  char hash0[32], hash1[32];
  std::snprintf(hash0, sizeof(hash0), "%016llx",
                static_cast<unsigned long long>(
                    ConfigurationHash(trajectory[0].config)));
  std::snprintf(hash1, sizeof(hash1), "%016llx",
                static_cast<unsigned long long>(
                    ConfigurationHash(trajectory[1].config)));
  EXPECT_NE(html.find(hash0), std::string::npos);
  EXPECT_NE(html.find(hash1), std::string::npos);
  EXPECT_NE(html.find("timeout"), std::string::npos);
  EXPECT_NE(html.find("unit-test run"), std::string::npos);
}

TEST(RunReportTest, IsSelfContained) {
  obs::ReportInputs inputs;
  inputs.trajectory_csv = SerializeTrajectoryCsv(MakeTrajectory());
  inputs.metrics_text = obs::MetricsRegistry::Global().SnapshotJson();
  inputs.trace_json =
      "[\n{\"name\":\"automl.trial\",\"cat\":\"autoem\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":1,\"ts\":10,\"dur\":250}\n]\n";
  std::string html = obs::BuildRunReportHtml(inputs);

  // A single archivable file: no external fetches of any kind.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_NE(html.find("<canvas"), std::string::npos);
  EXPECT_NE(html.find("<script id=\"payload\" type=\"application/json\">"),
            std::string::npos);
  // The metrics snapshot and trace summary made it into the payload.
  EXPECT_NE(html.find("\"metrics_final\":{"), std::string::npos);
  EXPECT_NE(html.find("automl.trial"), std::string::npos);
}

TEST(RunReportTest, EscapesHostileTitleAndPayload) {
  obs::ReportInputs inputs;
  inputs.title = "<script>alert(1)</script> & friends";
  inputs.trajectory_csv = SerializeTrajectoryCsv(MakeTrajectory());
  // A trace whose span name tries to break out of the payload script tag.
  inputs.trace_json =
      "[\n{\"name\":\"</script><b>x\",\"cat\":\"autoem\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":5}\n]\n";
  std::string html = obs::BuildRunReportHtml(inputs);
  EXPECT_EQ(html.find("<script>alert"), std::string::npos);
  // The only "</script>" occurrences are the document's own closing tags;
  // the payload's embedded one must be escaped to <\/script>.
  EXPECT_NE(html.find("<\\/script>"), std::string::npos);
}

// The JSON payload a report embeds, as the page's JSON.parse sees it.
std::string ReportPayload(const std::string& html) {
  const std::string open = "<script id=\"payload\" type=\"application/json\">";
  size_t begin = html.find(open);
  if (begin == std::string::npos) return "";
  begin += open.size();
  return html.substr(begin, html.find("</script>", begin) - begin);
}

TEST(RunReportTest, TrajectoryFieldsOutsideTheNumberGrammarAreQuoted) {
  obs::ReportInputs inputs;
  inputs.trajectory_csv =
      "trial,valid_f1,test_f1,fit_seconds\n0,0x10,+5,1.\n1,0.5,-2e-3,1e999\n";
  std::string payload = ReportPayload(obs::BuildRunReportHtml(inputs));
  Status parsed = obs::ValidateJson(payload);
  EXPECT_TRUE(parsed.ok()) << parsed.ToString() << "\n" << payload;
  EXPECT_NE(payload.find("\"valid_f1\":\"0x10\""), std::string::npos);
  EXPECT_NE(payload.find("\"test_f1\":\"+5\""), std::string::npos);
  EXPECT_NE(payload.find("\"fit_seconds\":\"1.\""), std::string::npos);
  EXPECT_NE(payload.find("\"fit_seconds\":\"1e999\""), std::string::npos);
  EXPECT_NE(payload.find("\"valid_f1\":0.5"), std::string::npos);
  EXPECT_NE(payload.find("\"test_f1\":-2e-3"), std::string::npos);
}

TEST(RunReportTest, MetricsThatAreNotOneJsonObjectAreNotEmbedded) {
  obs::ReportInputs inputs;
  inputs.trajectory_csv = SerializeTrajectoryCsv(MakeTrajectory());
  // A broken line, a JSONL series, an OpenMetrics exposition, a JSON array:
  // none is the one snapshot object --metrics-out writes, so none is
  // embedded, neither as a series nor as raw text.
  for (const char* text :
       {"{\"a\":1}\n{\"b\":}", "{\"a\":1}\n{\"a\":2}\n",
        "# TYPE x counter\nx_total 3\n# EOF\n", "[{\"a\":1}]"}) {
    inputs.metrics_text = text;
    std::string payload = ReportPayload(obs::BuildRunReportHtml(inputs));
    Status parsed = obs::ValidateJson(payload);
    EXPECT_TRUE(parsed.ok()) << parsed.ToString() << "\n" << payload;
    EXPECT_NE(payload.find("\"metrics_final\":null"), std::string::npos)
        << text;
    EXPECT_EQ(payload.find("metrics_series"), std::string::npos) << text;
    EXPECT_EQ(payload.find("metrics_raw"), std::string::npos) << text;
    EXPECT_EQ(payload.find("\"a\":"), std::string::npos) << text;
  }

  // One JSON object is embedded as it stands.
  inputs.metrics_text = "  {\"a\":2}\n";
  std::string payload = ReportPayload(obs::BuildRunReportHtml(inputs));
  EXPECT_TRUE(obs::ValidateJson(payload).ok()) << payload;
  EXPECT_NE(payload.find("\"metrics_final\":{\"a\":2}"), std::string::npos);
}

TEST(RunReportTest, MetricsOutSnapshotFillsMetricsFinal) {
  // The file an ObsSession writes for --metrics-out is what the report's
  // summary and cache cards read.
  obs::MetricsRegistry::Global()
      .GetCounter("features.token_cache_hits")
      ->Add(7);
  std::string path = TempPath("obs_export_report_metrics.json");
  {
    obs::ObsOptions options;
    options.metrics_path = path;
    obs::ObsSession session(options);
  }
  obs::ReportInputs inputs;
  inputs.trajectory_csv = SerializeTrajectoryCsv(MakeTrajectory());
  inputs.metrics_text = MustRead(path);
  ASSERT_TRUE(obs::ValidateJson(inputs.metrics_text).ok())
      << inputs.metrics_text;
  std::string payload = ReportPayload(obs::BuildRunReportHtml(inputs));
  ASSERT_TRUE(obs::ValidateJson(payload).ok()) << payload;
  size_t final_at = payload.find("\"metrics_final\":{");
  ASSERT_NE(final_at, std::string::npos) << payload;
  size_t hits_at = payload.find("\"features.token_cache_hits\": ", final_at);
  ASSERT_NE(hits_at, std::string::npos) << payload;
  EXPECT_NE(payload.find("\"counters\": {", final_at), std::string::npos);
  std::remove(path.c_str());
}

TEST(RunReportTest, MinimalTrajectoryOnlyReportStillBuilds) {
  obs::ReportInputs inputs;
  inputs.trajectory_csv = SerializeTrajectoryCsv({});
  std::string html = obs::BuildRunReportHtml(inputs);
  ASSERT_FALSE(html.empty());
  EXPECT_NE(html.find("</html>"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
}

}  // namespace
}  // namespace autoem
