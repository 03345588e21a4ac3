#ifndef AUTOEM_OBS_REPORT_H_
#define AUTOEM_OBS_REPORT_H_

#include <string>

namespace autoem {
namespace obs {

/// Inputs for the post-run report (`autoem_cli report`). Every artifact is
/// optional: sections whose input is missing render a "not recorded" note,
/// so a trace alone still yields the timeline and critical-path sections.
struct ReportInputs {
  std::string title;           // heading; defaults to "AutoEM run report"
  std::string trajectory_csv;  // SerializeTrajectoryCsv output
  std::string metrics_text;    // the --metrics-out JSON snapshot
  std::string trace_json;      // Chrome trace_event JSON (TraceJson output)
};

/// Joins trajectory + metrics snapshot + trace into one self-contained HTML
/// file: tuning curve, per-trial table (score, config hash, CPU / wall /
/// RSS, failure reason), failure summary, cache hit-rate stats, and a
/// "where the time went" section (critical-path lane + ranked
/// self/wait/child blame table, computed from the trace via
/// obs/critical_path.h). Metrics text that is not one JSON object is not
/// embedded (`metrics_final` stays null). The document embeds its data
/// as an inline JSON payload and draws with <canvas>; it references no
/// external assets, so it can be archived or attached to a CI run as a
/// single file.
std::string BuildRunReportHtml(const ReportInputs& inputs);

}  // namespace obs
}  // namespace autoem

#endif  // AUTOEM_OBS_REPORT_H_
