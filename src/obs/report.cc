#include "obs/report.h"

#include <algorithm>
#include <vector>

#include "obs/critical_path.h"
#include "obs/json.h"

namespace autoem {
namespace obs {

namespace {

std::string Trimmed(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      if (start < text.size()) lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::vector<std::string> SplitCsvRow(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(Trimmed(line.substr(start)));
      break;
    }
    fields.push_back(Trimmed(line.substr(start, comma - start)));
    start = comma + 1;
  }
  return fields;
}

bool QuotedColumn(const std::string& name) {
  return name == "config_hash" || name == "failure" ||
         name == "failure_message";
}

/// trajectory.csv -> JSON array of row objects keyed by the header names.
std::string TrajectoryToJson(const std::string& csv) {
  std::vector<std::string> lines = SplitLines(csv);
  if (lines.empty()) return "[]";
  std::vector<std::string> header = SplitCsvRow(lines[0]);
  std::string out = "[";
  bool first_row = true;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (Trimmed(lines[i]).empty()) continue;
    std::vector<std::string> fields = SplitCsvRow(lines[i]);
    if (!first_row) out += ",";
    first_row = false;
    out += "\n{";
    for (size_t c = 0; c < header.size() && c < fields.size(); ++c) {
      if (c > 0) out += ",";
      out += JsonQuote(header[c]);
      out += ":";
      double number = 0;
      if (!QuotedColumn(header[c]) && ParseJsonNumber(fields[c], &number)) {
        out += fields[c];
      } else {
        out += JsonQuote(fields[c]);
      }
    }
    out += "}";
  }
  out += "\n]";
  return out;
}

/// The metrics file is the one pretty JSON object that `--metrics-out`
/// writes (MetricsRegistry::SnapshotJson). Anything else is not embedded.
std::string MetricsFinalJson(const std::string& metrics_text) {
  std::string trimmed = Trimmed(metrics_text);
  if (trimmed.empty() || trimmed.front() != '{' ||
      !ValidateJson(trimmed).ok()) {
    return "null";
  }
  return trimmed;
}

/// The top span names of the trace by total duration: the analysis's blame
/// rows, which count every complete span once.
std::string TraceSummaryJson(const TraceAnalysis& analysis) {
  std::vector<const BlameRow*> rows;
  for (const BlameRow& row : analysis.blame) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(), [](const BlameRow* a, const BlameRow* b) {
    if (a->total_us != b->total_us) return a->total_us > b->total_us;
    return a->name < b->name;
  });
  if (rows.size() > 40) rows.resize(40);
  std::string out =
      "{\"events\":" + std::to_string(analysis.span_count) + ",\"spans\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n{\"name\":" + JsonQuote(rows[i]->name) +
           ",\"count\":" + std::to_string(rows[i]->count) + ",\"total_ms\":" +
           JsonNumber(static_cast<double>(rows[i]->total_us) / 1000.0) + "}";
  }
  out += "\n]}";
  return out;
}

std::string HtmlEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += c;
    }
  }
  return out;
}

/// `</` inside the inline JSON would terminate the <script> block early
/// (e.g. a failure message containing "</script>"); escape it the standard
/// way — JSON parsers treat `<\/` as `</`.
std::string ScriptSafe(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  for (size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '<' && i + 1 < json.size() && json[i + 1] == '/') {
      out += "<\\/";
      ++i;
    } else {
      out += json[i];
    }
  }
  return out;
}

const char kReportTemplate[] = R"HTML(<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>__AUTOEM_TITLE__</title>
<style>
:root { color-scheme: light; }
body { font: 14px/1.45 system-ui, sans-serif; margin: 0; color: #1c2430;
       background: #f5f6f8; }
header { background: #20304c; color: #fff; padding: 18px 28px; }
header h1 { margin: 0 0 4px; font-size: 20px; }
header .sub { color: #aebcd4; font-size: 12px; }
main { max-width: 1100px; margin: 0 auto; padding: 20px 28px 60px; }
section { background: #fff; border: 1px solid #dde2ea; border-radius: 8px;
          padding: 16px 20px; margin: 18px 0; }
h2 { font-size: 15px; margin: 0 0 12px; color: #20304c; }
.cards { display: flex; flex-wrap: wrap; gap: 12px; }
.card { background: #f0f3f8; border-radius: 6px; padding: 10px 16px;
        min-width: 120px; }
.card .v { font-size: 20px; font-weight: 600; }
.card .k { font-size: 11px; color: #5a6778; text-transform: uppercase; }
canvas { width: 100%; height: 260px; display: block; }
table { border-collapse: collapse; width: 100%; font-size: 12.5px; }
th, td { text-align: right; padding: 4px 10px;
         border-bottom: 1px solid #e8ebf0; font-variant-numeric: tabular-nums; }
th { color: #5a6778; font-weight: 600; position: sticky; top: 0;
     background: #fff; }
td.mono, th.mono { font-family: ui-monospace, monospace; }
td.l, th.l { text-align: left; }
tr.failed td { color: #a32020; background: #fdf3f3; }
.tablewrap { max-height: 420px; overflow-y: auto; }
.empty { color: #8a93a0; font-style: italic; }
</style>
</head>
<body>
<header>
  <h1>__AUTOEM_TITLE__</h1>
  <div class="sub" id="subtitle"></div>
</header>
<main>
  <section><h2>Summary</h2><div class="cards" id="summary"></div></section>
  <section><h2>Where the time went</h2><div id="critwrap">
    <div class="empty" id="critstatus">critical path — hover a segment</div>
    <canvas id="critlane" height="0"></canvas>
    <div class="cards" id="critqueue" style="margin:10px 0"></div>
    <div class="tablewrap" id="blame"></div>
  </div></section>
  <section><h2>Tuning curve</h2><div id="tuningwrap"><canvas id="tuning" height="260"></canvas></div></section>
  <section><h2>Per-trial resources</h2><div id="reswrap"><canvas id="resources" height="260"></canvas></div></section>
  <section><h2>Failures &amp; quarantine</h2><div id="failures"></div></section>
  <section><h2>Cache</h2><div class="cards" id="cache"></div></section>
  <section><h2>Top spans (trace)</h2><div id="spans"></div></section>
  <section><h2>Trials</h2><div class="tablewrap" id="trials"></div></section>
</main>
<script id="payload" type="application/json">__AUTOEM_PAYLOAD__</script>
<script>
"use strict";
const P = JSON.parse(document.getElementById("payload").textContent);
const trials = P.trials || [];
const fmt = (v, d) => (v === null || v === undefined || v === "" || isNaN(v))
    ? "—" : Number(v).toFixed(d === undefined ? 3 : d);
const esc = s => String(s).replace(/&/g, "&amp;").replace(/</g, "&lt;")
    .replace(/>/g, "&gt;");

// ---- metrics access (the --metrics-out snapshot) ------------------------
const finalMetrics = P.metrics_final;
const counter = n => {
  if (!finalMetrics || !finalMetrics.counters) return null;
  const c = finalMetrics.counters;
  return n in c ? c[n] : null;
};

// ---- summary cards ------------------------------------------------------
const done = trials.filter(t => !t.failure || t.failure === "ok");
const failed = trials.filter(t => t.failure && t.failure !== "ok");
const bestValid = done.length ? Math.max(...done.map(t => +t.valid_f1)) : null;
const bestRow = done.find(t => +t.valid_f1 === bestValid);
const elapsed = trials.length ? Math.max(...trials.map(t => +t.elapsed_seconds || 0)) : 0;
const sampled = trials.filter(t => t.cpu_seconds !== undefined && +t.allocs >= 0 && t.cpu_seconds !== "");
const totCpu = sampled.reduce((a, t) => a + (+t.cpu_seconds || 0), 0);
function card(k, v) { return `<div class="card"><div class="v">${v}</div><div class="k">${k}</div></div>`; }
document.getElementById("summary").innerHTML =
  card("trials", trials.length) +
  card("completed", done.length) +
  card("failed", failed.length) +
  card("best valid F1", fmt(bestValid)) +
  card("test F1 @ best", bestRow ? fmt(bestRow.test_f1) : "—") +
  card("elapsed", fmt(elapsed, 1) + " s") +
  (sampled.length ? card("trial CPU", fmt(totCpu, 2) + " s") : "");
document.getElementById("subtitle").textContent =
  trials.length + " trials · generated by autoem_cli report";

// ---- canvas helpers -----------------------------------------------------
function setup(id) {
  const cv = document.getElementById(id);
  const w = cv.clientWidth || 1000, h = 260, dpr = window.devicePixelRatio || 1;
  cv.width = w * dpr; cv.height = h * dpr;
  const g = cv.getContext("2d");
  g.scale(dpr, dpr);
  return { g, w, h, l: 52, r: 12, t: 12, b: 26 };
}
function axes(c, x0, x1, y0, y1, yfmt) {
  const { g, w, h, l, r, t, b } = c;
  g.strokeStyle = "#d4dae2"; g.fillStyle = "#5a6778";
  g.font = "11px system-ui"; g.lineWidth = 1;
  for (let i = 0; i <= 4; i++) {
    const y = t + (h - t - b) * i / 4;
    g.beginPath(); g.moveTo(l, y); g.lineTo(w - r, y); g.stroke();
    const v = y1 - (y1 - y0) * i / 4;
    g.textAlign = "right"; g.fillText(yfmt(v), l - 6, y + 4);
  }
  g.textAlign = "center";
  for (let i = 0; i <= 4; i++) {
    const x = l + (w - l - r) * i / 4;
    g.fillText(fmt(x0 + (x1 - x0) * i / 4, 0), x, h - 8);
  }
  c.px = v => l + (w - l - r) * (v - x0) / ((x1 - x0) || 1);
  c.py = v => t + (h - t - b) * (1 - (v - y0) / ((y1 - y0) || 1));
}

// ---- where the time went (critical path + blame) ------------------------
(function () {
  const C = P.critical;
  const wrap = document.getElementById("critwrap");
  if (!C || !C.critical_path || !C.critical_path.length) {
    wrap.innerHTML = '<div class="empty">No trace — rerun with --trace-out ' +
      "to get critical-path and queue-delay attribution.</div>";
    return;
  }
  const ms = us => fmt(us / 1000, 1);
  // Critical-path lane: one strip spanning the run; each segment is the
  // span (or queue wait, hatched gray) that determined the wall clock then.
  const cv = document.getElementById("critlane");
  const W = cv.clientWidth || 1000, H = 46, dpr = window.devicePixelRatio || 1;
  cv.width = W * dpr; cv.height = H * dpr; cv.style.height = H + "px";
  const g = cv.getContext("2d");
  g.scale(dpr, dpr);
  const segs = C.critical_path;
  const t0 = segs[0].start_us, t1 = segs[segs.length - 1].end_us;
  const px = v => (v - t0) / ((t1 - t0) || 1) * W;
  const hue = s => {
    let h = 0;
    for (let i = 0; i < s.length; i++) h = (h * 31 + s.charCodeAt(i)) >>> 0;
    return h % 360;
  };
  for (const s of segs) {
    const x = px(s.start_us), w = Math.max(px(s.end_us) - x, 0.4);
    g.fillStyle = s.kind === "queue" ? "#b9c0cc"
                                     : `hsl(${hue(s.name)},55%,60%)`;
    g.fillRect(x, 10, w, 26);
    if (s.kind === "queue") {
      g.fillStyle = "#8a93a0";
      for (let hx = x + 2; hx < x + w - 1; hx += 5) g.fillRect(hx, 10, 1, 26);
    }
  }
  const status = document.getElementById("critstatus");
  const cover = C.wall_us ? (100 * C.critical_us / C.wall_us).toFixed(1) : "0";
  const idle = "critical path: " + ms(C.critical_us) + " ms over " +
    ms(C.wall_us) + " ms wall (" + cover + "%) — hover a segment";
  status.textContent = idle;
  cv.addEventListener("mousemove", ev => {
    const box = cv.getBoundingClientRect();
    const mu = (ev.clientX - box.left) / W * ((t1 - t0) || 1) + t0;
    const s = segs.find(s => mu >= s.start_us && mu < s.end_us);
    status.textContent = s
      ? `${s.name}${s.kind === "queue" ? " [queue wait]" : ""} — ` +
        `${ms(s.end_us - s.start_us)} ms on tid ${s.tid}`
      : idle;
  });
  const q = C.queue_delay_us;
  document.getElementById("critqueue").innerHTML = !q || !q.count ? "" :
    card("queued tasks", q.count.toLocaleString()) +
    card("queue delay total", ms(q.total) + " ms") +
    card("p50", ms(q.p50) + " ms") +
    card("p95", ms(q.p95) + " ms") +
    card("max", ms(q.max) + " ms");
  // Ranked blame table: self + wait + child == total for every row.
  let html = '<table><tr><th class="l">span</th><th>count</th>' +
    "<th>total ms</th><th>self ms</th><th>wait ms</th><th>child ms</th>" +
    "<th>queue ms</th></tr>";
  for (const r of C.blame.slice(0, 25)) html +=
    `<tr><td class="l mono">${esc(r.name)}</td><td>${r.count}</td>` +
    `<td>${ms(r.total_us)}</td><td>${ms(r.self_us)}</td>` +
    `<td>${ms(r.wait_us)}</td><td>${ms(r.child_us)}</td>` +
    `<td>${ms(r.queue_us)}</td></tr>`;
  document.getElementById("blame").innerHTML = html + "</table>" +
    `<p class="empty">wait = span-local time covered by its queued tasks; ` +
    `queue = delay suffered by instances of the span itself. ` +
    `${C.flow_count} flows` +
    (C.flows_unmatched ? `, ${C.flows_unmatched} unmatched` : "") + ".</p>";
})();

// ---- tuning curve -------------------------------------------------------
(function () {
  if (!trials.length) {
    document.getElementById("tuningwrap").innerHTML =
      '<div class="empty">' + (P.has_trajectory ? "Empty trajectory."
        : "Trajectory not recorded — pass --trajectory.") + "</div>";
    return;
  }
  const c = setup("tuning");
  const xs = trials.map(t => +t.trial);
  axes(c, Math.min(...xs), Math.max(...xs), 0, 1, v => fmt(v, 2));
  c.g.fillStyle = "#7f9bd1";
  for (const t of done) {
    c.g.beginPath();
    c.g.arc(c.px(+t.trial), c.py(+t.valid_f1), 2.5, 0, 7); c.g.fill();
  }
  c.g.fillStyle = "#c86a6a";
  for (const t of failed) {
    c.g.fillRect(c.px(+t.trial) - 2, c.py(0.01) - 2, 4, 4);
  }
  c.g.strokeStyle = "#20304c"; c.g.lineWidth = 2; c.g.beginPath();
  let first = true;
  for (const t of trials) {
    if (t.best_f1_so_far === undefined) continue;
    const x = c.px(+t.trial), y = c.py(+t.best_f1_so_far);
    first ? c.g.moveTo(x, y) : c.g.lineTo(x, y); first = false;
  }
  c.g.stroke();
})();

// ---- per-trial resources ------------------------------------------------
(function () {
  if (!sampled.length) {
    document.getElementById("reswrap").innerHTML =
      '<div class="empty">' + (P.has_trajectory
        ? "No resource samples — rerun with --resources."
        : "Trial resources not recorded — pass --trajectory.") + "</div>";
    return;
  }
  const c = setup("resources");
  const xs = sampled.map(t => +t.trial);
  const ys = sampled.map(t => +t.cpu_seconds || 0);
  const ymax = Math.max(...ys, 1e-9);
  axes(c, Math.min(...xs), Math.max(...xs), 0, ymax, v => fmt(v, 2) + "s");
  const bw = Math.max(2, (c.w - c.l - c.r) / (xs.length * 1.6));
  c.g.fillStyle = "#5e8f6e";
  sampled.forEach(t => {
    const x = c.px(+t.trial), y = c.py(+t.cpu_seconds || 0);
    c.g.fillRect(x - bw / 2, y, bw, c.h - c.b - y);
  });
})();

// ---- failures -----------------------------------------------------------
(function () {
  const el = document.getElementById("failures");
  if (!failed.length) {
    el.innerHTML = '<div class="empty">' + (P.has_trajectory
      ? "No failed trials."
      : "Trial outcomes not recorded — pass --trajectory.") + "</div>";
    return;
  }
  const by = {};
  for (const t of failed) by[t.failure] = (by[t.failure] || 0) + 1;
  let html = '<div class="cards">';
  for (const k of Object.keys(by)) html +=
    `<div class="card"><div class="v">${by[k]}</div><div class="k">${esc(k)}</div></div>`;
  el.innerHTML = html + "</div>";
})();

// ---- cache --------------------------------------------------------------
(function () {
  const hits = counter("features.token_cache_hits");
  const misses = counter("features.token_cache_misses");
  const el = document.getElementById("cache");
  if (hits === null && misses === null) {
    el.innerHTML = '<div class="empty">No cache counters in metrics.</div>';
    return;
  }
  const h = hits || 0, m = misses || 0, tot = h + m;
  el.innerHTML = card("token cache hits", h.toLocaleString()) +
    card("misses", m.toLocaleString()) +
    card("hit rate", tot ? (100 * h / tot).toFixed(1) + "%" : "—");
})();

// ---- trace spans --------------------------------------------------------
(function () {
  const el = document.getElementById("spans");
  if (!P.trace || !P.trace.spans || !P.trace.spans.length) {
    el.innerHTML = '<div class="empty">No trace — rerun with --trace-out.</div>';
    return;
  }
  let html = '<table><tr><th class="l">span</th><th>count</th>' +
             "<th>total ms</th><th>mean ms</th></tr>";
  for (const s of P.trace.spans) html +=
    `<tr><td class="l mono">${esc(s.name)}</td><td>${s.count}</td>` +
    `<td>${fmt(s.total_ms, 1)}</td><td>${fmt(s.total_ms / s.count, 2)}</td></tr>`;
  el.innerHTML = html + "</table>" +
    `<p class="empty">${P.trace.events} events total.</p>`;
})();

// ---- per-trial table ----------------------------------------------------
(function () {
  const el = document.getElementById("trials");
  if (!trials.length) {
    el.innerHTML = '<div class="empty">' + (P.has_trajectory
      ? "Empty trajectory."
      : "Trials not recorded — pass --trajectory.") + "</div>";
    return;
  }
  let html = "<table><tr><th>trial</th><th>valid F1</th><th>test F1</th>" +
    "<th>fit s</th><th>CPU s</th><th>ΔRSS KB</th><th>allocs</th>" +
    '<th class="l">failure</th><th class="l mono">config hash</th></tr>';
  for (const t of trials) {
    const bad = t.failure && t.failure !== "ok";
    html += `<tr${bad ? ' class="failed"' : ""}><td>${t.trial}</td>` +
      `<td>${fmt(t.valid_f1)}</td><td>${fmt(t.test_f1)}</td>` +
      `<td>${fmt(t.fit_seconds)}</td><td>${fmt(t.cpu_seconds)}</td>` +
      `<td>${t.peak_rss_delta_kb ?? "—"}</td><td>${t.allocs ?? "—"}</td>` +
      `<td class="l">${esc(t.failure ?? "")}</td>` +
      `<td class="l mono">${esc(t.config_hash ?? "")}</td></tr>`;
  }
  el.innerHTML = html + "</table>";
})();
</script>
</body>
</html>
)HTML";

}  // namespace

std::string BuildRunReportHtml(const ReportInputs& inputs) {
  std::string payload = "{\"trials\":";
  payload += TrajectoryToJson(inputs.trajectory_csv);
  payload += ",\"has_trajectory\":";
  payload += inputs.trajectory_csv.empty() ? "false" : "true";
  payload += ",\"metrics_final\":";
  payload += MetricsFinalJson(inputs.metrics_text);
  // Span summary and critical-path / blame analysis (obs v4), both from
  // one parse of the trace. null when there is no trace or it has no spans.
  auto analysis = AnalyzeTraceJson(inputs.trace_json);
  payload += ",\"trace\":";
  payload += analysis.ok() ? TraceSummaryJson(*analysis) : "null";
  payload += ",\"critical\":";
  payload += analysis.ok() ? AnalysisJson(*analysis) : "null";
  payload += "}";
  payload = ScriptSafe(payload);

  std::string title =
      inputs.title.empty() ? "AutoEM run report" : inputs.title;
  title = HtmlEscape(title);

  std::string html = kReportTemplate;
  const std::string title_marker = "__AUTOEM_TITLE__";
  const std::string payload_marker = "__AUTOEM_PAYLOAD__";
  size_t pos = 0;
  while ((pos = html.find(title_marker, pos)) != std::string::npos) {
    html.replace(pos, title_marker.size(), title);
    pos += title.size();
  }
  pos = html.find(payload_marker);
  if (pos != std::string::npos) {
    html.replace(pos, payload_marker.size(), payload);
  }
  return html;
}

}  // namespace obs
}  // namespace autoem
