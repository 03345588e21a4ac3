#include "tools/bench_compare_lib.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "io/atomic_file.h"
#include "obs/json.h"

namespace autoem {
namespace tools {

namespace {

// `runs` saturates here so a hostile file cannot overflow it.
constexpr int kMaxRuns = 1 << 20;

// Repeated runs of one case (google-benchmark repetitions in one file, or
// one case across files) keep the best seconds and add up their runs.
void MergeCase(const BenchCaseStat& stat,
               std::map<std::string, BenchCaseStat>* cases) {
  auto [it, inserted] = cases->emplace(stat.name, stat);
  if (inserted) return;
  BenchCaseStat& existing = it->second;
  if (stat.seconds > 0 &&
      (existing.seconds == 0 || stat.seconds < existing.seconds)) {
    existing.seconds = stat.seconds;
  }
  existing.runs = std::min(existing.runs + stat.runs, kMaxRuns);
}

// The artifacts come from our own writers, but CI must fail with a message
// (not UB) on a truncated upload. Duplicate keys: the last one wins.

// Enters an object value; any other kind is skipped.
bool EnterObject(obs::JsonReader* in) {
  if (in->Peek() == '{') return in->BeginObject();
  in->SkipValue();
  return false;
}

bool AtNumber(obs::JsonReader* in) {
  char c = in->Peek();
  return c == '-' || (c >= '0' && c <= '9');
}

// A number value, or 0 (skipping the value) for any other kind.
double NumberOrZero(obs::JsonReader* in) {
  double value = 0;
  if (AtNumber(in)) {
    in->ReadNumber(&value);
  } else {
    in->SkipValue();
  }
  return value;
}

// Meta values as text: strings verbatim, numbers as %.17g, booleans by
// name; null, objects and arrays read as "".
std::string MetaText(obs::JsonReader* in) {
  std::string text;
  char c = in->Peek();
  if (c == '"') {
    in->ReadString(&text);
  } else if (AtNumber(in)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", NumberOrZero(in));
    text = buf;
  } else {
    if (c == 't') text = "true";
    if (c == 'f') text = "false";
    in->SkipValue();
  }
  return text;
}

void ReadMeta(obs::JsonReader* in, std::map<std::string, std::string>* meta) {
  meta->clear();
  std::string key;
  if (!EnterObject(in)) return;
  while (in->NextKey(&key)) (*meta)[key] = MetaText(in);
}

// counters."bench_compare.runs" when it is a number >= 1, else 1.
int ReadRuns(obs::JsonReader* in) {
  int runs = 1;
  std::string key;
  if (!EnterObject(in)) return runs;
  while (in->NextKey(&key)) {
    if (key != "bench_compare.runs") {
      in->SkipValue();
      continue;
    }
    double value = NumberOrZero(in);
    runs = value >= 1 ? static_cast<int>(std::min<double>(value, kMaxRuns))
                      : 1;
  }
  return runs;
}

// A "cases" array: anything with a string "name" is a case; missing or
// non-positive "seconds" read as 0.
void ReadCases(obs::JsonReader* in,
               std::map<std::string, BenchCaseStat>* cases) {
  cases->clear();
  std::string key;
  in->BeginArray();
  while (in->NextElement()) {
    if (!EnterObject(in)) continue;
    BenchCaseStat stat;
    stat.runs = 1;
    bool named = false;
    while (in->NextKey(&key)) {
      if (key == "name") {
        named = in->Peek() == '"' && in->ReadString(&stat.name);
        if (!named) in->SkipValue();
      } else if (key == "seconds") {
        stat.seconds = std::max(0.0, NumberOrZero(in));
      } else if (key == "counters") {
        stat.runs = ReadRuns(in);
      } else {
        in->SkipValue();
      }
    }
    if (named && in->ok()) MergeCase(stat, cases);
  }
}

bool AllDigits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

Result<BenchFile> ParseBenchJson(const std::string& text) {
  obs::JsonReader in(text);
  BenchFile file;
  bool have_cases = false;
  std::string key;
  in.BeginObject();
  while (in.NextKey(&key)) {
    if (key == "meta") {
      ReadMeta(&in, &file.meta);
    } else if (key == "cases") {
      have_cases = in.Peek() == '[';
      if (have_cases) {
        ReadCases(&in, &file.cases);
      } else {
        in.SkipValue();
      }
    } else {
      in.SkipValue();
    }
  }
  in.End();
  if (!in.ok()) return in.status();
  if (!have_cases) {
    return Status::InvalidArgument("bench file: missing \"cases\" array");
  }
  return file;
}

Result<BenchFile> LoadBenchFiles(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    return Status::InvalidArgument("no bench files given");
  }
  BenchFile merged;
  bool first = true;
  for (const std::string& path : paths) {
    std::string text;
    AUTOEM_RETURN_IF_ERROR(io::ReadFileToString(path, &text));
    auto file = ParseBenchJson(text);
    if (!file.ok()) {
      return Status::InvalidArgument(path + ": " +
                                     file.status().ToString());
    }
    if (first) {
      merged.meta = file->meta;
      first = false;
    }
    for (const auto& [name, stat] : file->cases) MergeCase(stat, &merged.cases);
  }
  return merged;
}

std::string SerializeBenchFile(const BenchFile& file) {
  std::string out = "{\"meta\":{";
  bool first = true;
  for (const auto& [key, value] : file.meta) {
    if (!first) out += ",";
    first = false;
    out += obs::JsonQuote(key);
    out += ":";
    out += AllDigits(value) ? value : obs::JsonQuote(value);
  }
  out += "},\"cases\":[";
  first = true;
  for (const auto& [name, stat] : file.cases) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\":" + obs::JsonQuote(name) +
           ",\"params\":{},\"counters\":{\"bench_compare.runs\":" +
           std::to_string(stat.runs) +
           "},\"seconds\":" + obs::JsonNumber(stat.seconds) + "}";
  }
  out += "\n]}\n";
  return out;
}

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk: return "ok";
    case Verdict::kImproved: return "improved";
    case Verdict::kRegressed: return "regressed";
    case Verdict::kSkipped: return "skipped";
    case Verdict::kMissingInCurrent: return "missing_in_current";
    case Verdict::kNew: return "new";
  }
  return "unknown";
}

CompareReport CompareBench(const BenchFile& baseline, const BenchFile& current,
                           const CompareOptions& options) {
  CompareReport report;
  for (const auto& [name, base] : baseline.cases) {
    CaseComparison c;
    c.name = name;
    c.baseline_s = base.seconds;
    auto it = current.cases.find(name);
    if (it == current.cases.end()) {
      // A dimensionless baseline figure (seconds==0) that disappears is not
      // lost *timing* coverage; only timed cases gate.
      if (base.seconds < options.min_seconds) continue;
      c.verdict = Verdict::kMissingInCurrent;
      ++report.missing_in_current;
      report.cases.push_back(std::move(c));
      continue;
    }
    c.current_s = it->second.seconds;
    if (c.baseline_s < options.min_seconds ||
        c.current_s < options.min_seconds) {
      c.verdict = Verdict::kSkipped;
      ++report.skipped;
    } else {
      c.ratio = c.current_s / c.baseline_s;
      if (c.ratio > 1.0 + options.noise) {
        c.verdict = Verdict::kRegressed;
        ++report.regressed;
      } else if (c.ratio < 1.0 - options.noise) {
        c.verdict = Verdict::kImproved;
        ++report.improved;
      } else {
        c.verdict = Verdict::kOk;
        ++report.ok;
      }
    }
    report.cases.push_back(std::move(c));
  }
  for (const auto& [name, cur] : current.cases) {
    if (baseline.cases.count(name) != 0) continue;
    if (cur.seconds < options.min_seconds) continue;
    CaseComparison c;
    c.name = name;
    c.current_s = cur.seconds;
    c.verdict = Verdict::kNew;
    ++report.added;
    report.cases.push_back(std::move(c));
  }
  // Worst first: regressions and lost coverage top the log.
  std::sort(report.cases.begin(), report.cases.end(),
            [](const CaseComparison& a, const CaseComparison& b) {
              auto rank = [](const CaseComparison& c) {
                switch (c.verdict) {
                  case Verdict::kMissingInCurrent: return 0;
                  case Verdict::kRegressed: return 1;
                  case Verdict::kOk: return 2;
                  case Verdict::kImproved: return 3;
                  case Verdict::kNew: return 4;
                  case Verdict::kSkipped: return 5;
                }
                return 6;
              };
              if (rank(a) != rank(b)) return rank(a) < rank(b);
              if (a.ratio != b.ratio) return a.ratio > b.ratio;
              return a.name < b.name;
            });
  return report;
}

std::string CompareReportJson(const CompareReport& report) {
  std::string out = "{\"failed\":";
  out += report.Failed() ? "true" : "false";
  out += ",\"summary\":{\"ok\":" + std::to_string(report.ok) +
         ",\"improved\":" + std::to_string(report.improved) +
         ",\"regressed\":" + std::to_string(report.regressed) +
         ",\"skipped\":" + std::to_string(report.skipped) +
         ",\"missing_in_current\":" +
         std::to_string(report.missing_in_current) +
         ",\"new\":" + std::to_string(report.added) + "},\"cases\":[";
  for (size_t i = 0; i < report.cases.size(); ++i) {
    const CaseComparison& c = report.cases[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\":" + obs::JsonQuote(c.name) +
           ",\"verdict\":\"" + VerdictName(c.verdict) +
           "\",\"baseline_s\":" + obs::JsonNumber(c.baseline_s) +
           ",\"current_s\":" + obs::JsonNumber(c.current_s) +
           ",\"ratio\":" + obs::JsonNumber(c.ratio) + "}";
  }
  out += "\n]}\n";
  return out;
}

std::string CompareReportText(const CompareReport& report) {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line), "%-52s %12s %12s %8s  %s\n", "case",
                "baseline", "current", "ratio", "verdict");
  out += line;
  for (const CaseComparison& c : report.cases) {
    if (c.verdict == Verdict::kSkipped) continue;
    std::snprintf(line, sizeof(line), "%-52s %11.6fs %11.6fs %8.3f  %s\n",
                  c.name.c_str(), c.baseline_s, c.current_s, c.ratio,
                  VerdictName(c.verdict));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "%d ok, %d improved, %d regressed, %d missing, %d new, "
                "%d skipped -> %s\n",
                report.ok, report.improved, report.regressed,
                report.missing_in_current, report.added, report.skipped,
                report.Failed() ? "FAIL" : "PASS");
  out += line;
  return out;
}

}  // namespace tools
}  // namespace autoem
