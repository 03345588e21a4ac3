#include "obs/obs.h"

#include "io/atomic_file.h"

namespace autoem {
namespace obs {

namespace {

bool TakeFlagValue(const std::string& arg, const char* prefix,
                   std::string* out) {
  size_t len = std::char_traits<char>::length(prefix);
  if (arg.compare(0, len, prefix) != 0) return false;
  *out = arg.substr(len);
  return true;
}

void WriteArtifact(const std::string& path, const std::string& bytes,
                   const char* what) {
  Status st = io::AtomicWriteFile(path, bytes);
  if (!st.ok()) {
    AUTOEM_LOG(WARN) << "obs: failed to write " << what << " to " << path
                     << ": " << st.ToString();
  }
}

}  // namespace

bool ParseObsFlag(const std::string& arg, ObsOptions* options) {
  if (arg == "--resources") {
    options->resources = true;
    return true;
  }
  std::string value;
  if (TakeFlagValue(arg, "--resources=", &value)) {
    options->resources =
        !(value == "0" || value == "false" || value == "off");
    return true;
  }
  return TakeFlagValue(arg, "--log-level=", &options->log_level) ||
         TakeFlagValue(arg, "--trace-out=", &options->trace_path) ||
         TakeFlagValue(arg, "--metrics-out=", &options->metrics_path);
}

ObsSession::ObsSession(ObsOptions options) : options_(std::move(options)) {
  if (!options_.log_level.empty()) {
    LogLevel level;
    if (ParseLogLevel(options_.log_level, &level)) {
      SetMinLogLevel(level);
    } else {
      AUTOEM_LOG(WARN) << "obs: unknown log level '" << options_.log_level
                       << "' (ignored)";
    }
  }
  if (!options_.trace_path.empty() && !TracingEnabled()) {
    StartTracing();
    owns_tracing_ = true;
  }
  if (options_.resources && !ResourceProbesEnabled()) {
    SetResourceProbesEnabled(true);
    SetAllocationCounting(true);
    owns_probes_ = true;
  }
}

ObsSession::~ObsSession() {
  if (owns_tracing_) {
    StopTracing();
    WriteArtifact(options_.trace_path, TraceJson(), "trace");
  }
  if (!options_.metrics_path.empty()) {
    WriteArtifact(options_.metrics_path,
                  MetricsRegistry::Global().SnapshotJson(), "metrics");
  }
  if (owns_probes_) {
    SetAllocationCounting(false);
    SetResourceProbesEnabled(false);
  }
}

}  // namespace obs
}  // namespace autoem
