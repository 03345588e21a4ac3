#ifndef AUTOEM_OBS_OBS_H_
#define AUTOEM_OBS_OBS_H_

#include <string>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace autoem {
namespace obs {

/// Observability knobs carried through the options structs
/// (AutoMlEmOptions::obs, ActiveLearningOptions::obs) and exposed as
/// `--log-level=`, `--trace-out=`, `--metrics-out=`, `--resources` by
/// autoem_cli and every bench binary. All fields default to "off": empty
/// strings mean no level change, no tracing, no metrics dump, and zero
/// measurable overhead.
struct ObsOptions {
  /// "trace"/"debug"/"info"/"warn"/"error"/"off"; empty = leave unchanged.
  std::string log_level;
  /// Chrome trace_event JSON written here when non-empty.
  std::string trace_path;
  /// End-of-run metrics snapshot (MetricsRegistry::SnapshotJson) written
  /// here when non-empty.
  std::string metrics_path;
  /// Enable per-trial/fold/iteration ResourceProbes and the allocation
  /// counting hook (`--resources`). Measurement only: outputs stay
  /// bit-identical with probes on or off.
  bool resources = false;

  bool Any() const {
    return !log_level.empty() || !trace_path.empty() ||
           !metrics_path.empty() || resources;
  }
};

/// Parses one observability argument (`--log-level=X`, `--trace-out=P`,
/// `--metrics-out=P`, `--resources[=0|1]`) into `*options`. Returns false
/// (leaving options untouched) when `arg` is not an observability flag, so
/// callers can chain it into their existing flag loops.
bool ParseObsFlag(const std::string& arg, ObsOptions* options);

/// Scoped activation of a set of ObsOptions:
///  * constructor: applies the log level; if no enclosing session is already
///    tracing, starts the tracer; if `resources` is set and no enclosing
///    session enabled probes, turns on ResourceProbes + allocation counting;
///  * destructor: tears each of those down in reverse (only the ones this
///    session started), writing the trace file and the metrics snapshot.
///    Both go through io::AtomicWriteFile, so a process killed mid-write
///    leaves the previous file or the complete new one, never a torn mix.
///
/// Sessions nest safely — every library entry point (RunAutoMlEm,
/// RunAutoMlEmActive, EntityMatcher::Train) opens one from its options, and
/// a process-wide session opened in main() (what autoem_cli does) simply
/// owns the trace and probes while the inner sessions become no-ops.
/// Metrics are cumulative, so when nested sessions share a metrics path the
/// outermost write is the complete one and it is the file's final content.
class ObsSession {
 public:
  explicit ObsSession(ObsOptions options);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  ObsOptions options_;
  bool owns_tracing_ = false;
  bool owns_probes_ = false;
};

}  // namespace obs
}  // namespace autoem

#endif  // AUTOEM_OBS_OBS_H_
