#ifndef AUTOEM_IO_ATOMIC_FILE_H_
#define AUTOEM_IO_ATOMIC_FILE_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace autoem {
namespace io {

/// Crash-safe whole-file write: writes `bytes` to a temporary file in the
/// same directory as `path`, fsyncs it, then atomically renames it over
/// `path` (and fsyncs the directory so the rename itself is durable).
///
/// After a crash at any instant, `path` holds either its previous contents
/// or the complete new contents — never a torn mix. Every artifact writer in
/// the library (SaveModel, SaveConfiguration, SaveTrajectory, search
/// checkpoints, the ObsSession trace and metrics files) routes through this
/// helper.
///
/// On error the temporary file is removed; `path` is untouched.
Status AtomicWriteFile(const std::string& path, std::string_view bytes);

/// Reads the entire file at `path` into `out`. NotFound when the file does
/// not exist; IOError on read failures.
Status ReadFileToString(const std::string& path, std::string* out);

}  // namespace io
}  // namespace autoem

#endif  // AUTOEM_IO_ATOMIC_FILE_H_
