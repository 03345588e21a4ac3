#include "io/atomic_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "fault/failpoint.h"

#if defined(_WIN32)
#include <io.h>
#else
#include <fcntl.h>
#include <unistd.h>
#endif

namespace autoem {
namespace io {

namespace {

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of("/\\");
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

std::string ErrnoMessage(const char* op, const std::string& path) {
  std::string out = op;
  out += " failed for '";
  out += path;
  out += "': ";
  out += std::strerror(errno);
  return out;
}

#if !defined(_WIN32)
Status FsyncPath(const std::string& path, bool directory) {
  int flags = O_RDONLY;
#if defined(O_DIRECTORY)
  if (directory) flags |= O_DIRECTORY;
#endif
  int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    // Some filesystems refuse to open directories for fsync; treat that as
    // best-effort rather than failing a write that already landed.
    if (directory) return Status::OK();
    return Status::IOError(ErrnoMessage("open", path));
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0 && !directory) {
    return Status::IOError(ErrnoMessage("fsync", path));
  }
  return Status::OK();
}
#endif

}  // namespace

Status AtomicWriteFile(const std::string& path, std::string_view bytes) {
  AUTOEM_FAILPOINT("io.atomic_write");
  if (path.empty()) {
    return Status::InvalidArgument("AtomicWriteFile: empty path");
  }
  // The temp file must live in the same directory as the target: rename(2)
  // is only atomic within one filesystem.
  const std::string tmp = path + ".tmp";

#if defined(_WIN32)
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError(ErrnoMessage("open", tmp));
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IOError(ErrnoMessage("write", tmp));
    }
  }
  std::remove(path.c_str());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError(ErrnoMessage("rename", tmp));
  }
  return Status::OK();
#else
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("open", tmp));

  const char* data = bytes.data();
  size_t remaining = bytes.size();
  while (remaining > 0) {
    ssize_t written = ::write(fd, data, remaining);
    if (written < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IOError(ErrnoMessage("write", tmp));
    }
    data += written;
    remaining -= static_cast<size_t>(written);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IOError(ErrnoMessage("fsync", tmp));
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError(ErrnoMessage("close", tmp));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Status::IOError(ErrnoMessage("rename", tmp));
    ::unlink(tmp.c_str());
    return st;
  }
  // Make the rename itself durable.
  return FsyncPath(DirOf(path), /*directory=*/true);
#endif
}

Status ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "' for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IOError("read failed for '" + path + "'");
  *out = buf.str();
  return Status::OK();
}

}  // namespace io
}  // namespace autoem
