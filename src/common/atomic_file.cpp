#include "common/atomic_file.h"

#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "common/error.h"
#include "common/fs_ops.h"

namespace mmr {
namespace {

/// Directory part of `path` ("." when the path has no separator), for the
/// post-rename directory fsync.
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

AtomicFile::AtomicFile(std::string path) : path_(std::move(path)) {
  MMR_EXPECTS(!path_.empty());
}

AtomicFile::~AtomicFile() {
  // A temp file can only survive here if commit() died between creating
  // it and its own cleanup (e.g. a foreign exception); the destination is
  // intact, so just drop the stage.
  if (!temp_path_.empty()) fsio::unlink_quiet(temp_path_);
}

void AtomicFile::commit() {
  MMR_EXPECTS(!committed_);
  const std::string content = buffer_.str();
  // Every syscall routes through fsio: transient failures (EINTR,
  // momentary EBUSY) are retried with bounded backoff, permanent ones
  // surface as typed IoError naming the operation and path. Whatever
  // fails, the staged temp file is unlinked before the throw so repeated
  // failed commits never accumulate '*.tmp.<pid>' litter next to the
  // destination.
  temp_path_ = path_ + ".tmp." + std::to_string(::getpid());
  try {
    const int fd =
        fsio::open_retry(temp_path_, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    try {
      fsio::write_all(fd, content.data(), content.size(), temp_path_);
      fsio::fsync_retry(fd, temp_path_);
    } catch (...) {
      (void)fsio::ops().close_fn(fd);
      throw;
    }
    fsio::close_or_throw(fd, temp_path_);
    fsio::rename_retry(temp_path_, path_);
  } catch (...) {
    fsio::unlink_quiet(temp_path_);
    temp_path_.clear();
    throw;
  }
  temp_path_.clear();
  // Persist the rename itself: fsync the containing directory. Failure
  // here is ignorable on filesystems that forbid directory fsync.
  const int dir_fd = fsio::ops().open_fn(parent_dir(path_).c_str(),
                                         O_RDONLY, 0);
  if (dir_fd >= 0) {
    (void)fsio::ops().fsync_fn(dir_fd);
    (void)fsio::ops().close_fn(dir_fd);
  }
  committed_ = true;
}

void AtomicFile::write(const std::string& path, std::string_view content) {
  AtomicFile file(path);
  file.stream() << content;
  file.commit();
}

}  // namespace mmr
