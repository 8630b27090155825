// Hookable filesystem syscalls with bounded deterministic retry.
//
// Every syscall the durability layer depends on (AtomicFile's staged
// commit, the campaign journal's fsync'd append, and the shard queue's
// directory creation and listing, shard-count and lease reads, O_EXCL
// ticket creation, lease-age stats, pre-claim mtime refresh and claim,
// reclaim and complete renames) routes through a per-process fn-pointer
// table -- the
// same pattern as dsp::backend -- so tests can install a faulting table
// that deterministically injects EINTR storms, short writes, ENOSPC, and
// delays into every recovery path. Production always runs the real
// syscalls; the hook exists so crash-recovery code is exercised by tests
// rather than by luck.
//
// On top of the table sit retrying wrappers: transient failures (EINTR,
// EAGAIN, momentary EBUSY -- think interrupted syscalls and NFS hiccups)
// are retried a bounded number of times with doubling backoff through an
// injectable sleeper; exhaustion or a permanent errno (ENOSPC, EACCES,
// ENOENT where unexpected) throws a typed IoError naming the operation
// and path. The retry loop is deterministic by construction: attempt
// count and backoff schedule are fixed, and the sleeper is part of the
// hook table so tests observe the exact schedule without real delays.
//
// The wrappers call POSIX.1-2008 directly (mtimes come from st_mtim), the
// one platform the build accepts: CMakeLists.txt refuses to configure
// where `struct stat` lacks st_mtim.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/io_error.h"

struct stat;  // <sys/stat.h>

namespace mmr::fsio {

/// Hook table over the raw syscalls. Entries must behave like their
/// POSIX namesakes (return value + errno); `list_dir_fn` is
/// opendir/readdir/closedir filling `names` with every entry, `touch_fn`
/// is utimensat(AT_FDCWD, path, NULL, 0) (both timestamps to now), and
/// `sleep_fn` is the retry backoff sleeper (seconds).
struct OpsTable {
  int (*open_fn)(const char* path, int flags, unsigned mode) = nullptr;
  long (*write_fn)(int fd, const void* data, std::size_t n) = nullptr;
  int (*fsync_fn)(int fd) = nullptr;
  int (*close_fn)(int fd) = nullptr;
  int (*rename_fn)(const char* from, const char* to) = nullptr;
  int (*unlink_fn)(const char* path) = nullptr;
  int (*mkdir_fn)(const char* path, unsigned mode) = nullptr;
  int (*list_dir_fn)(const char* path, std::vector<std::string>* names) =
      nullptr;
  int (*stat_fn)(const char* path, struct stat* st) = nullptr;
  int (*touch_fn)(const char* path) = nullptr;
  void (*sleep_fn)(double seconds) = nullptr;
};

/// The real-syscall table (never null entries).
const OpsTable* real_ops();

/// Currently active table.
const OpsTable& ops();

/// Install `table` (nullptr restores the real syscalls); returns the
/// previously active table. Like dsp::set_backend, installation is not
/// synchronized against in-flight I/O: tests install the faulting table
/// before the code under test runs and restore it after.
const OpsTable* set_ops(const OpsTable* table);

/// RAII table override for tests: restores the previous table on
/// destruction.
class ScopedOps {
 public:
  explicit ScopedOps(const OpsTable* table) : previous_(set_ops(table)) {}
  ~ScopedOps() { set_ops(previous_); }
  ScopedOps(const ScopedOps&) = delete;
  ScopedOps& operator=(const ScopedOps&) = delete;

 private:
  const OpsTable* previous_;
};

/// Bounded retry schedule: up to `max_attempts` tries per syscall, with
/// `initial_backoff_s` doubling between consecutive failures (first
/// retry waits initial_backoff_s, second 2x, ...). Partial writes making
/// progress reset the attempt counter -- only consecutive failures
/// count.
struct RetryPolicy {
  int max_attempts = 5;
  double initial_backoff_s = 0.0005;
};

/// True for errnos worth retrying: the syscall was interrupted or the
/// resource momentarily busy, and an identical retry can succeed.
bool transient_errno(int err);

/// open(2) with transient retry. Throws IoError("open", path, errno) on
/// a permanent errno or retry exhaustion.
int open_retry(const std::string& path, int flags, unsigned mode,
               const RetryPolicy& policy = {});

/// Write all `n` bytes to `fd`, continuing across short writes and
/// retrying transient failures. Throws IoError("write", path, errno).
void write_all(int fd, const void* data, std::size_t n,
               const std::string& path, const RetryPolicy& policy = {});

/// fsync(2) with transient retry. Throws IoError("fsync", path, errno).
void fsync_retry(int fd, const std::string& path,
                 const RetryPolicy& policy = {});

/// rename(2) with transient retry. Throws IoError("rename", to, errno).
void rename_retry(const std::string& from, const std::string& to,
                  const RetryPolicy& policy = {});

/// rename(2) where a missing source is an expected outcome (queue claim
/// races): returns false on ENOENT, true on success, and throws IoError
/// on anything else after transient retries.
bool rename_if_exists(const std::string& from, const std::string& to,
                      const RetryPolicy& policy = {});

/// mkdir(2) with transient retry; an existing path (EEXIST) counts as
/// success. Throws IoError("mkdir", path, errno).
void make_dir(const std::string& path, unsigned mode,
              const RetryPolicy& policy = {});

/// Entry names of directory `path`, in directory order, with transient
/// retry. Throws IoError("opendir", path, errno).
std::vector<std::string> list_dir(const std::string& path,
                                  const RetryPolicy& policy = {});

/// stat(2) mtime of `path` in seconds, with transient retry; nullopt
/// when `path` does not exist (ENOENT). Throws IoError("stat", path,
/// errno) on anything else.
std::optional<double> mtime_if_exists(const std::string& path,
                                      const RetryPolicy& policy = {});

/// The bytes of `path`, opened through the table with transient retry;
/// nullopt when `path` does not exist (ENOENT). Any other failure throws
/// IoError("open" or "read", path, errno): a file that exists but cannot
/// be read is never mistaken for a missing one.
std::optional<std::string> read_file_if_exists(const std::string& path,
                                               const RetryPolicy& policy = {});

/// Set `path`'s timestamps to now, with transient retry; false when
/// `path` does not exist (ENOENT). Throws IoError("utimensat", path,
/// errno) on anything else.
bool touch_if_exists(const std::string& path, const RetryPolicy& policy = {});

/// close(2); EINTR is treated as success (POSIX leaves the fd state
/// unspecified and Linux closes it). Throws IoError("close", path, errno)
/// on a real failure.
void close_or_throw(int fd, const std::string& path);

/// unlink(2), ignoring every failure (best-effort cleanup).
void unlink_quiet(const std::string& path);

}  // namespace mmr::fsio
