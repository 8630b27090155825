// Test-only filesystem fault injection for the fsio hook table.
//
// A fsfaults::ScopedFaults installs an OpsTable whose entries consult a
// mutable FaultScript before delegating to the real syscalls: "fail the
// next K open(2)s with EINTR", "cap every write at one byte", "record
// the backoff schedule instead of sleeping". The script is plain global
// state (the table is bare fn pointers, so there is no closure to hang
// context on) -- tests are single-threaded through the code under test,
// exactly like dsp::backend's ScopedBackend.
#pragma once

#include <cerrno>
#include <cstddef>
#include <string>
#include <vector>

#include "common/fs_ops.h"

namespace mmr::fsfaults {

/// What to inject. fail_<op> counts down: each faulting call consumes
/// one and sets <op>_errno; at zero the real syscall runs.
struct FaultScript {
  int fail_open = 0;
  int open_errno = EINTR;
  int fail_write = 0;
  int write_errno = EINTR;
  int fail_fsync = 0;
  int fsync_errno = EINTR;
  int fail_rename = 0;
  int rename_errno = EINTR;
  int fail_mkdir = 0;
  int mkdir_errno = EINTR;
  int fail_list_dir = 0;
  int list_dir_errno = EINTR;
  int fail_stat = 0;
  int stat_errno = EINTR;
  int fail_touch = 0;
  int touch_errno = EINTR;
  /// Cap every successful write at one byte (exercises the short-write
  /// resume loop in write_all).
  bool short_writes = false;
  /// Every backoff the retry loop requested, in order. Nothing actually
  /// sleeps, so EINTR storms test in microseconds.
  std::vector<double> slept;
};

inline FaultScript& script() {
  static FaultScript s;
  return s;
}

namespace detail {

inline bool take(int& budget, int err) {
  if (budget <= 0) return false;
  --budget;
  errno = err;
  return true;
}

inline int open_fn(const char* path, int flags, unsigned mode) {
  if (take(script().fail_open, script().open_errno)) return -1;
  return fsio::real_ops()->open_fn(path, flags, mode);
}

inline long write_fn(int fd, const void* data, std::size_t n) {
  if (take(script().fail_write, script().write_errno)) return -1;
  if (script().short_writes && n > 1) n = 1;
  return fsio::real_ops()->write_fn(fd, data, n);
}

inline int fsync_fn(int fd) {
  if (take(script().fail_fsync, script().fsync_errno)) return -1;
  return fsio::real_ops()->fsync_fn(fd);
}

inline int close_fn(int fd) { return fsio::real_ops()->close_fn(fd); }

inline int rename_fn(const char* from, const char* to) {
  if (take(script().fail_rename, script().rename_errno)) return -1;
  return fsio::real_ops()->rename_fn(from, to);
}

inline int unlink_fn(const char* path) {
  return fsio::real_ops()->unlink_fn(path);
}

inline int mkdir_fn(const char* path, unsigned mode) {
  if (take(script().fail_mkdir, script().mkdir_errno)) return -1;
  return fsio::real_ops()->mkdir_fn(path, mode);
}

inline int list_dir_fn(const char* path, std::vector<std::string>* names) {
  if (take(script().fail_list_dir, script().list_dir_errno)) return -1;
  return fsio::real_ops()->list_dir_fn(path, names);
}

inline int stat_fn(const char* path, struct stat* st) {
  if (take(script().fail_stat, script().stat_errno)) return -1;
  return fsio::real_ops()->stat_fn(path, st);
}

inline int touch_fn(const char* path) {
  if (take(script().fail_touch, script().touch_errno)) return -1;
  return fsio::real_ops()->touch_fn(path);
}

inline void sleep_fn(double seconds) { script().slept.push_back(seconds); }

}  // namespace detail

/// The faulting table (install via ScopedFaults or fsio::ScopedOps).
inline const fsio::OpsTable* table() {
  static const fsio::OpsTable t = {
      .open_fn = &detail::open_fn,
      .write_fn = &detail::write_fn,
      .fsync_fn = &detail::fsync_fn,
      .close_fn = &detail::close_fn,
      .rename_fn = &detail::rename_fn,
      .unlink_fn = &detail::unlink_fn,
      .mkdir_fn = &detail::mkdir_fn,
      .list_dir_fn = &detail::list_dir_fn,
      .stat_fn = &detail::stat_fn,
      .touch_fn = &detail::touch_fn,
      .sleep_fn = &detail::sleep_fn,
  };
  return &t;
}

/// RAII: reset the script, install the faulting table, and undo both on
/// scope exit.
class ScopedFaults {
 public:
  ScopedFaults() : guard_(table()) { script() = FaultScript{}; }
  ~ScopedFaults() { script() = FaultScript{}; }

  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;

 private:
  fsio::ScopedOps guard_;
};

}  // namespace mmr::fsfaults
