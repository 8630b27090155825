#include "common/fs_ops.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <thread>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace mmr::fsio {
namespace {

int real_open(const char* path, int flags, unsigned mode) {
  return ::open(path, flags, static_cast<mode_t>(mode));
}

long real_write(int fd, const void* data, std::size_t n) {
  return static_cast<long>(::write(fd, data, n));
}

int real_fsync(int fd) { return ::fsync(fd); }

int real_close(int fd) { return ::close(fd); }

int real_rename(const char* from, const char* to) {
  return ::rename(from, to);
}

int real_unlink(const char* path) { return ::unlink(path); }

int real_mkdir(const char* path, unsigned mode) {
  return ::mkdir(path, static_cast<mode_t>(mode));
}

int real_list_dir(const char* path, std::vector<std::string>* names) {
  const std::unique_ptr<DIR, int (*)(DIR*)> d(::opendir(path), &::closedir);
  if (d == nullptr) return -1;
  while (const dirent* entry = ::readdir(d.get())) {
    names->push_back(entry->d_name);
  }
  return 0;
}

int real_stat(const char* path, struct stat* st) { return ::stat(path, st); }

int real_touch(const char* path) {
  return ::utimensat(AT_FDCWD, path, nullptr, 0);
}

void real_sleep(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

const OpsTable kRealOps = {
    .open_fn = &real_open,
    .write_fn = &real_write,
    .fsync_fn = &real_fsync,
    .close_fn = &real_close,
    .rename_fn = &real_rename,
    .unlink_fn = &real_unlink,
    .mkdir_fn = &real_mkdir,
    .list_dir_fn = &real_list_dir,
    .stat_fn = &real_stat,
    .touch_fn = &real_touch,
    .sleep_fn = &real_sleep,
};

// Published like dsp::backend's dispatch table: relaxed atomic pointer,
// swapped only by tests before/after the code under test runs.
std::atomic<const OpsTable*> g_ops{&kRealOps};

/// One retry step: sleeps the current backoff and doubles it. Returns
/// false when the attempt budget is exhausted (caller throws).
bool backoff_step(int& attempts_left, double& backoff_s) {
  if (--attempts_left <= 0) return false;
  ops().sleep_fn(backoff_s);
  backoff_s *= 2.0;
  return true;
}

/// Run `call` (a syscall wrapper returning 0, or -1 with errno set) until
/// it succeeds (true) or fails with `tolerated` (false). A permanent
/// errno or an exhausted retry budget throws IoError(op, path, errno).
template <typename Call>
bool retry(Call call, const char* op, const std::string& path,
           const RetryPolicy& policy, int tolerated = 0) {
  int attempts_left = policy.max_attempts;
  double backoff_s = policy.initial_backoff_s;
  for (;;) {
    if (call() == 0) return true;
    const int err = errno;
    if (tolerated != 0 && err == tolerated) return false;
    if (!transient_errno(err) || !backoff_step(attempts_left, backoff_s)) {
      throw IoError(op, path, err);
    }
  }
}

}  // namespace

const OpsTable* real_ops() { return &kRealOps; }

const OpsTable& ops() {
  return *g_ops.load(std::memory_order_relaxed);
}

const OpsTable* set_ops(const OpsTable* table) {
  const OpsTable* next = table != nullptr ? table : &kRealOps;
  return g_ops.exchange(next, std::memory_order_relaxed);
}

bool transient_errno(int err) {
  return err == EINTR || err == EAGAIN || err == EBUSY
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
         || err == EWOULDBLOCK
#endif
      ;
}

int open_retry(const std::string& path, int flags, unsigned mode,
               const RetryPolicy& policy) {
  int fd = -1;
  retry([&] {
    fd = ops().open_fn(path.c_str(), flags, mode);
    return fd >= 0 ? 0 : -1;
  }, "open", path, policy);
  return fd;
}

void write_all(int fd, const void* data, std::size_t n,
               const std::string& path, const RetryPolicy& policy) {
  const char* bytes = static_cast<const char*>(data);
  std::size_t written = 0;
  int attempts_left = policy.max_attempts;
  double backoff_s = policy.initial_backoff_s;
  while (written < n) {
    const long w = ops().write_fn(fd, bytes + written, n - written);
    if (w > 0) {
      written += static_cast<std::size_t>(w);
      // Progress resets the budget: only consecutive failures count.
      attempts_left = policy.max_attempts;
      backoff_s = policy.initial_backoff_s;
      continue;
    }
    // w == 0 (a short write that made no progress) is retried like a
    // transient failure -- regular files never legitimately return 0
    // for a non-empty buffer.
    const int err = w == 0 ? EAGAIN : errno;
    if (!transient_errno(err) || !backoff_step(attempts_left, backoff_s)) {
      throw IoError("write", path, err);
    }
  }
}

void fsync_retry(int fd, const std::string& path, const RetryPolicy& policy) {
  retry([&] { return ops().fsync_fn(fd); }, "fsync", path, policy);
}

void rename_retry(const std::string& from, const std::string& to,
                  const RetryPolicy& policy) {
  retry([&] { return ops().rename_fn(from.c_str(), to.c_str()); }, "rename",
        to, policy);
}

bool rename_if_exists(const std::string& from, const std::string& to,
                      const RetryPolicy& policy) {
  return retry([&] { return ops().rename_fn(from.c_str(), to.c_str()); },
               "rename", to, policy, ENOENT);
}

void make_dir(const std::string& path, unsigned mode,
              const RetryPolicy& policy) {
  retry([&] { return ops().mkdir_fn(path.c_str(), mode); }, "mkdir", path,
        policy, EEXIST);
}

std::vector<std::string> list_dir(const std::string& path,
                                  const RetryPolicy& policy) {
  std::vector<std::string> names;
  retry([&] {
    names.clear();
    return ops().list_dir_fn(path.c_str(), &names);
  }, "opendir", path, policy);
  return names;
}

std::optional<double> mtime_if_exists(const std::string& path,
                                      const RetryPolicy& policy) {
  struct stat st;
  if (!retry([&] { return ops().stat_fn(path.c_str(), &st); }, "stat", path,
             policy, ENOENT)) {
    return std::nullopt;
  }
  return static_cast<double>(st.st_mtim.tv_sec) +
         static_cast<double>(st.st_mtim.tv_nsec) * 1e-9;
}

std::optional<std::string> read_file_if_exists(const std::string& path,
                                               const RetryPolicy& policy) {
  int fd = -1;
  if (!retry([&] {
        fd = ops().open_fn(path.c_str(), O_RDONLY, 0);
        return fd >= 0 ? 0 : -1;
      }, "open", path, policy, ENOENT)) {
    return std::nullopt;
  }
  std::string bytes;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) != 0) {
    if (n > 0) {
      bytes.append(buf, static_cast<std::size_t>(n));
    } else if (errno != EINTR) {
      const int err = errno;
      (void)ops().close_fn(fd);
      throw IoError("read", path, err);
    }
  }
  close_or_throw(fd, path);
  return bytes;
}

bool touch_if_exists(const std::string& path, const RetryPolicy& policy) {
  return retry([&] { return ops().touch_fn(path.c_str()); }, "utimensat",
               path, policy, ENOENT);
}

void close_or_throw(int fd, const std::string& path) {
  if (ops().close_fn(fd) != 0 && errno != EINTR) {
    throw IoError("close", path, errno);
  }
}

void unlink_quiet(const std::string& path) {
  (void)ops().unlink_fn(path.c_str());
}

}  // namespace mmr::fsio
