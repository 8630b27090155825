#include "sim/shard.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "common/atomic_file.h"
#include "common/error.h"
#include "common/fs_ops.h"
#include "common/io_error.h"
#include "common/parse.h"
#include "sim/journal.h"

namespace mmr::sim {
namespace {

constexpr const char* kJournalSuffix = ".journal";
constexpr const char* kShardPrefix = "shard-";

bool order_by_plan(const std::pair<ShardPlan, std::string>& a,
                   const std::pair<ShardPlan, std::string>& b) {
  if (a.first.count != b.first.count) return a.first.count < b.first.count;
  if (a.first.index != b.first.index) return a.first.index < b.first.index;
  return a.second < b.second;
}

/// Entry names of directory `dir`; one that does not exist (yet) reads
/// as empty. Any other failure throws IoError naming `dir`.
std::vector<std::string> list_dir_if_exists(const std::string& dir) {
  try {
    return fsio::list_dir(dir);
  } catch (const IoError& e) {
    if (e.code() == ENOENT) return {};
    throw;
  }
}

}  // namespace

std::size_t ShardPlan::owned_of(std::size_t total) const {
  if (count <= 1) return total;
  return total / count + (index < total % count ? 1 : 0);
}

std::string ShardPlan::suffix() const {
  return std::string(kShardPrefix) + std::to_string(index) + "-of-" +
         std::to_string(count);
}

std::optional<ShardPlan> ShardPlan::parse(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    return std::nullopt;
  }
  std::size_t index = 0, count = 0;
  if (!mmr::parse_size(text.substr(0, slash).c_str(), index)) {
    return std::nullopt;
  }
  if (!mmr::parse_size(text.substr(slash + 1).c_str(), count)) {
    return std::nullopt;
  }
  if (count == 0 || index >= count) return std::nullopt;
  return ShardPlan{index, count};
}

std::optional<ShardPlan> ShardPlan::parse_suffix(const std::string& name) {
  const std::size_t prefix_len = std::strlen(kShardPrefix);
  if (name.compare(0, prefix_len, kShardPrefix) != 0) return std::nullopt;
  const std::size_t of = name.find("-of-", prefix_len);
  if (of == std::string::npos) return std::nullopt;
  return parse(name.substr(prefix_len, of - prefix_len) + "/" +
               name.substr(of + 4));
}

// ---------------------------------------------------------------------------
// Merge.

MergeStats merge_journals(const std::vector<std::string>& shard_paths,
                          const std::string& merged_path,
                          const CampaignKey& key) {
  if (shard_paths.empty()) {
    throw JournalMismatchError(
        "shard merge: no shard journals to merge (missing shard journals "
        "for every shard index)");
  }
  const auto mismatch = [](const std::string& what, const std::string& path) {
    throw JournalMismatchError("shard journal '" + path +
                               "' cannot be merged (" + what + ")");
  };
  std::size_t count = 0;
  std::size_t sealed_shards = 0;
  std::string count_origin;
  std::map<std::size_t, std::string> seen;  // shard index -> journal path
  std::map<std::size_t, JournalTrial> trials;
  for (const std::string& path : shard_paths) {
    LoadedJournal lj = read_journal_file(path);
    if (!lj.shard.enabled()) {
      mismatch("not a shard journal: its header carries no shard field",
               path);
    }
    check_journal_key(path, lj, key);
    // A seal that disowns its records is transport damage (e.g. a file
    // truncated at a record boundary): merging it as "crashed early" would
    // silently re-run trials the worker in fact completed. Unsealed
    // journals (in-progress, crashed, or pre-seal-format) merge as they are.
    check_journal_seal(path, lj);
    if (lj.seal.has_value()) ++sealed_shards;
    if (count == 0) {
      count = lj.shard.count;
      count_origin = path;
    } else if (lj.shard.count != count) {
      mismatch("shard count differs: " + std::to_string(lj.shard.count) +
                   " here vs " + std::to_string(count) + " in '" +
                   count_origin + "'",
               path);
    }
    const auto [it, inserted] = seen.emplace(lj.shard.index, path);
    if (!inserted) {
      throw JournalMismatchError(
          "overlapping shard journals: shard index " +
          std::to_string(lj.shard.index) + " of " + std::to_string(count) +
          " is claimed by both '" + it->second + "' and '" + path + "'");
    }
    for (JournalTrial& t : lj.trials) {
      if (t.index >= key.trials || !lj.shard.owns(t.index)) {
        mismatch("trial index " + std::to_string(t.index) +
                     " is outside the shard's ownership",
                 path);
      }
      trials.emplace(t.index, std::move(t));
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (seen.find(i) == seen.end()) {
      throw JournalMismatchError(
          "missing shard journal: shard index " + std::to_string(i) +
          " of " + std::to_string(count) + " has no journal in the merge "
          "set (run or resume that shard first)");
    }
  }

  std::string contents = journal_header_line(key);
  for (const auto& [index, trial] : trials) {
    contents += journal_trial_line(trial);
  }
  AtomicFile::write(merged_path, contents);

  MergeStats stats;
  stats.shard_count = count;
  stats.merged_trials = trials.size();
  stats.missing_trials = key.trials - trials.size();
  stats.sealed_shards = sealed_shards;
  return stats;
}

std::vector<std::string> discover_shard_journals(
    const std::string& merged_path) {
  namespace fs = std::filesystem;
  std::string stem = merged_path;
  const std::size_t suffix_len = std::strlen(kJournalSuffix);
  if (stem.size() > suffix_len &&
      stem.compare(stem.size() - suffix_len, suffix_len, kJournalSuffix) ==
          0) {
    stem.resize(stem.size() - suffix_len);
  }
  const fs::path stem_path(stem);
  const fs::path dir =
      stem_path.has_parent_path() ? stem_path.parent_path() : fs::path(".");
  const std::string base = stem_path.filename().string() + ".";
  std::vector<std::pair<ShardPlan, std::string>> found;
  // The fleet may not have made the directory yet: a missing one holds
  // no journals, but one that cannot be listed is an error, never "none".
  for (const std::string& name : list_dir_if_exists(dir.string())) {
    if (name.size() <= base.size() + suffix_len) continue;
    if (name.compare(0, base.size(), base) != 0) continue;
    if (name.compare(name.size() - suffix_len, suffix_len, kJournalSuffix) !=
        0) {
      continue;
    }
    const std::string middle =
        name.substr(base.size(), name.size() - base.size() - suffix_len);
    const std::optional<ShardPlan> plan = ShardPlan::parse_suffix(middle);
    if (!plan.has_value()) continue;
    found.emplace_back(*plan, (dir / name).string());
  }
  std::sort(found.begin(), found.end(), order_by_plan);
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [plan, path] : found) paths.push_back(std::move(path));
  return paths;
}

// ---------------------------------------------------------------------------
// Work queue.

namespace {

std::string join(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

/// O_CREAT|O_EXCL marker creation: true iff WE created it; EEXIST means
/// another initializer made it.
bool create_exclusive(const std::string& path) {
  int fd = -1;
  try {
    fd = fsio::open_retry(path, O_CREAT | O_EXCL | O_WRONLY, 0644);
  } catch (const IoError& e) {
    if (e.code() == EEXIST) return false;
    throw;
  }
  fsio::close_or_throw(fd, path);
  return true;
}

bool path_exists(const std::string& path) {
  return fsio::mtime_if_exists(path).has_value();
}

/// Ticket names under `dir`, sorted by (count, index). With
/// `allow_missing`, a nonexistent directory reads as empty (queues made
/// before the done/ directory existed).
std::vector<std::string> list_tickets(const std::string& dir,
                                      bool allow_missing = false) {
  std::vector<std::string> entries =
      allow_missing ? list_dir_if_exists(dir) : fsio::list_dir(dir);
  std::vector<std::pair<ShardPlan, std::string>> found;
  for (std::string& name : entries) {
    const std::optional<ShardPlan> plan = ShardPlan::parse_suffix(name);
    if (plan.has_value()) found.emplace_back(*plan, std::move(name));
  }
  std::sort(found.begin(), found.end(), order_by_plan);
  std::vector<std::string> names;
  names.reserve(found.size());
  for (auto& [plan, name] : found) names.push_back(std::move(name));
  return names;
}

// ---------------------------------------------------------------------------
// Leases.

std::string self_host() {
  char buf[256] = {0};
  if (::gethostname(buf, sizeof(buf) - 1) != 0) return "unknown-host";
  return buf;
}

std::string lease_content(const std::string& host, long pid,
                          std::uint64_t renewals) {
  return "host " + host + "\npid " + std::to_string(pid) + "\nrenewals " +
         std::to_string(renewals) + "\n";
}

/// The lease at `path`; nullopt when it is gone or does not parse. A
/// lease that exists but cannot be read throws IoError naming it.
std::optional<LeaseInfo> read_lease(const std::string& path) {
  std::istringstream in(fsio::read_file_if_exists(path).value_or(""));
  LeaseInfo info;
  std::string key;
  if (!(in >> key) || key != "host" || !(in >> info.host)) return std::nullopt;
  if (!(in >> key) || key != "pid" || !(in >> info.pid)) return std::nullopt;
  if (!(in >> key) || key != "renewals" || !(in >> info.renewals)) {
    return std::nullopt;
  }
  return info;
}

/// Age of `path` measured against a probe file freshly rewritten in the
/// queue directory: both mtimes come from the queue filesystem's clock,
/// so a worker on a machine with a skewed wall clock still ages (or
/// stays fresh) correctly. Negative ages (a lease stamped in the probe's
/// future, e.g. by a fast-clocked machine) read as fresh. nullopt when
/// `path` vanished mid-check (a racing rename).
std::optional<double> age_vs_probe(const std::string& dir,
                                   const std::string& path) {
  const std::string probe = join(dir, "probe");
  AtomicFile::write(probe, "probe\n");
  const std::optional<double> probe_mtime = fsio::mtime_if_exists(probe);
  if (!probe_mtime.has_value()) throw IoError("stat", probe, ENOENT);
  const std::optional<double> lease_mtime = fsio::mtime_if_exists(path);
  if (!lease_mtime.has_value()) return std::nullopt;
  return *probe_mtime - *lease_mtime;
}

}  // namespace

void ShardQueue::init(const std::string& dir, std::size_t count) {
  MMR_EXPECTS(!dir.empty());
  MMR_EXPECTS(count >= 1);
  for (const char* sub : {"", "/tickets", "/todo", "/claimed", "/done"}) {
    fsio::make_dir(dir + sub, 0777);
  }
  // A queue is permanently bound to its shard count: mixing counts would
  // mix ownership partitions. Only a missing (or empty) count is stamped:
  // one that cannot be read throws IoError rather than being replaced.
  const std::string meta = join(dir, "shard-count");
  std::string text;
  std::istringstream(fsio::read_file_if_exists(meta).value_or("")) >> text;
  if (text.empty()) {
    AtomicFile::write(meta, std::to_string(count) + "\n");
  } else {
    std::size_t existing = 0;
    if (!mmr::parse_size(text.c_str(), existing) || existing != count) {
      throw std::runtime_error("shard queue '" + dir +
                               "' was initialized for " + text +
                               " shards; refusing to re-initialize for " +
                               std::to_string(count));
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::string name = ShardPlan{i, count}.suffix();
    // The tickets/ marker is PERMANENT: whoever creates it owns the one
    // and only offer of the shard in todo/. A late initializer loses the
    // O_EXCL race and must not re-offer a shard someone may already have
    // claimed.
    if (create_exclusive(join(join(dir, "tickets"), name))) {
      (void)create_exclusive(join(join(dir, "todo"), name));
    }
  }
}

std::optional<ShardPlan> ShardQueue::claim(const std::string& dir,
                                           const LeaseOptions& opts) {
  const std::string todo = join(dir, "todo");
  const std::string claimed = join(dir, "claimed");
  for (;;) {
    bool raced = false;
    for (const std::string& name : list_tickets(todo)) {
      // Freshen the ticket's mtime BEFORE the claiming rename: rename(2)
      // preserves mtime, so a ticket that sat in todo/ longer than the
      // TTL would otherwise look instantly stale in claimed/ during the
      // gap before the lease content lands. A refresh that fails for good
      // throws here, leaving the ticket in todo/.
      if (!fsio::touch_if_exists(join(todo, name)) ||
          !fsio::rename_if_exists(join(todo, name), join(claimed, name))) {
        // Another worker won this ticket between listing and rename.
        raced = true;
        continue;
      }
      // We own the shard; stamp the lease (AtomicFile gives the file a
      // fresh inode and mtime from the queue filesystem's clock).
      AtomicFile::write(join(claimed, name),
                        lease_content(self_host(), ::getpid(), 0));
      return ShardPlan::parse_suffix(name);
    }
    if (raced) continue;
    // Nothing claimable: reclaim any claimed/ shard whose lease has gone
    // stale (its worker died without running destructors) and loop to
    // claim it through the normal rename race.
    bool reclaimed = false;
    for (const std::string& name : list_tickets(claimed)) {
      const std::optional<double> age = age_vs_probe(dir, join(claimed, name));
      if (!age.has_value() || *age <= opts.ttl_s + opts.effective_grace_s()) {
        continue;  // vanished mid-scan, or its holder is alive
      }
      if (fsio::rename_if_exists(join(claimed, name), join(todo, name))) {
        reclaimed = true;
      }
    }
    if (!reclaimed) return std::nullopt;
  }
}

bool ShardQueue::renew(const std::string& dir, const ShardPlan& plan) {
  MMR_EXPECTS(plan.enabled() && plan.valid());
  const std::string path = join(join(dir, "claimed"), plan.suffix());
  const std::optional<LeaseInfo> info = read_lease(path);
  if (!info.has_value() || info->host != self_host() ||
      info->pid != static_cast<long>(::getpid())) {
    // Gone or renamed to another holder: the shard was reclaimed out
    // from under us. (The residual window -- reclaim landing between
    // this check and the write below -- is excluded by the queue
    // contract: leases only go stale after ttl + grace, and renewals
    // run every ttl/4.)
    return false;
  }
  AtomicFile::write(path,
                    lease_content(info->host, info->pid, info->renewals + 1));
  return true;
}

void ShardQueue::complete(const std::string& dir, const ShardPlan& plan) {
  MMR_EXPECTS(plan.enabled() && plan.valid());
  const std::string name = plan.suffix();
  if (!path_exists(join(join(dir, "tickets"), name))) {
    throw std::runtime_error("shard queue '" + dir +
                             "' has no ticket for shard " + name);
  }
  const std::string done = join(join(dir, "done"), name);
  if (path_exists(done)) return;  // already complete
  const std::string claimed = join(join(dir, "claimed"), name);
  const std::optional<LeaseInfo> info = read_lease(claimed);
  if (info.has_value() && (info->host != self_host() ||
                           info->pid != static_cast<long>(::getpid()))) {
    // The shard was reclaimed and is someone else's now; completion is
    // their call, not ours.
    return;
  }
  // A ticket missing from claimed/ is back in todo/ (reclaimed) or
  // mid-rename; either way, nothing for us to mark.
  (void)fsio::rename_if_exists(claimed, done);
}

std::optional<LeaseInfo> ShardQueue::holder(const std::string& dir,
                                            const ShardPlan& plan) {
  MMR_EXPECTS(plan.enabled() && plan.valid());
  return read_lease(join(join(dir, "claimed"), plan.suffix()));
}

ShardQueue::Counts ShardQueue::counts(const std::string& dir) {
  Counts c;
  c.todo = list_tickets(join(dir, "todo"), /*allow_missing=*/true).size();
  c.claimed =
      list_tickets(join(dir, "claimed"), /*allow_missing=*/true).size();
  c.done = list_tickets(join(dir, "done"), /*allow_missing=*/true).size();
  return c;
}

// ---------------------------------------------------------------------------
// Lease keeper (built on the queue calls above).

ShardLeaseKeeper::ShardLeaseKeeper(std::string dir, ShardPlan plan,
                                   LeaseOptions opts)
    : dir_(std::move(dir)), plan_(plan), opts_(opts) {
  MMR_EXPECTS(plan_.enabled() && plan_.valid());
  heartbeat_ = std::thread([this] {
    // Renew every ttl/4: several heartbeats must fit inside ttl + grace
    // so one slow renewal never loses the lease.
    const auto interval =
        std::chrono::duration<double>(std::max(opts_.ttl_s / 4.0, 0.001));
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, interval, [this] { return stop_; })) {
      lock.unlock();
      bool renewed = true;
      try {
        renewed = ShardQueue::renew(dir_, plan_);
      } catch (...) {
        // Transient queue I/O trouble: keep the thread alive and retry
        // next beat -- the lease only lapses after ttl + grace.
      }
      if (!renewed) lost_.store(true, std::memory_order_relaxed);
      lock.lock();
      if (lost_.load(std::memory_order_relaxed)) return;
    }
  });
}

ShardLeaseKeeper::~ShardLeaseKeeper() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  // Normal destruction == the worker finished its pass: mark the shard
  // done so it is never reclaimed. A lost lease belongs to its new
  // holder, and a process that dies without destructors (SIGKILL,
  // _exit) never reaches this line -- its lease goes stale instead.
  if (!lost()) {
    try {
      ShardQueue::complete(dir_, plan_);
    } catch (...) {
      // Completion failure leaves the shard claimed; it will be
      // reclaimed after the TTL and its journal resumed -- safe.
    }
  }
}

}  // namespace mmr::sim
