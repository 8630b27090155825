// Sharded distributed campaigns over the PR-5 CampaignJournal.
//
// A campaign's trial index space can be partitioned across N worker
// processes (or machines): worker i runs the trials it OWNS under a
// ShardPlan and checkpoints them into its own shard journal
// (BASE.<campaign>.shard-i-of-N.journal) whose header extends the
// campaign fingerprint with the shard spec. Because every trial's
// randomness derives purely from (base_seed, index) -- never from which
// trials ran before it -- shard k's trial j is bit-identical to the
// single-process trial j, and merging the shard journals back into one
// unsharded journal reconstitutes the exact single-process campaign.
//
// The pieces:
//   * ShardPlan: "which trials does worker i of N own" (strided
//     round-robin, so heterogeneous trial costs balance across workers).
//   * merge_journals(): validate a set of shard journals (same campaign
//     key field-for-field, one consistent shard count, disjoint and
//     covering shard indices) and write the merged UNSHARDED journal
//     atomically. Trials a shard never completed (crash before
//     checkpoint, or quarantined -- quarantined trials are never
//     journaled) are simply absent; replaying the merged journal through
//     Engine::run re-runs exactly those, re-quarantining deterministic
//     failures, so the merged JSON is byte-identical to the 1-process
//     run under --freeze-timing.
//   * ShardQueue: a file-based work queue (claim-by-rename) so a fleet
//     of identical workers can self-assign shards:
//       tickets/  one permanent marker per shard, created with
//                 O_CREAT|O_EXCL -- the init winner for a ticket is the
//                 only process that offers it in todo/, so late
//                 initializers cannot resurrect an already-claimed shard;
//       todo/     claimable shard tickets;
//       claimed/  rename(2) target -- POSIX rename is atomic, so exactly
//                 one claimant wins each ticket. The claimed marker IS
//                 the worker's lease: host/pid/renewal-count content,
//                 rewritten (atomically) by the worker's heartbeat so its
//                 mtime proves liveness;
//       done/     rename target on completion -- a done shard is never
//                 reclaimed or re-offered.
//     A crashed worker's shard stays in claimed/ with a lease that goes
//     stale: once the lease's age exceeds ttl + grace, any claimer
//     auto-reclaims it (rename back to todo/) and resumes it via the
//     shard journal's --resume path. Staleness is measured against the
//     mtime of a probe file freshly touched in the SAME queue directory,
//     so both timestamps come from the queue filesystem's clock and
//     cross-machine wall-clock skew cannot fake (or hide) a death. The
//     contract that keeps renewal race-free: ttl + grace must comfortably
//     exceed the heartbeat interval (the keeper renews every ttl/4).
//
// Validation failures throw JournalMismatchError naming the offending
// field (and file), mirroring the journal's own refuse-to-resume
// contract.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace mmr::sim {

struct CampaignKey;  // sim/journal.h

/// A strided partition of the trial index space: worker `index` of
/// `count` owns trial t iff t % count == index. count == 0 means "not
/// sharded" (owns everything); count == 1 is a valid single-shard plan
/// (owns everything, but journals carry the shard header).
struct ShardPlan {
  std::size_t index = 0;
  std::size_t count = 0;

  bool enabled() const { return count > 0; }
  bool valid() const { return count == 0 || index < count; }
  bool owns(std::size_t trial) const {
    return count <= 1 || trial % count == index;
  }
  /// Trials of `total` this shard owns.
  std::size_t owned_of(std::size_t total) const;

  /// "shard-<i>-of-<N>": the journal-filename infix and queue ticket name.
  std::string suffix() const;

  /// Strict "i/N" (e.g. "0/3"): base-10 only, i < N, N >= 1.
  static std::optional<ShardPlan> parse(const std::string& text);
  /// Strict "shard-<i>-of-<N>" (the suffix()/ticket format).
  static std::optional<ShardPlan> parse_suffix(const std::string& name);

  friend bool operator==(const ShardPlan&, const ShardPlan&) = default;
};

/// What merge_journals() did.
struct MergeStats {
  std::size_t shard_count = 0;
  /// Completed trials carried into the merged journal.
  std::size_t merged_trials = 0;
  /// Trials of key.trials no shard had checkpointed (they re-run when the
  /// merged journal is replayed).
  std::size_t missing_trials = 0;
  /// Shard journals carrying an intact seal footer (finished workers);
  /// the rest were in-progress or crashed and their missing trials re-run.
  std::size_t sealed_shards = 0;
};

/// Validate `shard_paths` as a complete shard set for `key` and write the
/// merged UNSHARDED journal to `merged_path` (atomically; an existing file
/// is replaced). Throws JournalMismatchError naming the offending field
/// and file when a journal is unsharded, fails check_journal_key() (name /
/// base seed / trial count / seed policy / config fingerprint) or
/// check_journal_seal(), holds a trial outside its shard's ownership,
/// disagrees on the shard count, duplicates a shard index (overlap), or
/// leaves a shard index uncovered (missing); throws std::runtime_error on
/// I/O failure.
MergeStats merge_journals(const std::vector<std::string>& shard_paths,
                          const std::string& merged_path,
                          const CampaignKey& key);

/// Discover the shard journals next to an unsharded journal path
/// ("<stem>.journal" -> every "<stem>.shard-<i>-of-<N>.journal" in the
/// same directory), sorted by (count, index). Purely lexical + directory
/// scan; merge_journals() does the real validation. A directory that does
/// not exist holds no journals; one that cannot be listed throws IoError
/// naming it.
std::vector<std::string> discover_shard_journals(
    const std::string& merged_path);

/// Tuning for lease-based shard claims. A worker's heartbeat rewrites
/// its lease every ttl/4; a lease older than ttl + grace is presumed
/// dead and reclaimable. grace < 0 means "ttl / 4".
struct LeaseOptions {
  double ttl_s = 300.0;
  double grace_s = -1.0;

  double effective_grace_s() const {
    return grace_s < 0.0 ? ttl_s / 4.0 : grace_s;
  }
};

/// Who holds a claimed shard, parsed from its lease file.
struct LeaseInfo {
  std::string host;
  long pid = 0;
  std::uint64_t renewals = 0;

};

/// File-based shard work queue (see the header comment). Its filesystem
/// calls go through common/fs_ops.h: transient errnos retry, anything
/// else throws IoError naming the operation and path.
class ShardQueue {
 public:
  /// Queue population counts (for fleet progress reporting).
  struct Counts {
    std::size_t todo = 0;
    std::size_t claimed = 0;
    std::size_t done = 0;
  };

  /// Create the queue layout under `dir` (made if missing) and offer one
  /// ticket per shard of `count`. Idempotent and concurrency-safe: any
  /// number of workers may race init() with the same count; a different
  /// count for an existing queue throws, and so does a count file that
  /// exists but cannot be read (IoError), which is never re-stamped.
  static void init(const std::string& dir, std::size_t count);

  /// Claim the lowest-numbered claimable shard ticket, or std::nullopt
  /// when none remain. Exactly one concurrent claimant wins any ticket.
  /// When todo/ is empty, claimed/ shards whose lease has gone stale
  /// (age > ttl + grace, measured against the queue's probe file) are
  /// auto-reclaimed and re-claimed -- a SIGKILL'd worker's shard flows
  /// to the next free worker without operator intervention. The winner's
  /// lease file is stamped with this process's host/pid.
  static std::optional<ShardPlan> claim(const std::string& dir,
                                        const LeaseOptions& opts = {});

  /// Heartbeat: atomically rewrite the lease for a shard this process
  /// holds, refreshing its mtime. Returns false (without throwing) when
  /// the lease is gone or now names another holder -- the shard was
  /// reclaimed out from under us and this worker must stop writing to
  /// its journal.
  static bool renew(const std::string& dir, const ShardPlan& plan);

  /// Mark a held shard finished: move its ticket claimed/ -> done/.
  /// Idempotent (already-done is a no-op); a done shard is never
  /// reclaimed or re-offered.
  static void complete(const std::string& dir, const ShardPlan& plan);

  /// The lease of a claimed shard, or nullopt when the shard is not in
  /// claimed/ (or its lease file is unreadable mid-rewrite).
  static std::optional<LeaseInfo> holder(const std::string& dir,
                                         const ShardPlan& plan);

  /// How many tickets sit in todo/, claimed/, and done/ right now.
  static Counts counts(const std::string& dir);
};

/// RAII heartbeat for one claimed shard: a background thread renews the
/// lease every ttl/4 until destruction. Destruction stops the heartbeat
/// and marks the shard complete() -- unless the lease was lost (lost()
/// is sticky true once a renewal finds the lease reclaimed), in which
/// case the shard is left alone for its new holder. A worker that dies
/// without running destructors (SIGKILL, _exit) simply stops renewing,
/// which is exactly what lets the fleet reclaim its shard.
class ShardLeaseKeeper {
 public:
  ShardLeaseKeeper(std::string dir, ShardPlan plan, LeaseOptions opts = {});
  ~ShardLeaseKeeper();

  ShardLeaseKeeper(const ShardLeaseKeeper&) = delete;
  ShardLeaseKeeper& operator=(const ShardLeaseKeeper&) = delete;

  /// True once a renewal found the lease reclaimed by someone else.
  bool lost() const { return lost_.load(std::memory_order_relaxed); }

  const ShardPlan& plan() const { return plan_; }

 private:
  std::string dir_;
  ShardPlan plan_;
  LeaseOptions opts_;
  std::atomic<bool> lost_{false};
  bool stop_ = false;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::thread heartbeat_;
};

}  // namespace mmr::sim
