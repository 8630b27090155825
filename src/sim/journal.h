// Trial-granular checkpoint journal for durable campaigns.
//
// A CampaignJournal is a JSON-lines file: one atomically-written header
// line identifying the campaign (spec name, base seed, trial count, seed
// policy, and a fingerprint of every config scalar), followed by one line
// per COMPLETED trial, appended and fsync'd as trials finish. Because
// every trial's randomness derives purely from (base_seed, index), a
// journaled trial can be replayed -- summary, timing, label, fault events
// and, for a network trial, every link's report and every handover
// restored bit-exactly -- instead of re-run, so a campaign killed
// at any point resumes by re-running only the missing indices and emits
// output byte-identical to an uninterrupted run.
//
// Durability contract:
//   * the header is written via common::AtomicFile (write-temp + fsync +
//     rename), so a journal either exists with a complete header or not
//     at all;
//   * each trial record is one line, written and fsync'd before record()
//     returns -- a SIGKILL loses at most the trial(s) still in flight;
//   * a torn trailing line (killed mid-append) is tolerated on load: the
//     damaged record and anything after it are ignored, the file is
//     rewritten (atomically) as its header plus the records kept, so new
//     appends never concatenate onto torn bytes, and those trials simply
//     re-run;
//   * only a missing or 0-byte journal counts as absent: one that exists
//     but cannot be opened or read throws and keeps its bytes;
//   * all doubles are serialized as raw IEEE-754 bit patterns (hex), so a
//     replayed value is the exact bits the original run produced.
//
// One reader, two checks: read_journal_file() is the only code that
// parses a journal file. Resume, merge and the --merge --watch poll read
// through it and judge what they read with the same check_journal_key()
// and check_journal_seal(), so the campaign-key and seal rules are each
// written once.
//
// Seal footer (the multi-machine transport convention): a shard worker
// that finishes its pass over the owned trials writes one fsync'd seal
// line -- record count + FNV-1a fingerprint over the raw bytes of every
// trial record line -- as the journal's last line. A sealed journal is
// safe to rsync/copy between machines: a partial copy either loses the
// seal (classified as in-progress, missing trials re-run -- safe) or
// keeps a seal that no longer matches the records (rejected loudly with
// a JournalMismatchError naming the seal mismatch -- never silently
// treated as an early crash). Unsealed journals are loadable and
// mergeable exactly as before the seal existed.
//
// Safety contract: opening a journal whose header does not match the
// campaign key (different name, seed, trials, seed policy, or config
// fingerprint) throws JournalMismatchError -- resuming someone else's
// checkpoint silently would corrupt results.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/events.h"
#include "core/metrics.h"
#include "sim/engine.h"
#include "sim/shard.h"

namespace mmr::sim {

/// One completed trial as persisted in (and replayed from) the journal.
/// A network trial's record also carries its per-link reports and
/// handovers (`network`, whose aggregate is `summary`); its faults live
/// with its links, so its own `faults` stay empty.
struct JournalTrial {
  std::size_t index = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string label;
  core::LinkSummary summary;
  std::vector<core::FaultEvent> faults;
  std::optional<net::NetworkResult> network;
};

/// Identity of a campaign: the journal refuses to resume under any other.
struct CampaignKey {
  std::string name;
  std::uint64_t base_seed = 1;
  std::size_t trials = 1;
  SeedPolicy seed_policy = SeedPolicy::kPerTrialStream;
  /// fingerprint_spec() over every config scalar of the ExperimentSpec.
  std::uint64_t fingerprint = 0;
};

/// FNV-1a over a canonical serialization of the spec's declarative state:
/// scenario (name + every knob), controller (name + knobs), RunConfig
/// (incl. the full FaultPlan), trials/seed/seed_policy/record_samples,
/// and, for a network campaign only, every NetworkLayout field (so a link
/// campaign's fingerprint is the one it had before networks existed).
/// The `customize`/`label` hooks cannot be fingerprinted -- they are
/// assumed stable for the same binary and flags (documented in DESIGN.md).
std::uint64_t fingerprint_spec(const ExperimentSpec& spec);

/// The spec's full journal identity (name/seed/trials/policy/fingerprint).
CampaignKey campaign_key(const ExperimentSpec& spec);

/// Thrown when a journal exists but belongs to a different campaign (or
/// its header is unreadable, or its seal footer denounces the records).
class JournalMismatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Seal footer of a completed shard journal: how many trial record lines
/// the worker wrote and the FNV-1a-64 fingerprint over their raw bytes
/// (each line including its trailing newline, in file order).
struct JournalSeal {
  std::size_t trials = 0;
  std::uint64_t fingerprint = 0;
};

/// FNV-1a-64 offset basis / running fold used by the seal fingerprint
/// (exposed so tests and the watch merger can recompute it over record
/// lines).
inline constexpr std::uint64_t kJournalFnvOffset = 0xcbf29ce484222325ull;
std::uint64_t journal_fnv1a(std::string_view bytes,
                            std::uint64_t seed = kJournalFnvOffset);

class CampaignJournal {
 public:
  /// Open-or-create `path` for `key`. A missing or 0-byte file gets an
  /// atomically written header; any other file is read, key- and
  /// seal-checked (JournalMismatchError), and its records kept up to the
  /// first torn, out-of-range or unowned one -- rewriting the file only
  /// when records were dropped or a seal is stripped. A file that cannot
  /// be read throws std::runtime_error and keeps its bytes.
  ///
  /// `shard` (default: not sharded) stamps the shard spec into the header
  /// and validates it on resume: a shard worker's journal can only be
  /// resumed by the SAME shard of the SAME campaign (mismatched shard
  /// index/count throw JournalMismatchError like every other key field).
  /// An unsharded plan writes the exact pre-shard header bytes, so
  /// existing journals stay readable and resumable.
  CampaignJournal(std::string path, CampaignKey key, ShardPlan shard = {});
  ~CampaignJournal();

  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  const ShardPlan& shard() const { return shard_; }

  /// Trials already completed by previous runs, keyed by index (the state
  /// at open; record() does not add to it).
  const std::map<std::size_t, JournalTrial>& completed() const {
    return completed_;
  }

  /// Append one completed trial and make it durable (flush + fsync)
  /// before returning. Thread-safe: workers call this concurrently.
  /// Calling record() on a sealed journal is a logic error (MMR_EXPECTS):
  /// the seal is the worker's "nothing more will be written" promise.
  void record(const JournalTrial& trial);

  /// Append the fsync'd seal footer (record count + FNV-1a fingerprint
  /// over every record line written or replayed through this journal).
  /// Idempotent: sealing a journal this handle already sealed is a no-op.
  /// After seal() the file is safe to copy between machines -- see the
  /// transport convention in the header comment.
  void seal();

  /// True once this handle has written (or re-confirmed) the seal footer.
  bool sealed() const { return sealed_; }

 private:
  /// Write `line` and make it durable (the caller holds mutex_).
  void append(const std::string& line);

  std::string path_;
  ShardPlan shard_;
  std::map<std::size_t, JournalTrial> completed_;
  int out_fd_ = -1;
  /// Running FNV-1a over the bytes of every record line in the file (the
  /// kept records + everything record() appended), i.e. what seal() will
  /// stamp.
  std::uint64_t records_fnv_ = kJournalFnvOffset;
  std::size_t record_count_ = 0;
  bool sealed_ = false;
  std::mutex mutex_;
};

/// A journal file parsed without resuming it: identity, shard spec
/// (disabled for unsharded journals), every intact trial record, and the
/// seal state observed on disk.
struct LoadedJournal {
  CampaignKey key;
  ShardPlan shard;
  std::vector<JournalTrial> trials;
  /// The seal footer, when one was found (regardless of whether it
  /// matches the records -- callers check seal_intact()).
  std::optional<JournalSeal> seal;
  /// FNV-1a over the raw bytes of every intact record line, in file
  /// order (what an honest seal must carry).
  std::uint64_t records_fnv = kJournalFnvOffset;
  /// True when the file ended in a damaged (torn) trailing line.
  bool torn_tail = false;
  /// True when non-empty lines follow the seal footer -- a sealed
  /// journal promises the seal is the last line, so this is corruption.
  bool content_after_seal = false;

  /// True when a seal is present and vouches exactly for the records
  /// read: matching count, matching fingerprint, nothing torn, nothing
  /// after it. A sealed-looking journal failing this is NOT an early
  /// crash -- it lost or gained bytes in transport (check_journal_seal()
  /// throws for it).
  bool seal_intact() const {
    return seal.has_value() && !torn_tail && !content_after_seal &&
           seal->trials == trials.size() && seal->fingerprint == records_fnv;
  }
};

/// Read `path` as a journal: throws std::runtime_error when the file
/// cannot be opened or read and JournalMismatchError when the header is
/// unreadable; trial loading stops at the first torn line (a line without
/// its newline is torn too). Intact records outside the trial range or
/// the shard's ownership ARE returned: the resume drops them and
/// everything after them, and the merge rejects them by name instead of
/// silently re-running "missing" trials.
LoadedJournal read_journal_file(const std::string& path);

/// The key check: throws JournalMismatchError naming the first field in
/// which `found`'s header differs from `key` -- name, base seed, trial
/// count, seed policy, config fingerprint, and, when the caller holds a
/// plan, shard count and shard index.
void check_journal_key(const std::string& path, const LoadedJournal& found,
                       const CampaignKey& key,
                       const std::optional<ShardPlan>& shard = std::nullopt);

/// The seal check: a seal, when present, must vouch for exactly the
/// records `found` holds (count and FNV, no torn line, nothing after it);
/// otherwise throws JournalMismatchError naming the seal's count and the
/// file's.
void check_journal_seal(const std::string& path, const LoadedJournal& found);

/// The exact line bytes the journal writes (exposed for the shard merge
/// writer, which must reproduce a 1-process journal byte-for-byte, and
/// for tests that forge journals).
std::string journal_header_line(const CampaignKey& key,
                                const ShardPlan& shard = {});
std::string journal_trial_line(const JournalTrial& trial);
std::string journal_seal_line(const JournalSeal& seal);

}  // namespace mmr::sim
