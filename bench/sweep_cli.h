// Shared command-line handling for the engine-driven benches.
//
// Every ported figure bench accepts:
//   --jobs N           worker threads for the Monte-Carlo sweep (0 = all
//                      hardware threads; default 1 = serial). Parallel
//                      output is bit-identical to serial for the same seed.
//   --trials N         scale the per-scheme trial count where the bench
//                      sweeps seeds (0 = keep the bench's default).
//   --seed S           override the sweep's base seed (0 = bench default).
//   --scenario NAME    override the campaign's registered scenario.
//   --controller NAME  override the campaign's registered controller.
//   --faults NAME      apply a named fault preset ("none", "light",
//                      "moderate", "heavy") to every run's probe/CSI path.
//   --kernel-backend B force the dsp kernel backend ("scalar", "portable",
//                      "avx2", "neon", or "auto" = CPUID best). Unknown
//                      names exit(2); a backend this binary/CPU cannot
//                      execute exit(2)s too -- forcing is for A/B
//                      measurement and must not silently fall back. Same
//                      effect as MMR_KERNEL_BACKEND in the environment
//                      (which DOES fall back with a warning, for fleet
//                      use). Goldens are scalar-backend; figure outputs
//                      on fast backends agree within the declared kernel
//                      tolerances (see DESIGN.md).
//   --json-out FILE    additionally append the JSON record(s) to FILE,
//                      atomically (write-temp + fsync + rename): a crash
//                      leaves either the previous FILE or the complete new
//                      one, never a truncated record. A FILE that cannot
//                      be opened exits(2) as the flag is parsed
//                      (JsonOutFile::check).
//   --resume BASE      durable execution: checkpoint every completed trial
//                      to the journal BASE.<campaign>.journal and, when
//                      that journal already exists (from an interrupted
//                      run of the SAME campaign: name, seed, trials, seed
//                      policy, and config fingerprint must all match),
//                      replay the completed trials and run only the
//                      missing ones. Combined with --freeze-timing the
//                      resumed output is byte-identical to an
//                      uninterrupted run. Mismatched journals exit(2).
//   --trial-retries N  re-run a trial whose body throws up to N extra
//                      times (same deterministic Rng stream) before
//                      quarantining it; a quarantined trial keeps its slot
//                      but is excluded from aggregates and reported under
//                      "failures" instead of aborting the sweep.
//   --trial-timeout-s X  wall-clock watchdog: warn on stderr and flag any
//                      trial that runs longer than X seconds (flagged,
//                      not killed; 0 = off).
//   --freeze-timing    zero all wall/cpu timing fields in the JSON record
//                      so output is a pure function of (spec, seed) --
//                      for byte-diffing runs (crash/resume tests, CI).
//   --shard I/N        distributed campaigns: this process runs only the
//                      trials shard I of N owns (strided: index % N == I)
//                      and checkpoints them into
//                      BASE.<campaign>.shard-I-of-N.journal. Requires
//                      --resume BASE (the shard journal IS the worker's
//                      output). Trial randomness derives purely from
//                      (seed, index), so shard trials are bit-identical
//                      to the 1-process run's.
//   --shard-queue DIR  claim a shard from the file-based work queue under
//                      DIR instead of naming it: `--shards N` (first
//                      caller wins the init) offers tickets shard-0-of-N
//                      .. shard-(N-1)-of-N; each worker atomically claims
//                      the lowest free one (claim-by-rename). The claim
//                      is a LEASE: a background heartbeat renews it every
//                      ttl/4 for the life of the process, and a shard
//                      whose lease goes stale (worker SIGKILL'd, machine
//                      lost) is automatically reclaimed by the next
//                      claimer and resumed from its journal. An empty
//                      queue prints a note and exits 0, so a fleet loop
//                      can simply spawn more workers than shards.
//                      Requires --resume; mutually exclusive with
//                      --shard.
//   --lease-ttl-s X    lease time-to-live for --shard-queue claims
//                      (default 300). A dead worker's shard is reclaimed
//                      after X + X/4 seconds of missed heartbeats,
//                      measured on the queue filesystem's own clock (so
//                      cross-machine wall-clock skew is harmless). Set
//                      well above the longest expected worker stall
//                      (GC-less here, but think NFS hiccups): a live
//                      worker that loses its lease stops being the
//                      shard's owner.
//   --merge BASE       merge the shard journals written under --resume
//                      BASE back into the unsharded journal
//                      BASE.<campaign>.journal (validating that every
//                      shard belongs to this campaign and the shard set
//                      is disjoint and covering -- violations exit(2)
//                      naming the offending field), then replay it
//                      through the engine: completed trials restore
//                      bit-exactly, missing ones (crashed before
//                      checkpoint, or quarantined -- quarantine is never
//                      journaled) re-run live. With --freeze-timing the
//                      merged JSON is byte-identical to the 1-process
//                      run. Mutually exclusive with --shard/--shard-queue
//                      and --resume.
//   --watch            with --merge: instead of requiring every shard
//                      journal to exist up front, poll the journals as
//                      the fleet writes them, reporting per-shard
//                      progress (and stragglers) on stderr, and finalize
//                      the merge the moment every shard's journal carries
//                      an intact seal footer. Tolerates torn tails and
//                      mid-copy (rsync) files -- they read as fewer
//                      intact records until the next poll; a journal
//                      whose seal persistently disagrees with its records
//                      exits 2 naming the seal (transport damage never
//                      merges silently).
//   --list             print the registered scenario/controller names and
//                      the fault presets, then exit.
// and ends its report with one JSON line (sweep timing, per-trial
// wall-clock and LinkSummary values, aggregate) for machine consumption.
//
// Numeric flags are validated strictly (common/parse.h): signs,
// whitespace, trailing garbage, and out-of-range values exit(2) with a
// message instead of being silently truncated to something surprising
// (`--jobs abc` used to parse as 0 = every hardware thread).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/io_error.h"
#include "common/parse.h"
#include "dsp/backend.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/journal.h"
#include "sim/shard.h"
#include "sim/telemetry.h"

namespace mmr::bench {

struct SweepCliOptions {
  std::size_t jobs = 1;
  std::size_t trials = 0;   ///< 0 = bench default
  std::uint64_t seed = 0;   ///< 0 = bench default
  std::string scenario;     ///< empty = bench default
  std::string controller;   ///< empty = bench default
  std::string faults;       ///< fault preset name; empty = no faults
  std::string kernel_backend;  ///< forced dsp backend; empty = default
  std::string json_out;     ///< empty = stdout only
  std::string resume;       ///< journal base path; empty = no checkpoints
  std::size_t trial_retries = 0;
  double trial_timeout_s = 0.0;  ///< 0 = watchdog off
  bool freeze_timing = false;
  sim::ShardPlan shard;     ///< --shard I/N (or claimed from the queue)
  std::string shard_queue;  ///< --shard-queue DIR; empty = no queue
  std::size_t shards = 0;   ///< --shards N: init the queue (0 = no init)
  std::string merge;        ///< --merge BASE; empty = no merge
  double lease_ttl_s = 0.0;  ///< --lease-ttl-s; 0 = LeaseOptions default
  bool watch = false;       ///< --merge --watch: poll until all shards seal
  /// Heartbeat for the queue-claimed shard: keeps the lease fresh for
  /// the life of the process and marks the shard done/ on clean exit.
  /// (shared_ptr so SweepCliOptions stays copyable.)
  std::shared_ptr<sim::ShardLeaseKeeper> lease_keeper;
};

/// True when this invocation is a distributed worker or merger: benches
/// must skip sample-dependent figure reporting (record_samples is forced
/// off) and report via emit_distributed()/emit_json() instead.
inline bool distributed_mode(const SweepCliOptions& opts) {
  return opts.shard.enabled() || !opts.merge.empty();
}

/// The one --json-out writer, shared by every bench, which constructs it
/// before its work runs. The constructor exits(2) when FILE cannot be
/// opened (check()), then stages FILE's bytes in an AtomicFile, so what a
/// run writes to stream() lands after them. commit() replaces FILE
/// atomically (fsync + rename) and exits(2) naming FILE when that fails; a
/// run that dies before commit() leaves FILE as it was.
class JsonOutFile {
 public:
  /// Exit(2) naming FILE unless it opens for append (which creates it
  /// when missing) and for reading. parse_sweep_cli runs it as it parses
  /// --json-out, so a bench exits before it prints or runs anything.
  static void check(const std::string& path,
                    const char* flag = "--json-out") {
    std::ofstream probe(path, std::ios::app);
    std::ifstream existing(path, std::ios::binary);
    if (!probe || !existing) {
      std::fprintf(stderr, "cannot open %s file: %s\n", flag, path.c_str());
      std::exit(2);
    }
  }

  explicit JsonOutFile(const std::string& path,
                       const char* flag = "--json-out")
      : file_(path), flag_(flag) {
    check(path, flag);
    std::ifstream existing(path, std::ios::binary);
    if (existing.peek() != std::ifstream::traits_type::eof()) {
      file_.stream() << existing.rdbuf();
    }
  }

  std::ostream& stream() { return file_.stream(); }

  void commit() {
    try {
      file_.commit();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot write %s file %s: %s\n", flag_,
                   file_.path().c_str(), e.what());
      std::exit(2);
    }
  }

 private:
  AtomicFile file_;
  const char* flag_;
};

namespace detail {

/// The value of `flag` when argv[i] spells it `--flag VALUE` (advancing
/// `i` past the value) or `--flag=VALUE`; nullptr for any other argument,
/// including a bare `--flag` with no value after it.
inline const char* flag_value(int& i, int argc, char** argv,
                              const char* flag) {
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(argv[i], flag, len) == 0) {
    if (argv[i][len] == '=') return argv[i] + len + 1;
    if (argv[i][len] == '\0' && i + 1 < argc) return argv[++i];
  }
  return nullptr;
}

inline std::size_t require_size(const char* flag, const char* value,
                                const char* prog) {
  std::size_t out = 0;
  if (value == nullptr || !mmr::parse_size(value, out)) {
    std::fprintf(stderr,
                 "%s: invalid value for %s: '%s' (expected a non-negative "
                 "base-10 integer)\n",
                 prog, flag, value == nullptr ? "" : value);
    std::exit(2);
  }
  return out;
}

inline std::uint64_t require_u64(const char* flag, const char* value,
                                 const char* prog) {
  std::uint64_t out = 0;
  if (value == nullptr || !mmr::parse_u64(value, out)) {
    std::fprintf(stderr,
                 "%s: invalid value for %s: '%s' (expected a non-negative "
                 "base-10 integer)\n",
                 prog, flag, value == nullptr ? "" : value);
    std::exit(2);
  }
  return out;
}

inline double require_f64(const char* flag, const char* value,
                          const char* prog) {
  double out = 0.0;
  if (value == nullptr || !mmr::parse_f64(value, out)) {
    std::fprintf(stderr,
                 "%s: invalid value for %s: '%s' (expected a non-negative "
                 "finite base-10 number)\n",
                 prog, flag, value == nullptr ? "" : value);
    std::exit(2);
  }
  return out;
}

inline void print_registries() {
  std::printf("registered scenarios:\n");
  for (const std::string& name : sim::ScenarioRegistry::instance().names()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("registered controllers:\n");
  for (const std::string& name :
       sim::ControllerRegistry::instance().names()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("fault presets:\n");
  for (const std::string& name : sim::fault_preset_names()) {
    std::printf("  %s\n", name.c_str());
  }
}

inline void require_fault_preset(const std::string& name, const char* prog) {
  try {
    (void)sim::fault_preset(name);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    std::exit(2);
  }
}

/// Validate and APPLY a --kernel-backend value. Unlike the
/// MMR_KERNEL_BACKEND environment override (which warns and falls back,
/// so fleet-wide env settings stay safe on mixed machines), the explicit
/// flag is an A/B-measurement instrument: silently benchmarking the
/// wrong backend would corrupt the comparison, so unknown or
/// unsupported-on-this-CPU names exit(2).
inline void apply_kernel_backend(const std::string& name, const char* prog) {
  const std::optional<dsp::Backend> parsed = dsp::parse_backend(name);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "%s: unknown --kernel-backend '%s' (expected scalar, "
                 "portable, avx2, neon, or auto)\n",
                 prog, name.c_str());
    std::exit(2);
  }
  if (!dsp::set_backend(*parsed)) {
    std::fprintf(stderr,
                 "%s: --kernel-backend %s is not executable on this "
                 "machine (not compiled in, or missing CPU support)\n",
                 prog, std::string(dsp::backend_name(*parsed)).c_str());
    std::exit(2);
  }
}

/// The per-campaign journal file under a --resume BASE: benches run
/// several campaigns per process (scheme matrices), and each campaign
/// must checkpoint into its own fingerprint-keyed journal.
inline std::string journal_path(const std::string& base,
                                const std::string& campaign) {
  std::string safe;
  safe.reserve(campaign.size());
  for (char c : campaign) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    safe.push_back(ok ? c : '_');
  }
  return base + "." + safe + ".journal";
}

/// A shard worker's journal: the unsharded path with the shard spec
/// infixed (BASE.<campaign>.shard-I-of-N.journal), which is exactly what
/// discover_shard_journals() scans for at merge time.
inline std::string shard_journal_path(const std::string& base,
                                      const std::string& campaign,
                                      const sim::ShardPlan& plan) {
  std::string path = journal_path(base, campaign);
  const std::string suffix = ".journal";
  path.resize(path.size() - suffix.size());
  return path + "." + plan.suffix() + suffix;
}

/// --merge --watch: poll the shard journals of `merged`'s campaign while
/// the fleet is still writing them, and return the complete set once
/// every shard 0..N-1 (one consistent N) carries an intact seal footer.
///
/// Incremental by construction: each poll re-reads only what
/// read_journal_file() parses, and per-path cursors keep the stderr
/// progress down to actual changes. Files mid-append or mid-copy read as
/// torn/short -- in-progress, wait -- but a seal footer that
/// persistently disagrees with its records (confirmed by a re-read that
/// sim::check_journal_seal() judges, so a racing append cannot fake it)
/// is transport damage and exits 2 naming the seal. Stragglers (shards
/// unchanged across many polls while others sealed) are called out so a
/// human can go look at that worker.
inline std::vector<std::string> watch_shard_journals(
    const std::string& merged, const std::string& campaign,
    double poll_s = 0.2) {
  std::map<std::string, std::size_t> seen_trials;  // progress cursors
  std::map<std::string, bool> reported_sealed;
  int polls_since_change = 0;
  bool waiting_note_printed = false;
  for (;;) {
    const std::vector<std::string> paths =
        sim::discover_shard_journals(merged);
    if (paths.empty()) {
      if (!waiting_note_printed) {
        std::fprintf(stderr,
                     "watch: no shard journals for campaign '%s' yet; "
                     "waiting for the fleet...\n",
                     campaign.c_str());
        waiting_note_printed = true;
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(poll_s));
      continue;
    }
    bool changed = false;
    bool all_sealed = true;
    std::size_t shard_count = 0;
    std::set<std::size_t> sealed_indices;
    std::vector<std::string> unsealed;
    for (const std::string& path : paths) {
      sim::LoadedJournal lj;
      try {
        lj = sim::read_journal_file(path);
      } catch (const std::exception&) {
        // Unreadable mid-copy/mid-create: in-progress, next poll.
        all_sealed = false;
        unsealed.push_back(path);
        continue;
      }
      if (lj.seal.has_value() && !lj.seal_intact()) {
        // Confirm before failing: an append can land between our read of
        // the records and of the footer region only on a live file, and
        // a live file re-reads differently.
        std::this_thread::sleep_for(std::chrono::duration<double>(poll_s));
        try {
          sim::check_journal_seal(path, sim::read_journal_file(path));
        } catch (const sim::JournalMismatchError& e) {
          std::fprintf(stderr, "watch: %s -- refusing to merge\n", e.what());
          std::exit(2);
        }
        all_sealed = false;
        unsealed.push_back(path);
        continue;
      }
      const bool sealed = lj.seal_intact();
      const std::size_t count = lj.trials.size();
      if (seen_trials[path] != count || reported_sealed[path] != sealed) {
        std::fprintf(stderr, "watch: %s: %zu/%zu trials%s\n", path.c_str(),
                     count, lj.shard.owned_of(lj.key.trials),
                     sealed ? ", sealed" : "");
        seen_trials[path] = count;
        reported_sealed[path] = sealed;
        changed = true;
      }
      if (sealed && lj.shard.enabled()) {
        shard_count = lj.shard.count;
        sealed_indices.insert(lj.shard.index);
      } else {
        all_sealed = false;
        unsealed.push_back(path);
      }
    }
    if (all_sealed && shard_count > 0 &&
        sealed_indices.size() == shard_count) {
      std::fprintf(stderr,
                   "watch: all %zu shards sealed for campaign '%s'; "
                   "finalizing merge\n",
                   shard_count, campaign.c_str());
      return paths;
    }
    polls_since_change = changed ? 0 : polls_since_change + 1;
    // ~10s of silence while others already sealed: name the stragglers.
    if (polls_since_change > 0 &&
        polls_since_change % std::max(1, static_cast<int>(10.0 / poll_s)) ==
            0) {
      for (const std::string& path : unsealed) {
        std::fprintf(stderr,
                     "watch: still waiting on '%s' (%zu trials, no seal "
                     "yet)\n",
                     path.c_str(), seen_trials[path]);
      }
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(poll_s));
  }
}

}  // namespace detail

/// Hook for bench-specific flags layered onto the shared parser: called
/// for any argument the shared grammar does not recognize, with `i`
/// positioned on that argument (consume a separate value by advancing
/// `i`, exactly like the shared flags do). Return true when the argument
/// was handled; false falls through to the usage error. `extra_usage`
/// (optional) is appended to the usage text.
using ExtraFlagHandler = std::function<bool(int& i, int argc, char** argv)>;

/// Exit 2 when `arg` names one of the shared grammar's trial-campaign
/// flags (the journal flags --resume, --trial-retries, --trial-timeout-s
/// and the distributed roles) or one of `also`, bare or `--flag=VALUE`:
/// a bench with no journaled trial campaign would otherwise accept and
/// ignore them. Call it first in that bench's ExtraFlagHandler, which
/// sees each argument before the shared grammar does, so a refused
/// --shard-queue exits before it claims a queue ticket.
inline void refuse_campaign_flags(const char* arg, const char* prog,
                                  std::initializer_list<const char*> also,
                                  const char* why) {
  static constexpr const char* kCampaignFlags[] = {
      "--resume", "--trial-retries", "--trial-timeout-s", "--shard",
      "--shard-queue", "--lease-ttl-s", "--merge", "--watch"};
  const auto refuse = [&](const char* flag) {
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(arg, flag, len) == 0 &&
        (arg[len] == '\0' || arg[len] == '=')) {
      std::fprintf(stderr, "%s: %s is not supported: %s\n", prog, flag, why);
      std::exit(2);
    }
  };
  for (const char* flag : kCampaignFlags) refuse(flag);
  for (const char* flag : also) refuse(flag);
}

inline SweepCliOptions parse_sweep_cli(int argc, char** argv,
                                       const ExtraFlagHandler& extra,
                                       const char* extra_usage) {
  SweepCliOptions opts;
  auto value_of = [&](int& i, const char* flag) {
    return detail::flag_value(i, argc, argv, flag);
  };
  for (int i = 1; i < argc; ++i) {
    // Bench-specific flags win over sweep-wide ones so a bench that
    // already owns a spelling (bench_streaming's --shards counts
    // StreamingSpec shards) keeps its meaning.
    if (extra && extra(i, argc, argv)) {
      continue;
    }
    if (std::strcmp(argv[i], "--list") == 0) {
      detail::print_registries();
      std::exit(0);
    } else if (std::strcmp(argv[i], "--freeze-timing") == 0) {
      opts.freeze_timing = true;
    } else if (const char* v = value_of(i, "--jobs")) {
      opts.jobs = detail::require_size("--jobs", v, argv[0]);
    } else if (const char* v2 = value_of(i, "--trials")) {
      opts.trials = detail::require_size("--trials", v2, argv[0]);
    } else if (const char* v3 = value_of(i, "--seed")) {
      opts.seed = detail::require_u64("--seed", v3, argv[0]);
    } else if (const char* v4 = value_of(i, "--scenario")) {
      opts.scenario = v4;
    } else if (const char* v5 = value_of(i, "--controller")) {
      opts.controller = v5;
    } else if (const char* v6 = value_of(i, "--faults")) {
      opts.faults = v6;
      // Validate eagerly so a typo fails before any sweep runs.
      detail::require_fault_preset(opts.faults, argv[0]);
    } else if (const char* v7 = value_of(i, "--json-out")) {
      opts.json_out = v7;
      JsonOutFile::check(opts.json_out);
    } else if (const char* v8 = value_of(i, "--resume")) {
      opts.resume = v8;
      if (opts.resume.empty()) {
        std::fprintf(stderr, "%s: --resume needs a journal base path\n",
                     argv[0]);
        std::exit(2);
      }
    } else if (const char* v9 = value_of(i, "--trial-retries")) {
      opts.trial_retries =
          detail::require_size("--trial-retries", v9, argv[0]);
    } else if (const char* v10 = value_of(i, "--trial-timeout-s")) {
      opts.trial_timeout_s =
          detail::require_f64("--trial-timeout-s", v10, argv[0]);
    } else if (const char* v11 = value_of(i, "--kernel-backend")) {
      opts.kernel_backend = v11;
      // Validated AND applied eagerly: the backend switch is process
      // global and must land before any sweep warms kernel caches.
      detail::apply_kernel_backend(opts.kernel_backend, argv[0]);
    } else if (const char* v12 = value_of(i, "--shard-queue")) {
      opts.shard_queue = v12;
      if (opts.shard_queue.empty()) {
        std::fprintf(stderr, "%s: --shard-queue needs a directory\n",
                     argv[0]);
        std::exit(2);
      }
    } else if (const char* v13 = value_of(i, "--shards")) {
      opts.shards = detail::require_size("--shards", v13, argv[0]);
      if (opts.shards == 0) {
        std::fprintf(stderr, "%s: --shards needs at least 1 shard\n",
                     argv[0]);
        std::exit(2);
      }
    } else if (const char* v14 = value_of(i, "--shard")) {
      const std::optional<sim::ShardPlan> plan =
          sim::ShardPlan::parse(v14 != nullptr ? v14 : "");
      if (!plan.has_value()) {
        std::fprintf(stderr,
                     "%s: invalid value for --shard: '%s' (expected I/N "
                     "with base-10 I < N, e.g. 0/3)\n",
                     argv[0], v14 != nullptr ? v14 : "");
        std::exit(2);
      }
      opts.shard = *plan;
    } else if (const char* v15 = value_of(i, "--merge")) {
      opts.merge = v15;
      if (opts.merge.empty()) {
        std::fprintf(stderr, "%s: --merge needs a journal base path\n",
                     argv[0]);
        std::exit(2);
      }
    } else if (const char* v16 = value_of(i, "--lease-ttl-s")) {
      opts.lease_ttl_s = detail::require_f64("--lease-ttl-s", v16, argv[0]);
      if (opts.lease_ttl_s <= 0.0) {
        std::fprintf(stderr, "%s: --lease-ttl-s needs a positive TTL\n",
                     argv[0]);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--watch") == 0) {
      opts.watch = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--trials N] [--seed S]\n"
                   "          [--scenario NAME] [--controller NAME]\n"
                   "          [--faults NAME] [--kernel-backend B]\n"
                   "          [--json-out FILE]\n"
                   "          [--resume BASE] [--trial-retries N]\n"
                   "          [--trial-timeout-s X] [--freeze-timing]\n"
                   "          [--shard I/N | --shard-queue DIR "
                   "[--shards N] [--lease-ttl-s X]]\n"
                   "          [--merge BASE [--watch]]\n"
                   "          [--list]%s%s\n"
                   "unknown argument: %s\n",
                   argv[0], extra_usage != nullptr ? "\n" : "",
                   extra_usage != nullptr ? extra_usage : "", argv[i]);
      std::exit(2);
    }
  }
  // Distributed-flag constraints: one role per invocation.
  if (opts.shard.enabled() && !opts.shard_queue.empty()) {
    std::fprintf(stderr,
                 "%s: --shard and --shard-queue are mutually exclusive "
                 "(name the shard or claim it from the queue, not both)\n",
                 argv[0]);
    std::exit(2);
  }
  if (opts.shards > 0 && opts.shard_queue.empty()) {
    std::fprintf(stderr, "%s: --shards requires --shard-queue DIR\n",
                 argv[0]);
    std::exit(2);
  }
  if (!opts.merge.empty() &&
      (opts.shard.enabled() || !opts.shard_queue.empty() ||
       !opts.resume.empty())) {
    std::fprintf(stderr,
                 "%s: --merge is a standalone role; it cannot be combined "
                 "with --shard, --shard-queue, or --resume\n",
                 argv[0]);
    std::exit(2);
  }
  if ((opts.shard.enabled() || !opts.shard_queue.empty()) &&
      opts.resume.empty()) {
    std::fprintf(stderr,
                 "%s: --shard/--shard-queue require --resume BASE (the "
                 "shard journal is the worker's output)\n",
                 argv[0]);
    std::exit(2);
  }
  if (opts.lease_ttl_s > 0.0 && opts.shard_queue.empty()) {
    std::fprintf(stderr,
                 "%s: --lease-ttl-s requires --shard-queue DIR (leases "
                 "only exist on queue-claimed shards)\n",
                 argv[0]);
    std::exit(2);
  }
  if (opts.watch && opts.merge.empty()) {
    std::fprintf(stderr, "%s: --watch requires --merge BASE\n", argv[0]);
    std::exit(2);
  }
  // Claim a shard from the queue (once per process: every campaign this
  // bench runs uses the same claimed shard), then start the heartbeat
  // that keeps the claim's lease fresh until the process exits.
  if (!opts.shard_queue.empty()) {
    sim::LeaseOptions lease_opts;
    if (opts.lease_ttl_s > 0.0) lease_opts.ttl_s = opts.lease_ttl_s;
    try {
      if (opts.shards > 0) {
        sim::ShardQueue::init(opts.shard_queue, opts.shards);
      }
      const std::optional<sim::ShardPlan> claimed =
          sim::ShardQueue::claim(opts.shard_queue, lease_opts);
      if (!claimed.has_value()) {
        std::fprintf(stderr,
                     "%s: shard queue '%s' has no unclaimed shards; "
                     "nothing to do\n",
                     argv[0], opts.shard_queue.c_str());
        std::exit(0);
      }
      opts.shard = *claimed;
      opts.lease_keeper = std::make_shared<sim::ShardLeaseKeeper>(
          opts.shard_queue, opts.shard, lease_opts);
      std::fprintf(stderr, "%s: claimed %s from '%s'\n", argv[0],
                   opts.shard.suffix().c_str(), opts.shard_queue.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: shard queue error: %s\n", argv[0],
                   e.what());
      std::exit(2);
    }
  }
  return opts;
}

inline SweepCliOptions parse_sweep_cli(int argc, char** argv) {
  return parse_sweep_cli(argc, argv, nullptr, nullptr);
}

/// Apply the CLI's registry/jobs overrides onto a bench's default spec.
/// trials/seed are NOT applied here -- their meaning varies per bench
/// (repetitions per scheme, scheme-matrix width, ...), so benches resolve
/// them explicitly from the options.
inline void apply_cli(const SweepCliOptions& opts, sim::ExperimentSpec& spec) {
  spec.jobs = opts.jobs;
  if (!opts.scenario.empty()) spec.scenario.name = opts.scenario;
  if (!opts.controller.empty()) spec.controller.name = opts.controller;
  if (!opts.faults.empty()) spec.run.faults = sim::fault_preset(opts.faults);
}

/// Run one engine campaign under the CLI's durability options.
///
/// --json-out: the record goes through a JsonOutFile, so several
/// campaigns in one process keep appending and a crash mid-campaign
/// leaves the previous file intact.
///
/// --resume: opens (or creates) the campaign's fingerprint-keyed journal,
/// replays completed trials, runs only the missing ones, and checkpoints
/// each newly completed trial. A journal from a different campaign
/// exits(2); campaigns that record per-tick samples cannot resume and
/// exit(2) with an explanation.
///
/// --shard I/N: like --resume, but into the shard's own journal
/// (BASE.<campaign>.shard-I-of-N.journal) and running only the owned
/// trials. record_samples is forced off (per-tick samples cannot be
/// journaled; the JSON record never contained them, so its bytes are
/// unchanged).
///
/// --merge BASE: discover + validate the campaign's shard journals, write
/// the merged unsharded journal, then replay it through the engine --
/// journaled trials restore bit-exactly, missing ones re-run live under
/// the same retry/timeout flags (deterministic failures re-quarantine
/// identically). Invalid shard sets exit(2) naming the offending field.
inline sim::EngineResult run_campaign(sim::ExperimentSpec spec,
                                      const SweepCliOptions& opts) {
  apply_cli(opts, spec);
  sim::EngineOptions eng_opts;
  eng_opts.trial_retries = opts.trial_retries;
  eng_opts.trial_timeout_s = opts.trial_timeout_s;
  eng_opts.freeze_timing = opts.freeze_timing;
  // Distributed roles journal every trial, and journals cannot replay
  // per-tick samples. Dropping them does not change the JSON record
  // (JsonLinesSink only reads samples in per-tick mode), so the merged
  // output stays byte-identical to the 1-process run. Forced BEFORE
  // campaign_key: record_samples is fingerprinted, and worker and merger
  // must agree on it.
  if (distributed_mode(opts)) spec.record_samples = false;
  std::unique_ptr<sim::CampaignJournal> journal;
  if (!opts.merge.empty()) {
    const std::string merged = detail::journal_path(opts.merge, spec.name);
    std::vector<std::string> shard_paths;
    try {
      // --watch waits for the fleet: poll until every shard journal exists
      // and carries an intact seal, then merge the finished set.
      shard_paths = opts.watch ? detail::watch_shard_journals(merged, spec.name)
                               : sim::discover_shard_journals(merged);
    } catch (const IoError& e) {
      std::fprintf(stderr,
                   "cannot list the shard journals of campaign '%s': %s\n",
                   spec.name.c_str(), e.what());
      std::exit(2);
    }
    if (shard_paths.empty()) {
      std::fprintf(stderr,
                   "no shard journals found for campaign '%s' under base "
                   "'%s' (expected %s)\n",
                   spec.name.c_str(), opts.merge.c_str(),
                   detail::shard_journal_path(opts.merge, spec.name,
                                              sim::ShardPlan{0, 1})
                       .c_str());
      std::exit(2);
    }
    try {
      const sim::MergeStats stats =
          sim::merge_journals(shard_paths, merged, sim::campaign_key(spec));
      std::fprintf(stderr,
                   "merged %zu shard journals for campaign '%s': %zu "
                   "trials checkpointed, %zu to re-run\n",
                   stats.shard_count, spec.name.c_str(),
                   stats.merged_trials, stats.missing_trials);
      journal = std::make_unique<sim::CampaignJournal>(
          merged, sim::campaign_key(spec));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot merge shard journals for campaign "
                   "'%s': %s\n",
                   spec.name.c_str(), e.what());
      std::exit(2);
    }
    eng_opts.journal = journal.get();
  } else if (!opts.resume.empty()) {
    if (spec.record_samples) {
      std::fprintf(stderr,
                   "--resume is not supported for campaign '%s': it records "
                   "per-tick samples, which the journal does not replay\n",
                   spec.name.c_str());
      std::exit(2);
    }
    const std::string path =
        opts.shard.enabled()
            ? detail::shard_journal_path(opts.resume, spec.name, opts.shard)
            : detail::journal_path(opts.resume, spec.name);
    try {
      journal = std::make_unique<sim::CampaignJournal>(
          path, sim::campaign_key(spec), opts.shard);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot resume from journal %s: %s\n",
                   path.c_str(), e.what());
      std::exit(2);
    }
    eng_opts.journal = journal.get();
    eng_opts.shard = opts.shard;
  }
  sim::Engine engine;
  if (opts.json_out.empty()) return engine.run(spec, nullptr, eng_opts);
  JsonOutFile file(opts.json_out);
  sim::JsonLinesSink file_sink(file.stream());
  sim::EngineResult result = engine.run(spec, &file_sink, eng_opts);
  file.commit();
  return result;
}

/// Emit a campaign's JSON record to stdout (the bench's final line).
inline void emit_json(const std::string& name, const sim::EngineResult& r) {
  sim::JsonLinesSink sink(std::cout);
  sim::SweepRecord record;
  record.name = name;
  record.trials = r.trials;
  record.timing = r.timing;
  record.labels = r.labels;
  record.failures = r.failures;
  sink.on_sweep(record);
}

/// Stderr progress note for a distributed role (shard worker / merger).
/// The JSON record still goes through emit_json / --json-out as usual;
/// only the human-readable figure reporting is skipped in distributed
/// mode (it would read per-tick samples, which workers do not record).
inline void emit_distributed(const SweepCliOptions& opts,
                             const std::string& name,
                             const sim::EngineResult& r) {
  if (opts.shard.enabled()) {
    std::fprintf(stderr,
                 "%s: %s done: %zu trials owned (%zu replayed from the "
                 "journal), %zu skipped (other shards)\n",
                 name.c_str(), opts.shard.suffix().c_str(),
                 r.trials.size() - r.skipped_trials, r.replayed_trials,
                 r.skipped_trials);
  } else if (!opts.merge.empty()) {
    std::fprintf(stderr,
                 "%s: merge done: %zu trials (%zu replayed from shard "
                 "journals, %zu re-run), %zu failures\n",
                 name.c_str(), r.trials.size(), r.replayed_trials,
                 r.trials.size() - r.replayed_trials, r.failures.size());
  }
}

}  // namespace mmr::bench