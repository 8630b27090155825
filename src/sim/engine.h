// Registry-driven experiment engine.
//
// The benches all share one shape -- build a world from a named scenario,
// build a controller from a named scheme, sweep trials deterministically,
// aggregate, emit one JSON record -- but each used to hand-roll it. The
// engine makes that shape declarative: an ExperimentSpec names a
// registered scenario and controller (sim/registry.h), adds the RunConfig
// and sweep shape (trials/jobs/seed), and Engine::run() evaluates it on
// the deterministic SweepRunner, streaming results to a TelemetrySink.
// A spec with a `network` layout runs each trial as a multi-cell
// net::Network built from the same scenario, controller and run, through
// the same sweep, journal, retry, watchdog and shard machinery.
//
// Determinism contract (inherited from sim/sweep.h): for a fixed
// ExperimentSpec, jobs=K is bit-identical to jobs=1; sink events are
// replayed in trial-index order after the sweep barrier.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/registry.h"
#include "sim/runner.h"
#include "sim/shard.h"
#include "sim/sweep.h"

namespace mmr::sim {

class CampaignJournal;
class TelemetrySink;

/// How each trial's world seed is derived.
enum class SeedPolicy {
  /// scenario.config.seed = Rng::derive_stream_seed(seed, trial index):
  /// independent Monte-Carlo draws (the usual sweep).
  kPerTrialStream,
  /// Every trial keeps scenario.config.seed as authored (typically set by
  /// `customize`) -- for paired comparisons and ablation matrices.
  kFixed,
};

/// One declarative experiment campaign.
struct ExperimentSpec {
  std::string name;  ///< bench name in the emitted JSON record
  ScenarioSpec scenario;
  ControllerSpec controller;
  RunConfig run;

  std::size_t trials = 1;
  std::size_t jobs = 1;
  std::uint64_t seed = 1;
  SeedPolicy seed_policy = SeedPolicy::kPerTrialStream;

  /// Keep per-tick samples (and replay them to the sink). Off by default:
  /// big sweeps only need summaries.
  bool record_samples = false;

  /// Per-trial hook, run after the seed policy: mutate the copied specs
  /// for this trial (scheme matrices, randomized blockers, ...). Must be
  /// a pure function of the TrialContext for determinism.
  std::function<void(const TrialContext& ctx, ScenarioSpec& scenario,
                     ControllerSpec& controller, RunConfig& run)>
      customize;
  /// Optional per-trial label for the JSON record.
  std::function<std::string(const TrialContext& ctx)> label;

  /// When set, every trial is a multi-cell network: this layout plus the
  /// trial's scenario, controller and run (after the seed policy and
  /// `customize`) as the per-link template, seeded from
  /// scenario.config.seed. The trial's summary is the network aggregate.
  /// Cannot record per-tick samples.
  std::optional<net::NetworkLayout> network;
};

/// Durable-execution knobs for Engine::run. The defaults reproduce the
/// plain (non-durable) engine exactly: no journal, a throwing trial
/// aborts the sweep, no watchdog, live timing.
struct EngineOptions {
  /// Checkpoint journal (sim/journal.h). Trials found in
  /// journal->completed() are REPLAYED -- summary, wall/cpu time, label,
  /// fault events and a network trial's links and handovers restored
  /// bit-exactly, the trial body never runs --
  /// and every freshly completed trial is appended + fsync'd. Replay of
  /// per-tick samples is not supported: combining a journal with
  /// spec.record_samples throws (MMR_EXPECTS).
  CampaignJournal* journal = nullptr;
  /// Extra attempts for a trial whose body throws, each re-run from the
  /// same deterministic Rng stream (a retry of a deterministic failure
  /// fails again; the budget exists for environmental flakes). When the
  /// budget is exhausted the trial is QUARANTINED: it keeps its slot with
  /// a default LinkSummary, is excluded from the aggregate, and appears
  /// as a TrialFailure in the result / telemetry / sweep JSON instead of
  /// killing the sweep.
  std::size_t trial_retries = 0;
  /// Wall-clock watchdog [s]; 0 disables. A trial running longer is
  /// flagged (stderr warning from the watchdog thread the moment the
  /// deadline passes, plus a timed_out TrialFailure entry) but NOT
  /// killed: results of late trials are kept.
  double trial_timeout_s = 0.0;
  /// Zero every timing field (per-trial wall/cpu, sweep wall /
  /// serial-equivalent) so the JSON record and the journal's trial lines
  /// are a pure function of (spec, seed) -- the mode the crash/resume
  /// byte-identity tests and any diff-based tooling run under.
  bool freeze_timing = false;
  /// Distributed sharding (sim/shard.h): when enabled, trials this worker
  /// does not own are SKIPPED -- no world build, no journal record, no
  /// failure slot; they keep default summaries and count in
  /// EngineResult::skipped_trials. Because trial randomness derives
  /// purely from (base_seed, index), skipping cannot perturb the owned
  /// trials' Rng streams: shard k's trial j is bit-identical to the
  /// 1-process trial j. Requires !spec.record_samples (a shard's sample
  /// table would be full of holes) and, when a journal is attached, the
  /// journal's shard plan must equal this one (MMR_EXPECTS).
  ShardPlan shard;
};

/// Everything Engine::run produces.
struct EngineResult {
  std::vector<SweepTrial<core::LinkSummary>> trials;
  /// Per-trial sample series; empty unless spec.record_samples.
  std::vector<std::vector<core::LinkSample>> samples;
  /// Per-trial fault events (empty vectors when the trial's FaultPlan is
  /// disabled); one entry per trial. A network trial keeps its faults per
  /// link in `networks` and leaves its entry here empty.
  std::vector<std::vector<core::FaultEvent>> fault_events;
  /// Per-trial network outcomes (per-link reports and handovers); empty
  /// unless spec.network is set.
  std::vector<net::NetworkResult> networks;
  /// Per-trial labels; empty unless spec.label is set.
  std::vector<std::string> labels;
  /// Quarantined / watchdog-flagged trials in index order (durable mode
  /// only; empty means every trial succeeded in time).
  std::vector<TrialFailure> failures;
  /// Trials replayed from the journal instead of executed.
  std::size_t replayed_trials = 0;
  /// Trials skipped because another shard owns them (sharded runs only;
  /// their slots hold default summaries).
  std::size_t skipped_trials = 0;
  SweepTiming timing;
  SweepSummary aggregate;
};

/// Evaluates ExperimentSpecs over the deterministic sweep runner.
class Engine {
 public:
  /// Run the campaign. When `sink` is non-null it receives, after the
  /// sweep barrier and in trial-index order: per-trial run events
  /// (on_run_begin/on_sample... when record_samples, then any on_fault
  /// events -- a network trial's link by link -- then a network trial's
  /// on_handover events, then on_trial_failure for a quarantined/flagged
  /// trial, then on_run_end) followed by one on_sweep record.
  ///
  /// Fault seeding: when spec.run.faults is enabled and its seed is left
  /// at 0 after `customize`, each link trial derives an independent fault
  /// stream via Rng::derive_stream_seed(ctx.stream_seed, kFaultSeedStream)
  /// so fault draws are decoupled from the world's randomness and stable
  /// across jobs counts. A network trial leaves the seed to the network,
  /// whose link 0 derives the same stream and links k > 0 their own.
  EngineResult run(const ExperimentSpec& spec, TelemetrySink* sink = nullptr);

  /// Durable variant: checkpoint/resume via options.journal, per-trial
  /// retry/quarantine, wall-clock watchdog, frozen timing. With
  /// default-constructed options this is exactly the plain overload.
  EngineResult run(const ExperimentSpec& spec, TelemetrySink* sink,
                   const EngineOptions& options);
};

/// Emit a network campaign's record as one JSON line (fixed precision 10,
/// keys in fixed order -- byte-stable for identical results): campaign
/// shape, aggregate means (availability from the state-machine ledger,
/// reliability/throughput from the sweep aggregate, total handovers), and
/// 21-point percentile CDFs (p0, p5, ..., p100) over every (trial, link)
/// pair for availability, reliability, and throughput. Requires
/// spec.network and one network outcome per trial.
void write_network_json(std::ostream& os, const ExperimentSpec& spec,
                        const EngineResult& result);

}  // namespace mmr::sim
