// Registry-driven experiment engine.
//
// The benches all share one shape -- build a world from a named scenario,
// build a controller from a named scheme, sweep trials deterministically,
// aggregate, emit one JSON record -- but each used to hand-roll it. The
// engine makes that shape declarative:
//
//   * ScenarioRegistry maps a name ("indoor", "indoor_sparse", "outdoor",
//     "indoor_poor") + a ScenarioSpec to a LinkWorld;
//   * ControllerRegistry maps a name ("mmreliable", "delay_multibeam",
//     "reactive", "single_frozen", "beamspy", "widebeam", "oracle",
//     "mmreliable_ablation") + a ControllerSpec to a BeamController;
//   * ExperimentSpec names both, adds the RunConfig and sweep shape
//     (trials/jobs/seed), and Engine::run() evaluates it on the
//     deterministic SweepRunner, streaming results to a TelemetrySink.
//
// Determinism contract (inherited from sim/sweep.h): for a fixed
// ExperimentSpec, jobs=K is bit-identical to jobs=1; sink events are
// replayed in trial-index order after the sweep barrier.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/controller_base.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/shard.h"
#include "sim/sweep.h"
#include "sim/world.h"

namespace mmr::sim {

class CampaignJournal;
class TelemetrySink;

/// A walking blocker crossing the scenario's link line.
struct BlockerSpec {
  double crossing_time_s = 0.5;
  double speed_mps = 1.0;
  double depth_db = 26.0;
};

/// Declarative scenario: a registered name plus every knob the built-in
/// world factories expose. Fields a given scenario does not use are
/// ignored (e.g. link_distance_m indoors, ue_rotation outdoors).
struct ScenarioSpec {
  std::string name = "indoor";
  ScenarioConfig config;

  // Indoor knobs (make_indoor_world).
  channel::Vec2 ue_velocity{0.0, 0.0};
  double ue_rotation_rate_rad_s = 0.0;
  channel::Vec2 ue_start{7.0, 6.2};

  // Outdoor knobs (make_outdoor_world).
  double link_distance_m = 40.0;

  // indoor_poor knobs: a reflection-poor wooden room; an IRS panel is
  // deployed when irs_gain_db > 0 (Section 8 future work).
  double irs_gain_db = 0.0;
  channel::Vec2 irs_position{3.75, 5.0};

  /// Crossing blockers added after world construction, in order.
  std::vector<BlockerSpec> blockers;
};

/// Declarative controller: a registered name plus the shared knobs the
/// built-in factories consume.
struct ControllerSpec {
  std::string name = "mmreliable";
  std::size_t max_beams = 2;
  // mmreliable_ablation only (Fig. 17c): stage toggles.
  bool enable_tracking = true;
  bool enable_cc_refresh = true;
};

/// String-keyed factory registry: make() builds a Product from the
/// factory registered under spec.name, passing it the Context arguments
/// and the spec. Unknown names throw std::invalid_argument whose message
/// lists every registered name.
template <typename Product, typename Spec, typename... Context>
class Registry {
 public:
  using Factory = std::function<Product(const Context&..., const Spec&)>;

  /// Process-wide registry, pre-populated with the built-in factories.
  static Registry& instance();

  void add(const std::string& name, Factory factory);
  bool contains(const std::string& name) const;
  /// Registered names in lexicographic order.
  std::vector<std::string> names() const;
  /// The factory registered under `name` (throws if there is none).
  const Factory& at(const std::string& name) const;
  Product make(const Context&... context, const Spec& spec) const {
    return at(spec.name)(context..., spec);
  }

 private:
  /// What the registry builds ("scenario", "controller"): the error text.
  explicit Registry(const char* kind) : kind_(kind) {}

  const char* kind_;
  std::map<std::string, Factory> factories_;
};

/// Scenario name -> LinkWorld.
using ScenarioRegistry = Registry<LinkWorld, ScenarioSpec>;
/// Controller name -> BeamController. The world reference passed to make()
/// must outlive the returned controller (factories derive outage
/// thresholds from it, and the oracle holds a reference).
using ControllerRegistry =
    Registry<std::unique_ptr<core::BeamController>, ControllerSpec,
             LinkWorld, ScenarioConfig>;

template <>
ScenarioRegistry& ScenarioRegistry::instance();
template <>
ControllerRegistry& ControllerRegistry::instance();

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
};

/// Durable-execution knobs for Engine::run. The defaults reproduce the
/// plain (non-durable) engine exactly: no journal, a throwing trial
/// aborts the sweep, no watchdog, live timing.
struct EngineOptions {
  /// Checkpoint journal (sim/journal.h). Trials found in
  /// journal->completed() are REPLAYED -- summary, wall/cpu time, label,
  /// and fault events restored bit-exactly, the trial body never runs --
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
  /// disabled); one entry per trial.
  std::vector<std::vector<core::FaultEvent>> fault_events;
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
  /// events, then on_trial_failure for a quarantined/flagged trial, then
  /// on_run_end) followed by one on_sweep record.
  ///
  /// Fault seeding: when spec.run.faults is enabled and its seed is left
  /// at 0 after `customize`, each trial derives an independent fault
  /// stream via Rng::derive_stream_seed(ctx.stream_seed, kFaultSeedStream)
  /// so fault draws are decoupled from the world's randomness and stable
  /// across jobs counts.
  EngineResult run(const ExperimentSpec& spec, TelemetrySink* sink = nullptr);

  /// Durable variant: checkpoint/resume via options.journal, per-trial
  /// retry/quarantine, wall-clock watchdog, frozen timing. With
  /// default-constructed options this is exactly the plain overload.
  EngineResult run(const ExperimentSpec& spec, TelemetrySink* sink,
                   const EngineOptions& options);
};

}  // namespace mmr::sim
