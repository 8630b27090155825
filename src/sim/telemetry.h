// Pluggable telemetry for the experiment pipeline.
//
// A TelemetrySink observes a link experiment at three granularities:
//   * per-tick LinkSample events while run_experiment scores a link,
//   * a run-level LinkSummary when one controller run finishes,
//   * a sweep-level record (per-trial summaries + timing + labels) when a
//     whole Engine campaign completes.
// Built-in sinks: MemorySink (in-process capture) and JsonLinesSink (the
// benches' one-line JSON record, byte-compatible with write_sweep_json).
// A caller that wants no telemetry passes a null sink pointer.
//
// Ordering contract: sinks are driven from ONE thread. When the Engine
// fans trials across workers it buffers per-trial events and replays them
// to the sink in trial-index order after the sweep barrier, so sink output
// is deterministic and independent of the worker schedule.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/events.h"
#include "core/metrics.h"
#include "sim/sweep.h"

namespace mmr::sim {

struct RunConfig;

/// One periodic snapshot of a live streaming run (sim/streaming.h), as
/// delivered to TelemetrySink::on_snapshot: the merged shard accumulators
/// projected to scalars at a snapshot boundary. POD by design -- a
/// snapshot is copied by value without allocating.
struct StreamSnapshot {
  /// Shared-timeline time of the snapshot boundary [s].
  double t_s = 0.0;
  /// Snapshot ordinal (0-based, monotonically increasing as emitted).
  std::uint64_t index = 0;
  /// Live sessions at the boundary and cumulative joins/leaves.
  std::uint64_t live_sessions = 0;
  std::uint64_t total_joined = 0;
  std::uint64_t total_left = 0;
  /// Session-ticks scored this window / since the run began.
  std::uint64_t window_ticks = 0;
  std::uint64_t total_ticks = 0;
  /// Scored session-ticks per wall second over the window (0 when the
  /// service runs with freeze_timing -- byte-stable output).
  double session_ticks_per_s = 0.0;
  /// Availability = usable / ticks (window and cumulative).
  double window_availability = 0.0;
  double availability = 0.0;
  std::uint64_t outage_ticks = 0;
  /// Cumulative SINR moments and P² quantile estimates [dB] over the
  /// session-ticks with signal (LinkSample::has_signal); 0 until one.
  double snr_mean_db = 0.0;
  double snr_stddev_db = 0.0;
  double snr_p50_db = 0.0;
  double snr_p99_db = 0.0;
  double snr_p999_db = 0.0;
  /// Cumulative throughput moments and P² quantile estimates [bit/s].
  double tput_mean_bps = 0.0;
  double tput_stddev_bps = 0.0;
  double tput_p50_bps = 0.0;
  double tput_p99_bps = 0.0;
  double tput_p999_bps = 0.0;
  /// Always 0: the service delivers every snapshot inline and sheds none.
  /// Kept because the snapshot JSON prints it as "dropped" and perfbench's
  /// stream_churn compares it.
  std::uint64_t dropped = 0;
};

/// One completed sweep campaign, as delivered to TelemetrySink::on_sweep.
struct SweepRecord {
  std::string name;
  std::span<const SweepTrial<core::LinkSummary>> trials;
  SweepTiming timing;
  /// One label per trial, or empty when the campaign does not tag trials.
  std::span<const std::string> labels;
  /// Quarantined / watchdog-flagged trials (durable campaigns only;
  /// empty when every trial succeeded in time).
  std::span<const TrialFailure> failures;
};

class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;

  /// A controller run is starting under `config`.
  virtual void on_run_begin(const RunConfig& config) { (void)config; }
  /// One scored tick of the active run.
  virtual void on_sample(const core::LinkSample& sample) { (void)sample; }
  /// An injected fault or controller degradation during the active run
  /// (only emitted when the run's FaultPlan is enabled).
  virtual void on_fault(const core::FaultEvent& event) { (void)event; }
  /// A UE session switched serving cells during the active network run
  /// (only emitted by net-layer campaigns with handover enabled).
  virtual void on_handover(const core::HandoverEvent& event) { (void)event; }
  /// The active trial was quarantined after exhausting its retry budget,
  /// or flagged by the wall-clock watchdog (durable campaigns only;
  /// delivered before the trial's on_run_end, in trial-index order).
  virtual void on_trial_failure(const TrialFailure& failure) {
    (void)failure;
  }
  /// A periodic snapshot of a live streaming run (sim/streaming.h). Like
  /// every other event, delivered from ONE thread -- the service's
  /// orchestrator thread -- in emission order.
  virtual void on_snapshot(const StreamSnapshot& snapshot) {
    (void)snapshot;
  }
  /// The active run finished with this summary.
  virtual void on_run_end(const core::LinkSummary& summary) { (void)summary; }
  /// A whole sweep campaign finished (one record per Engine::run).
  virtual void on_sweep(const SweepRecord& record) { (void)record; }
};

/// Captures everything in memory: per-run sample series and summaries in
/// the order the runs were delivered, plus the last sweep record's
/// aggregate inputs. Replaces the benches' bespoke trace capture.
class MemorySink final : public TelemetrySink {
 public:
  void on_run_begin(const RunConfig& config) override;
  void on_sample(const core::LinkSample& sample) override;
  void on_fault(const core::FaultEvent& event) override;
  void on_handover(const core::HandoverEvent& event) override;
  void on_trial_failure(const TrialFailure& failure) override;
  void on_snapshot(const StreamSnapshot& snapshot) override;
  void on_run_end(const core::LinkSummary& summary) override;
  void on_sweep(const SweepRecord& record) override;

  /// Sample series of run r (in delivery order).
  const std::vector<std::vector<core::LinkSample>>& runs() const {
    return runs_;
  }
  /// Fault events of run r (parallel to runs()).
  const std::vector<std::vector<core::FaultEvent>>& faults() const {
    return faults_;
  }
  /// Handover events of run r (parallel to runs()).
  const std::vector<std::vector<core::HandoverEvent>>& handovers() const {
    return handovers_;
  }
  const std::vector<core::LinkSummary>& summaries() const {
    return summaries_;
  }
  /// Trial failures in delivery order (durable campaigns only).
  const std::vector<TrialFailure>& trial_failures() const {
    return trial_failures_;
  }
  /// Streaming snapshots in delivery order.
  const std::vector<StreamSnapshot>& snapshots() const { return snapshots_; }
  std::size_t num_sweeps() const { return num_sweeps_; }

 private:
  std::vector<std::vector<core::LinkSample>> runs_;
  std::vector<std::vector<core::FaultEvent>> faults_;
  std::vector<std::vector<core::HandoverEvent>> handovers_;
  std::vector<core::LinkSummary> summaries_;
  std::vector<TrialFailure> trial_failures_;
  std::vector<StreamSnapshot> snapshots_;
  std::size_t num_sweeps_ = 0;
};

/// Emits one JSON line per sweep record -- the exact bytes
/// write_sweep_json produces, so ported benches keep their machine-read
/// output stable. Optionally also emits per-tick sample records
/// (JSON-lines) for full-resolution traces. Fault events are always
/// emitted as their own JSON lines ({"fault": "...", ...}); a no-fault
/// run produces none, keeping its byte stream unchanged. Trial failures
/// appear as {"trial_failure": {...}} lines.
///
/// Durability contract: with the default `flush_every_n = 1` the sink
/// flushes the stream after EVERY record it writes (sample, fault, trial
/// failure, snapshot, sweep), so a process killed at an arbitrary
/// instruction loses at most the one record being written -- never
/// previously delivered lines sitting in a stream buffer. (Flushing
/// pushes bytes to the OS; callers that need power-loss durability should
/// write through common::AtomicFile or fsync the underlying file, as the
/// bench CLI's --json-out and the CampaignJournal do.)
///
/// At streaming snapshot rates unconditional flushing dominates sink
/// cost; `flush_every_n = N > 1` amortizes it to one flush per N records
/// (at most N records lost on a kill). `flush_every_n = 0` never flushes
/// mid-stream (the destructor-driven stream flush still applies).
/// Campaigns keep the durable default.
class JsonLinesSink final : public TelemetrySink {
 public:
  explicit JsonLinesSink(std::ostream& os, bool per_tick = false,
                         std::size_t flush_every_n = 1)
      : os_(os), per_tick_(per_tick), flush_every_n_(flush_every_n) {}

  void on_sample(const core::LinkSample& sample) override;
  void on_fault(const core::FaultEvent& event) override;
  void on_handover(const core::HandoverEvent& event) override;
  void on_trial_failure(const TrialFailure& failure) override;
  void on_snapshot(const StreamSnapshot& snapshot) override;
  void on_sweep(const SweepRecord& record) override;

 private:
  /// One record was written: flush per the flush_every_n policy.
  void record_written();

  std::ostream& os_;
  bool per_tick_ = false;
  std::size_t flush_every_n_ = 1;
  std::size_t records_since_flush_ = 0;
};

}  // namespace mmr::sim
