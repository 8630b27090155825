#include "sim/telemetry.h"

#include "sim/runner.h"

namespace mmr::sim {

void MemorySink::on_run_begin(const RunConfig& /*config*/) {
  runs_.emplace_back();
  faults_.emplace_back();
  handovers_.emplace_back();
}

void MemorySink::on_sample(const core::LinkSample& sample) {
  // Tolerate callers that emit samples without a preceding on_run_begin
  // (e.g. hand-driven loops): open an implicit run.
  if (runs_.empty()) {
    runs_.emplace_back();
    faults_.emplace_back();
    handovers_.emplace_back();
  }
  runs_.back().push_back(sample);
}

void MemorySink::on_fault(const core::FaultEvent& event) {
  if (faults_.empty()) {
    runs_.emplace_back();
    faults_.emplace_back();
    handovers_.emplace_back();
  }
  faults_.back().push_back(event);
}

void MemorySink::on_handover(const core::HandoverEvent& event) {
  if (handovers_.empty()) {
    runs_.emplace_back();
    faults_.emplace_back();
    handovers_.emplace_back();
  }
  handovers_.back().push_back(event);
}

void MemorySink::on_trial_failure(const TrialFailure& failure) {
  trial_failures_.push_back(failure);
}

void MemorySink::on_snapshot(const StreamSnapshot& snapshot) {
  snapshots_.push_back(snapshot);
}

void MemorySink::on_run_end(const core::LinkSummary& summary) {
  summaries_.push_back(summary);
}

void MemorySink::on_sweep(const SweepRecord& /*record*/) { ++num_sweeps_; }

void JsonLinesSink::record_written() {
  if (flush_every_n_ == 0) return;  // never flush mid-stream
  if (++records_since_flush_ >= flush_every_n_) {
    // Durability contract: at most flush_every_n records lost on a kill
    // (one, with the default policy).
    os_.flush();
    records_since_flush_ = 0;
  }
}

void JsonLinesSink::on_snapshot(const StreamSnapshot& s) {
  const auto flags = os_.flags();
  const auto precision = os_.precision();
  os_.precision(10);
  os_ << "{\"snapshot\": {\"index\": " << s.index << ", \"t_s\": " << s.t_s
      << ", \"live_sessions\": " << s.live_sessions
      << ", \"total_joined\": " << s.total_joined
      << ", \"total_left\": " << s.total_left
      << ", \"window_ticks\": " << s.window_ticks
      << ", \"total_ticks\": " << s.total_ticks
      << ", \"session_ticks_per_s\": " << s.session_ticks_per_s
      << ", \"window_availability\": " << s.window_availability
      << ", \"availability\": " << s.availability
      << ", \"outage_ticks\": " << s.outage_ticks
      << ", \"snr_mean_db\": " << s.snr_mean_db
      << ", \"snr_stddev_db\": " << s.snr_stddev_db
      << ", \"snr_p50_db\": " << s.snr_p50_db
      << ", \"snr_p99_db\": " << s.snr_p99_db
      << ", \"snr_p999_db\": " << s.snr_p999_db
      << ", \"tput_mean_bps\": " << s.tput_mean_bps
      << ", \"tput_stddev_bps\": " << s.tput_stddev_bps
      << ", \"tput_p50_bps\": " << s.tput_p50_bps
      << ", \"tput_p99_bps\": " << s.tput_p99_bps
      << ", \"tput_p999_bps\": " << s.tput_p999_bps
      << ", \"dropped\": " << s.dropped << "}}\n";
  os_.flags(flags);
  os_.precision(precision);
  record_written();
}

void JsonLinesSink::on_sample(const core::LinkSample& sample) {
  if (!per_tick_) return;
  const auto flags = os_.flags();
  const auto precision = os_.precision();
  os_.precision(10);
  os_ << "{\"t_s\": " << sample.t_s << ", \"snr_db\": " << sample.snr_db
      << ", \"throughput_bps\": " << sample.throughput_bps
      << ", \"available\": " << (sample.available ? "true" : "false")
      << "}\n";
  os_.flags(flags);
  os_.precision(precision);
  record_written();
}

void JsonLinesSink::on_fault(const core::FaultEvent& event) {
  const auto flags = os_.flags();
  const auto precision = os_.precision();
  os_.precision(10);
  os_ << "{\"fault\": \"" << core::to_string(event.kind)
      << "\", \"t_s\": " << event.t_s;
  if (event.beam != core::kNoBeam) os_ << ", \"beam\": " << event.beam;
  os_ << ", \"value\": " << event.value << "}\n";
  os_.flags(flags);
  os_.precision(precision);
  record_written();
}

void JsonLinesSink::on_handover(const core::HandoverEvent& event) {
  const auto flags = os_.flags();
  const auto precision = os_.precision();
  os_.precision(10);
  os_ << "{\"handover\": {\"t_s\": " << event.t_s
      << ", \"link\": " << event.link
      << ", \"from_cell\": " << event.from_cell
      << ", \"to_cell\": " << event.to_cell
      << ", \"rsrp_from_db\": " << event.rsrp_from_db
      << ", \"rsrp_to_db\": " << event.rsrp_to_db << "}}\n";
  os_.flags(flags);
  os_.precision(precision);
  record_written();
}

void JsonLinesSink::on_trial_failure(const TrialFailure& failure) {
  os_ << "{\"trial_failure\": {\"index\": " << failure.index
      << ", \"stream_seed\": " << failure.stream_seed
      << ", \"attempts\": " << failure.attempts << ", \"timed_out\": "
      << (failure.timed_out ? "true" : "false") << ", \"quarantined\": "
      << (failure.quarantined() ? "true" : "false") << ", \"error\": \""
      << json_escape(failure.error) << "\"}}\n";
  record_written();
}

void JsonLinesSink::on_sweep(const SweepRecord& record) {
  write_sweep_json(os_, record.name, record.trials, record.timing,
                   record.labels, record.failures);
  record_written();
}

}  // namespace mmr::sim
