#include "sim/sweep.h"

#include <algorithm>

#include <time.h>

#include "common/error.h"
#include "common/stats.h"

namespace mmr::sim {

double thread_cpu_now_s() {
  timespec ts{};
  const int rc = clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  MMR_EXPECTS(rc == 0);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

SweepRunner::SweepRunner(SweepConfig config) : config_(config) {
  MMR_EXPECTS(config_.num_trials > 0);
  jobs_ = config_.jobs == 0 ? ThreadPool::hardware_jobs() : config_.jobs;
}

SweepSummary summarize_sweep(
    std::span<const SweepTrial<core::LinkSummary>> trials) {
  MMR_EXPECTS(!trials.empty());
  SweepSummary out;
  out.num_trials = trials.size();
  RVec rel, outage, tput, trp;
  rel.reserve(trials.size());
  outage.reserve(trials.size());
  tput.reserve(trials.size());
  trp.reserve(trials.size());
  for (const auto& trial : trials) {
    rel.push_back(trial.value.reliability);
    outage.push_back(1.0 - trial.value.reliability);
    tput.push_back(trial.value.mean_throughput_bps);
    trp.push_back(trial.value.throughput_reliability_product);
  }
  out.mean_reliability = mean(rel);
  out.median_reliability = median(rel);
  out.p25_reliability = percentile(rel, 25.0);
  out.p75_reliability = percentile(rel, 75.0);
  out.median_outage = median(outage);
  out.mean_throughput_bps = mean(tput);
  out.median_throughput_bps = median(tput);
  out.mean_trp_bps = mean(trp);
  out.median_trp_bps = median(trp);
  return out;
}

namespace {

/// Per trial slot: did a failure quarantine it?
std::vector<bool> quarantine_mask(std::size_t num_trials,
                                  std::span<const TrialFailure> failures) {
  std::vector<bool> quarantined(num_trials, false);
  for (const TrialFailure& f : failures) {
    MMR_EXPECTS(f.index < num_trials);
    if (f.quarantined()) quarantined[f.index] = true;
  }
  return quarantined;
}

void json_kv(std::ostream& os, const char* key, double value,
             bool trailing_comma = true) {
  os << "\"" << key << "\": " << value;
  if (trailing_comma) os << ", ";
}

}  // namespace

SweepSummary summarize_survivors(
    std::span<const SweepTrial<core::LinkSummary>> trials,
    std::span<const TrialFailure> failures) {
  const std::vector<bool> quarantined =
      quarantine_mask(trials.size(), failures);
  std::vector<SweepTrial<core::LinkSummary>> survivors;
  survivors.reserve(trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (!quarantined[i]) survivors.push_back(trials[i]);
  }
  return survivors.empty() ? SweepSummary{} : summarize_sweep(survivors);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void write_sweep_json(std::ostream& os, const std::string& bench_name,
                      std::span<const SweepTrial<core::LinkSummary>> trials,
                      const SweepTiming& timing,
                      std::span<const std::string> labels,
                      std::span<const TrialFailure> failures) {
  MMR_EXPECTS(labels.empty() || labels.size() == trials.size());
  const std::vector<bool> quarantined =
      quarantine_mask(trials.size(), failures);
  const auto flags = os.flags();
  const auto precision = os.precision();
  os.precision(10);
  os << "{\"bench\": \"" << json_escape(bench_name) << "\", ";
  os << "\"jobs\": " << timing.jobs << ", ";
  json_kv(os, "wall_s", timing.wall_s);
  json_kv(os, "serial_equivalent_s", timing.serial_equivalent_s);
  json_kv(os, "speedup", timing.speedup());
  os << "\"trials\": [";
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto& trial = trials[i];
    if (i > 0) os << ", ";
    os << "{\"index\": " << trial.index << ", ";
    if (!labels.empty()) {
      os << "\"label\": \"" << json_escape(labels[i]) << "\", ";
    }
    if (quarantined[i]) os << "\"failed\": true, ";
    json_kv(os, "wall_s", trial.wall_s);
    json_kv(os, "cpu_s", trial.cpu_s);
    json_kv(os, "reliability", trial.value.reliability);
    json_kv(os, "mean_throughput_bps", trial.value.mean_throughput_bps);
    json_kv(os, "trp_bps", trial.value.throughput_reliability_product,
            /*trailing_comma=*/false);
    os << "}";
  }
  os << "], ";
  if (!failures.empty()) {
    os << "\"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      const TrialFailure& f = failures[i];
      if (i > 0) os << ", ";
      os << "{\"index\": " << f.index << ", \"stream_seed\": "
         << f.stream_seed << ", \"attempts\": " << f.attempts
         << ", \"timed_out\": " << (f.timed_out ? "true" : "false")
         << ", \"quarantined\": " << (f.quarantined() ? "true" : "false")
         << ", \"error\": \"" << json_escape(f.error) << "\"}";
    }
    os << "], ";
  }
  const SweepSummary agg = summarize_survivors(trials, failures);
  os << "\"aggregate\": {";
  json_kv(os, "mean_reliability", agg.mean_reliability);
  json_kv(os, "median_reliability", agg.median_reliability);
  json_kv(os, "p25_reliability", agg.p25_reliability);
  json_kv(os, "p75_reliability", agg.p75_reliability);
  json_kv(os, "median_outage", agg.median_outage);
  json_kv(os, "mean_throughput_bps", agg.mean_throughput_bps);
  json_kv(os, "median_throughput_bps", agg.median_throughput_bps);
  json_kv(os, "mean_trp_bps", agg.mean_trp_bps);
  json_kv(os, "median_trp_bps", agg.median_trp_bps, /*trailing_comma=*/false);
  os << "}}\n";
  os.flags(flags);
  os.precision(precision);
}

}  // namespace mmr::sim
