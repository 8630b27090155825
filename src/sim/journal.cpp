#include "sim/journal.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include <fcntl.h>

#include "common/atomic_file.h"
#include "common/error.h"
#include "common/fs_ops.h"
#include "common/io_error.h"

namespace mmr::sim {
namespace {

constexpr int kJournalFormat = 1;

// ---------------------------------------------------------------------------
// Serialization helpers. Doubles round-trip as raw IEEE-754 bit patterns so
// a replayed trial is the exact bits the original run produced.

/// "0x%016x": the encoding of fingerprints and of double bit patterns.
std::string hex_of(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

std::string bits_of(double v) {
  return hex_of(std::bit_cast<std::uint64_t>(v));
}

/// `"summary_bits": [...], "num_samples": N` (get_summary reads it).
void put_summary(std::ostream& os, const core::LinkSummary& s) {
  os << "\"summary_bits\": [\"" << bits_of(s.reliability) << "\", \""
     << bits_of(s.mean_throughput_bps) << "\", \""
     << bits_of(s.mean_spectral_efficiency) << "\", \""
     << bits_of(s.throughput_reliability_product)
     << "\"], \"num_samples\": " << s.num_samples;
}

/// `"faults": [...]` (get_faults reads it).
void put_faults(std::ostream& os, const std::vector<core::FaultEvent>& faults) {
  os << "\"faults\": [";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const core::FaultEvent& ev = faults[i];
    if (i > 0) os << ", ";
    os << "{\"kind\": \"" << core::to_string(ev.kind) << "\", \"t_bits\": \""
       << bits_of(ev.t_s) << "\", \"beam\": " << ev.beam
       << ", \"value_bits\": \"" << bits_of(ev.value) << "\"}";
  }
  os << "]";
}

const char* seed_policy_name(SeedPolicy policy) {
  return policy == SeedPolicy::kFixed ? "fixed" : "per_trial_stream";
}

// ---------------------------------------------------------------------------
// A strict positional scanner for the journal's own line format. Any
// deviation flips `ok` and stays false: the caller treats the line as torn.

struct Cursor {
  const std::string& s;
  std::size_t pos = 0;
  bool ok = true;

  bool lit(const char* text) {
    if (!ok) return false;
    const std::size_t n = std::strlen(text);
    if (s.compare(pos, n, text) != 0) return ok = false;
    pos += n;
    return true;
  }

  bool u64(std::uint64_t& out) {
    if (!ok) return false;
    std::size_t start = pos;
    std::uint64_t value = 0;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
      const std::uint64_t digit = static_cast<std::uint64_t>(s[pos] - '0');
      if (value > (UINT64_MAX - digit) / 10) return ok = false;
      value = value * 10 + digit;
      ++pos;
    }
    if (pos == start) return ok = false;
    out = value;
    return true;
  }

  /// Quoted string with the writer's escaping undone.
  bool quoted(std::string& out) {
    if (!ok || !lit("\"")) return false;
    out.clear();
    while (pos < s.size() && s[pos] != '"') {
      char c = s[pos++];
      if (c == '\\') {
        if (pos >= s.size()) return ok = false;
        const char e = s[pos++];
        if (e == 'n') {
          c = '\n';
        } else if (e == '"' || e == '\\') {
          c = e;
        } else {
          return ok = false;
        }
      }
      out.push_back(c);
    }
    return lit("\"");
  }

  /// Quoted "0x%016x" double bit pattern.
  bool bits(double& out) {
    std::uint64_t value = 0;
    if (!hex16(value)) return false;
    out = std::bit_cast<double>(value);
    return true;
  }

  /// Quoted "0x%016x" 64-bit hex value (fingerprints and double bits).
  bool hex16(std::uint64_t& out) {
    if (!ok || !lit("\"0x")) return false;
    std::uint64_t value = 0;
    std::size_t digits = 0;
    while (pos < s.size() && digits < 16) {
      const char c = s[pos];
      int nibble;
      if (c >= '0' && c <= '9') {
        nibble = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        nibble = c - 'a' + 10;
      } else {
        break;
      }
      value = (value << 4) | static_cast<std::uint64_t>(nibble);
      ++digits;
      ++pos;
    }
    if (digits != 16) return ok = false;
    if (!lit("\"")) return false;
    out = value;
    return true;
  }

  bool done() const { return ok && pos == s.size(); }
};

bool parse_fault_kind(const std::string& name, core::FaultEventKind& out) {
  using K = core::FaultEventKind;
  for (K kind : {K::kProbeDropped, K::kStaleEpoch, K::kNonFiniteTap,
                 K::kProbeFailure, K::kFallbackLastGood, K::kBackoff,
                 K::kEstimateRejected, K::kSanitizedReport,
                 K::kRetrainTriggered}) {
    if (name == core::to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

bool parse_link_state(const std::string& name, core::LinkState& out) {
  using S = core::LinkState;
  for (S state : {S::kDown, S::kAcquisition, S::kUp, S::kUnstable}) {
    if (name == core::to_string(state)) {
      out = state;
      return true;
    }
  }
  return false;
}

/// `"summary_bits": [...], "num_samples": N` -- a trial's and a network
/// link's summary alike.
bool get_summary(Cursor& c, core::LinkSummary& out) {
  std::uint64_t num_samples = 0;
  c.lit("\"summary_bits\": [");
  c.bits(out.reliability);
  c.lit(", ");
  c.bits(out.mean_throughput_bps);
  c.lit(", ");
  c.bits(out.mean_spectral_efficiency);
  c.lit(", ");
  c.bits(out.throughput_reliability_product);
  c.lit("], \"num_samples\": ");
  c.u64(num_samples);
  out.num_samples = static_cast<std::size_t>(num_samples);
  return c.ok;
}

/// `"faults": [...]` -- a trial's and a network link's fault events.
bool get_faults(Cursor& c, std::vector<core::FaultEvent>& out) {
  c.lit("\"faults\": [");
  out.clear();
  if (c.ok && c.pos < c.s.size() && c.s[c.pos] != ']') {
    while (c.ok) {
      core::FaultEvent ev;
      std::string kind;
      std::uint64_t beam = 0;
      c.lit("{\"kind\": ");
      c.quoted(kind);
      c.lit(", \"t_bits\": ");
      c.bits(ev.t_s);
      c.lit(", \"beam\": ");
      c.u64(beam);
      c.lit(", \"value_bits\": ");
      c.bits(ev.value);
      c.lit("}");
      if (!c.ok || !parse_fault_kind(kind, ev.kind)) return c.ok = false;
      ev.beam = static_cast<std::size_t>(beam);
      out.push_back(ev);
      if (c.pos < c.s.size() && c.s[c.pos] == ',') {
        c.lit(", ");
        continue;
      }
      break;
    }
  }
  return c.lit("]");
}

/// `"network": {"links": [...], "handovers": [...]}` of a network trial.
bool get_network(Cursor& c, net::NetworkResult& out) {
  c.lit("\"network\": {\"links\": [");
  while (c.ok && c.pos < c.s.size() && c.s[c.pos] != ']') {
    if (!out.links.empty()) c.lit(", ");
    net::LinkReport link;
    std::uint64_t index = 0, serving_cell = 0, handovers = 0;
    std::string state;
    c.lit("{\"link\": ");
    c.u64(index);
    c.lit(", \"serving_cell\": ");
    c.u64(serving_cell);
    c.lit(", \"handovers\": ");
    c.u64(handovers);
    c.lit(", \"state_time_bits\": [");
    c.bits(link.time_down_s);
    c.lit(", ");
    c.bits(link.time_acquisition_s);
    c.lit(", ");
    c.bits(link.time_up_s);
    c.lit(", ");
    c.bits(link.time_unstable_s);
    c.lit("], \"final_state\": ");
    c.quoted(state);
    c.lit(", ");
    get_summary(c, link.summary);
    c.lit(", ");
    get_faults(c, link.faults);
    c.lit("}");
    if (!c.ok || !parse_link_state(state, link.final_state)) {
      return c.ok = false;
    }
    link.link = static_cast<std::size_t>(index);
    link.serving_cell = static_cast<std::size_t>(serving_cell);
    link.handovers = static_cast<std::size_t>(handovers);
    out.links.push_back(std::move(link));
  }
  c.lit("], \"handovers\": [");
  while (c.ok && c.pos < c.s.size() && c.s[c.pos] != ']') {
    if (!out.handovers.empty()) c.lit(", ");
    core::HandoverEvent ev;
    std::uint64_t link = 0, from_cell = 0, to_cell = 0;
    c.lit("{\"t_bits\": ");
    c.bits(ev.t_s);
    c.lit(", \"link\": ");
    c.u64(link);
    c.lit(", \"from_cell\": ");
    c.u64(from_cell);
    c.lit(", \"to_cell\": ");
    c.u64(to_cell);
    c.lit(", \"rsrp_from_bits\": ");
    c.bits(ev.rsrp_from_db);
    c.lit(", \"rsrp_to_bits\": ");
    c.bits(ev.rsrp_to_db);
    c.lit("}");
    ev.link = static_cast<std::size_t>(link);
    ev.from_cell = static_cast<std::size_t>(from_cell);
    ev.to_cell = static_cast<std::size_t>(to_cell);
    out.handovers.push_back(ev);
  }
  return c.lit("]}");
}

bool parse_header_line(const std::string& line, CampaignKey& out,
                       ShardPlan& shard) {
  Cursor c{line};
  std::uint64_t format = 0, trials = 0, fingerprint = 0;
  std::string policy;
  c.lit("{\"campaign_header\": {\"format\": ");
  c.u64(format);
  c.lit(", \"name\": ");
  c.quoted(out.name);
  c.lit(", \"base_seed\": ");
  c.u64(out.base_seed);
  c.lit(", \"trials\": ");
  c.u64(trials);
  c.lit(", \"seed_policy\": ");
  c.quoted(policy);
  c.lit(", \"fingerprint\": ");
  c.hex16(fingerprint);
  shard = ShardPlan{};
  if (c.ok && c.pos < line.size() && line[c.pos] == ',') {
    std::uint64_t shard_index = 0, shard_count = 0;
    c.lit(", \"shard\": {\"index\": ");
    c.u64(shard_index);
    c.lit(", \"count\": ");
    c.u64(shard_count);
    c.lit("}");
    // A shard field must describe a real shard: count >= 1, index < count.
    if (!c.ok || shard_count == 0 || shard_index >= shard_count) {
      return false;
    }
    shard.index = static_cast<std::size_t>(shard_index);
    shard.count = static_cast<std::size_t>(shard_count);
  }
  c.lit("}}");
  if (!c.done() || format != kJournalFormat) return false;
  out.trials = static_cast<std::size_t>(trials);
  if (policy == "fixed") {
    out.seed_policy = SeedPolicy::kFixed;
  } else if (policy == "per_trial_stream") {
    out.seed_policy = SeedPolicy::kPerTrialStream;
  } else {
    return false;
  }
  out.fingerprint = fingerprint;
  return true;
}

bool parse_trial_line(const std::string& line, JournalTrial& out) {
  Cursor c{line};
  std::uint64_t index = 0;
  c.lit("{\"trial\": {\"index\": ");
  c.u64(index);
  c.lit(", \"wall_bits\": ");
  c.bits(out.wall_s);
  c.lit(", \"cpu_bits\": ");
  c.bits(out.cpu_s);
  c.lit(", \"label\": ");
  c.quoted(out.label);
  c.lit(", ");
  get_summary(c, out.summary);
  c.lit(", ");
  get_faults(c, out.faults);
  out.network.reset();
  if (c.ok && c.pos < line.size() && line[c.pos] == ',') {
    // A network trial: its aggregate is the trial summary.
    c.lit(", ");
    get_network(c, out.network.emplace());
    out.network->network = out.summary;
  }
  c.lit("}}");
  if (!c.done()) return false;
  out.index = static_cast<std::size_t>(index);
  return true;
}

bool parse_seal_line(const std::string& line, JournalSeal& out) {
  Cursor c{line};
  std::uint64_t format = 0, trials = 0, fingerprint = 0;
  c.lit("{\"campaign_seal\": {\"format\": ");
  c.u64(format);
  c.lit(", \"trials\": ");
  c.u64(trials);
  c.lit(", \"fingerprint\": ");
  c.hex16(fingerprint);
  c.lit("}}");
  if (!c.done() || format != kJournalFormat) return false;
  out.trials = static_cast<std::size_t>(trials);
  out.fingerprint = fingerprint;
  return true;
}

// ---------------------------------------------------------------------------
// Fingerprinting: FNV-1a 64 over a canonical serialization of the spec's
// declarative state (doubles as bit patterns, fields in fixed order).

struct Fnv {
  std::uint64_t h = kJournalFnvOffset;
  void feed(std::string_view text) { h = journal_fnv1a(text, h); }
  void u64(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ";", v);
    feed(buf);
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    feed(s);
    feed(std::string_view("\0;", 2));
  }
};

}  // namespace

std::uint64_t journal_fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string journal_header_line(const CampaignKey& key,
                                const ShardPlan& shard) {
  std::ostringstream os;
  os << "{\"campaign_header\": {\"format\": " << kJournalFormat
     << ", \"name\": \"" << json_escape(key.name)
     << "\", \"base_seed\": " << key.base_seed
     << ", \"trials\": " << key.trials << ", \"seed_policy\": \""
     << seed_policy_name(key.seed_policy) << "\", \"fingerprint\": \""
     << hex_of(key.fingerprint) << "\"";
  // The shard field exists only in shard-worker journals: an unsharded
  // header is byte-identical to the pre-shard format, so old journals
  // resume and the merged journal reproduces a 1-process journal exactly.
  if (shard.enabled()) {
    os << ", \"shard\": {\"index\": " << shard.index
       << ", \"count\": " << shard.count << "}";
  }
  os << "}}\n";
  return os.str();
}

std::string journal_trial_line(const JournalTrial& t) {
  std::ostringstream os;
  os << "{\"trial\": {\"index\": " << t.index << ", \"wall_bits\": "
     << "\"" << bits_of(t.wall_s) << "\", \"cpu_bits\": \""
     << bits_of(t.cpu_s) << "\", \"label\": \"" << json_escape(t.label)
     << "\", ";
  put_summary(os, t.summary);
  os << ", ";
  put_faults(os, t.faults);
  if (t.network.has_value()) {
    os << ", \"network\": {\"links\": [";
    for (std::size_t i = 0; i < t.network->links.size(); ++i) {
      const net::LinkReport& link = t.network->links[i];
      if (i > 0) os << ", ";
      os << "{\"link\": " << link.link
         << ", \"serving_cell\": " << link.serving_cell
         << ", \"handovers\": " << link.handovers
         << ", \"state_time_bits\": [\"" << bits_of(link.time_down_s)
         << "\", \"" << bits_of(link.time_acquisition_s) << "\", \""
         << bits_of(link.time_up_s) << "\", \""
         << bits_of(link.time_unstable_s) << "\"], \"final_state\": \""
         << core::to_string(link.final_state) << "\", ";
      put_summary(os, link.summary);
      os << ", ";
      put_faults(os, link.faults);
      os << "}";
    }
    os << "], \"handovers\": [";
    for (std::size_t i = 0; i < t.network->handovers.size(); ++i) {
      const core::HandoverEvent& ev = t.network->handovers[i];
      if (i > 0) os << ", ";
      os << "{\"t_bits\": \"" << bits_of(ev.t_s) << "\", \"link\": "
         << ev.link << ", \"from_cell\": " << ev.from_cell
         << ", \"to_cell\": " << ev.to_cell << ", \"rsrp_from_bits\": \""
         << bits_of(ev.rsrp_from_db) << "\", \"rsrp_to_bits\": \""
         << bits_of(ev.rsrp_to_db) << "\"}";
    }
    os << "]}";
  }
  os << "}}\n";
  return os.str();
}

std::string journal_seal_line(const JournalSeal& seal) {
  std::ostringstream os;
  os << "{\"campaign_seal\": {\"format\": " << kJournalFormat
     << ", \"trials\": " << seal.trials << ", \"fingerprint\": \""
     << hex_of(seal.fingerprint) << "\"}}\n";
  return os.str();
}

std::uint64_t fingerprint_spec(const ExperimentSpec& spec) {
  Fnv f;
  f.str(spec.name);
  // Scenario.
  f.str(spec.scenario.name);
  f.u64(spec.scenario.config.tx_elements);
  f.u64(spec.scenario.config.codebook_size);
  f.u64(spec.scenario.config.seed);
  f.u64(spec.scenario.config.sparse_room ? 1 : 0);
  f.f64(spec.scenario.config.tx_power_dbm);
  f.f64(spec.scenario.ue_velocity.x);
  f.f64(spec.scenario.ue_velocity.y);
  f.f64(spec.scenario.ue_rotation_rate_rad_s);
  f.f64(spec.scenario.ue_start.x);
  f.f64(spec.scenario.ue_start.y);
  f.f64(spec.scenario.link_distance_m);
  f.f64(spec.scenario.irs_gain_db);
  f.f64(spec.scenario.irs_position.x);
  f.f64(spec.scenario.irs_position.y);
  f.u64(spec.scenario.blockers.size());
  for (const BlockerSpec& b : spec.scenario.blockers) {
    f.f64(b.crossing_time_s);
    f.f64(b.speed_mps);
    f.f64(b.depth_db);
  }
  // Controller.
  f.str(spec.controller.name);
  f.u64(spec.controller.max_beams);
  f.u64(spec.controller.enable_tracking ? 1 : 0);
  f.u64(spec.controller.enable_cc_refresh ? 1 : 0);
  // RunConfig (incl. the full fault plan).
  f.f64(spec.run.duration_s);
  f.f64(spec.run.tick_s);
  f.f64(spec.run.outage_snr_db);
  f.f64(spec.run.protocol_overhead);
  f.f64(spec.run.faults.probe_drop_prob);
  f.f64(spec.run.faults.stale_epoch_prob);
  f.u64(spec.run.faults.stale_epoch_ticks);
  f.f64(spec.run.faults.csi_phase_noise_rad);
  f.f64(spec.run.faults.csi_amp_noise_db);
  f.u64(spec.run.faults.csi_quant_bits);
  f.f64(spec.run.faults.nan_tap_prob);
  f.f64(spec.run.faults.snr_bias_db);
  f.u64(spec.run.faults.seed);
  // Sweep shape.
  f.u64(spec.trials);
  f.u64(spec.seed);
  f.u64(spec.seed_policy == SeedPolicy::kFixed ? 1 : 0);
  f.u64(spec.record_samples ? 1 : 0);
  if (spec.network.has_value()) {
    const net::NetworkLayout& n = *spec.network;
    f.str("network");
    f.u64(n.num_cells);
    f.u64(n.ues_per_cell);
    f.f64(n.cell_spacing_m);
    f.f64(n.link_state.min_up_dwell_s);
    f.f64(n.link_state.max_unstable_s);
    f.f64(n.link_state.max_acquisition_s);
    f.u64(n.handover.enabled ? 1 : 0);
    f.f64(n.handover.hysteresis_db);
    f.f64(n.handover.time_to_trigger_s);
    f.f64(n.handover.min_interval_s);
    f.u64(n.interference.enabled ? 1 : 0);
    f.f64(n.interference.coupling_loss_db);
    f.f64(n.ue_placement_jitter_m);
  }
  return f.h;
}

CampaignKey campaign_key(const ExperimentSpec& spec) {
  CampaignKey key;
  key.name = spec.name;
  key.base_seed = spec.seed;
  key.trials = spec.trials;
  key.seed_policy = spec.seed_policy;
  key.fingerprint = fingerprint_spec(spec);
  return key;
}

LoadedJournal read_journal_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open journal: '" + path +
                             "': " + std::strerror(errno));
  }
  // A line counts only with its newline: one cut off at the end of the
  // file is torn however well it parses, so records_fnv always describes
  // whole lines on disk. A read error throws rather than ending the scan.
  std::string line;
  const auto next_line = [&] {
    if (std::getline(in, line)) return true;
    if (in.bad()) {
      throw std::runtime_error("cannot read journal: '" + path + "'");
    }
    return false;
  };
  LoadedJournal out;
  if (!next_line() || in.eof() ||
      !parse_header_line(line, out.key, out.shard)) {
    throw JournalMismatchError("journal '" + path +
                               "' has an unreadable header");
  }
  while (next_line()) {
    if (out.seal.has_value()) {
      if (!line.empty()) out.content_after_seal = true;
      continue;
    }
    JournalSeal seal;
    if (!in.eof() && parse_seal_line(line, seal)) {
      out.seal = seal;
      continue;
    }
    if (out.torn_tail) continue;
    JournalTrial trial;
    if (in.eof() || !parse_trial_line(line, trial)) {
      // Record loading stops at the first torn line, but the scan keeps
      // looking for a seal: a seal over records that are no longer all
      // there is transport damage, and check_journal_seal must see it.
      out.torn_tail = true;
      continue;
    }
    // Intact records are returned even when out of range / outside the
    // shard's ownership: each caller decides what such a record means.
    out.records_fnv = journal_fnv1a(line, out.records_fnv);
    out.records_fnv = journal_fnv1a("\n", out.records_fnv);
    out.trials.push_back(std::move(trial));
  }
  return out;
}

void check_journal_key(const std::string& path, const LoadedJournal& found,
                       const CampaignKey& key,
                       const std::optional<ShardPlan>& shard) {
  const auto differs = [&path](const char* field) {
    throw JournalMismatchError("journal '" + path +
                               "' belongs to a different campaign (" +
                               field + " differs)");
  };
  if (found.key.name != key.name) differs("name");
  if (found.key.base_seed != key.base_seed) differs("base seed");
  if (found.key.trials != key.trials) differs("trial count");
  if (found.key.seed_policy != key.seed_policy) differs("seed policy");
  if (found.key.fingerprint != key.fingerprint) differs("config fingerprint");
  if (!shard.has_value()) return;
  if (found.shard.count != shard->count) differs("shard count");
  if (found.shard.index != shard->index) differs("shard index");
}

void check_journal_seal(const std::string& path, const LoadedJournal& found) {
  if (!found.seal.has_value() || found.seal_intact()) return;
  std::string why = "journal '" + path +
                    "': seal footer does not match its records (seal says " +
                    std::to_string(found.seal->trials) +
                    " trials, file holds " +
                    std::to_string(found.trials.size()) + " intact";
  if (found.torn_tail) why += ", with a damaged line";
  if (found.content_after_seal) why += ", with content after the seal";
  throw JournalMismatchError(
      why + "); the file was damaged in transport, not crashed mid-write");
}

CampaignJournal::CampaignJournal(std::string path, CampaignKey key,
                                 ShardPlan shard)
    : path_(std::move(path)), shard_(shard) {
  MMR_EXPECTS(!path_.empty());
  MMR_EXPECTS(shard_.valid());
  // Only a missing or 0-byte file starts a fresh journal. Any other file
  // is read, and one that cannot be read throws with its bytes untouched.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path_, ec);
  if (ec && ec != std::errc::no_such_file_or_directory) {
    throw IoError("stat", path_, ec.value());
  }
  if (ec || size == 0) {
    AtomicFile::write(path_, journal_header_line(key, shard_));
  } else {
    LoadedJournal found = read_journal_file(path_);
    check_journal_key(path_, found, key, shard_);
    // Keep records up to the first one this campaign cannot own: a crash
    // only tears the tail, so a foreign record is damage like a torn one.
    const auto foreign =
        std::find_if(found.trials.begin(), found.trials.end(),
                     [&](const JournalTrial& t) {
                       return t.index >= key.trials || !shard_.owns(t.index);
                     });
    if (foreign != found.trials.end()) {
      found.trials.erase(foreign, found.trials.end());
      found.torn_tail = true;
    }
    check_journal_seal(path_, found);
    record_count_ = found.trials.size();
    records_fnv_ = found.records_fnv;
    // Appends must never land on torn bytes or after a seal: rewrite the
    // file as the header plus the kept records (an honest seal is
    // re-stamped when this pass completes).
    if (found.torn_tail || found.seal.has_value()) {
      std::string records;
      for (const JournalTrial& t : found.trials) {
        records += journal_trial_line(t);
      }
      records_fnv_ = journal_fnv1a(records);
      AtomicFile::write(path_, journal_header_line(key, shard_) + records);
    }
    for (JournalTrial& t : found.trials) {
      completed_.emplace(t.index, std::move(t));
    }
  }
  out_fd_ = fsio::open_retry(path_, O_WRONLY | O_APPEND, 0644);
}

CampaignJournal::~CampaignJournal() {
  if (out_fd_ >= 0) (void)fsio::ops().close_fn(out_fd_);
}

void CampaignJournal::append(const std::string& line) {
  fsio::write_all(out_fd_, line.data(), line.size(), path_);
  // One fsync per line: the durability point of the journal.
  fsio::fsync_retry(out_fd_, path_);
}

void CampaignJournal::record(const JournalTrial& trial) {
  // A shard journal must never hold a trial its shard does not own --
  // the merge validator would (rightly) reject the whole journal.
  MMR_EXPECTS(!shard_.enabled() || shard_.owns(trial.index));
  const std::string line = journal_trial_line(trial);
  std::lock_guard<std::mutex> lock(mutex_);
  // The seal is the "nothing more will be written" promise; recording
  // past it would silently invalidate the fingerprint.
  MMR_EXPECTS(!sealed_);
  append(line);
  records_fnv_ = journal_fnv1a(line, records_fnv_);
  ++record_count_;
}

void CampaignJournal::seal() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sealed_) return;
  append(journal_seal_line(JournalSeal{record_count_, records_fnv_}));
  sealed_ = true;
}

}  // namespace mmr::sim
