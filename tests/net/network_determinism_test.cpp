// Determinism tier for network campaigns, which run on sim::Engine:
//   * jobs=8 replays jobs=1 BYTE-identically -- both the standard sweep
//     record and the network-wide CDF record (frozen timing);
//   * a spec with a 1-cell/1-UE `network` emits the exact bytes of the
//     same spec without it -- the collapse contract at the JSON level,
//     fault stream included;
//   * repeated runs are byte-stable.
// The whole binary is ALSO registered per SIMD backend
// (net_forced_<backend> in tests/CMakeLists.txt), so these bytes are
// pinned across every kernel implementation.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "net/network.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/telemetry.h"

namespace {

using namespace mmr;

sim::ExperimentSpec crowd_campaign(std::size_t jobs) {
  sim::ExperimentSpec spec;
  spec.name = "network_determinism";
  spec.trials = 4;
  spec.jobs = jobs;
  spec.seed = 33;
  spec.scenario.name = "indoor_crowd";
  spec.scenario.config.tx_power_dbm = 14.0;
  spec.scenario.ue_velocity = {1.5, 0.0};
  spec.controller.name = "terragraph";
  spec.run.faults = sim::fault_preset("light");
  net::NetworkLayout layout;
  layout.num_cells = 2;
  layout.ues_per_cell = 2;
  layout.cell_spacing_m = 12.0;
  spec.network = layout;
  return spec;
}

struct CampaignBytes {
  std::string sweep;
  std::string network;
};

/// The serialized records declare the run shape, including the jobs
/// count ("jobs": N) -- the one field that legitimately differs between
/// a jobs=1 and a jobs=8 run of the same campaign. Zero it so the
/// comparison pins every OTHER byte.
std::string canonicalize_jobs(std::string s) {
  const std::string key = "\"jobs\": ";
  std::size_t pos = 0;
  while ((pos = s.find(key, pos)) != std::string::npos) {
    std::size_t begin = pos + key.size();
    std::size_t end = begin;
    while (end < s.size() && s[end] >= '0' && s[end] <= '9') ++end;
    s.replace(begin, end - begin, "0");
    pos = begin;
  }
  return s;
}

sim::EngineResult run_frozen(const sim::ExperimentSpec& spec,
                             sim::TelemetrySink* sink) {
  sim::EngineOptions opts;
  opts.freeze_timing = true;
  return sim::Engine().run(spec, sink, opts);
}

CampaignBytes run_to_bytes(const sim::ExperimentSpec& spec) {
  std::ostringstream sweep_os;
  sim::JsonLinesSink sink(sweep_os);
  const sim::EngineResult result = run_frozen(spec, &sink);
  std::ostringstream network_os;
  sim::write_network_json(network_os, spec, result);
  return {sweep_os.str(), network_os.str()};
}

TEST(NetworkDeterminism, Jobs8ReplaysJobs1BitIdentically) {
  net::register_net_builtins();
  const CampaignBytes serial = run_to_bytes(crowd_campaign(1));
  const CampaignBytes parallel = run_to_bytes(crowd_campaign(8));
  ASSERT_FALSE(serial.sweep.empty());
  ASSERT_FALSE(serial.network.empty());
  EXPECT_EQ(canonicalize_jobs(serial.sweep), canonicalize_jobs(parallel.sweep));
  EXPECT_EQ(canonicalize_jobs(serial.network),
            canonicalize_jobs(parallel.network));
}

TEST(NetworkDeterminism, RepeatedRunsAreByteStable) {
  net::register_net_builtins();
  const CampaignBytes first = run_to_bytes(crowd_campaign(2));
  const CampaignBytes second = run_to_bytes(crowd_campaign(2));
  EXPECT_EQ(first.sweep, second.sweep);
  EXPECT_EQ(first.network, second.network);
}

// The JSON-level collapse: a spec with a 1-cell/1-UE network and the
// same spec without one produce the same bytes -- same per-trial stream
// seeds, same derived fault seeds, same summaries, same sweep record.
TEST(NetworkDeterminism, SingleLinkCampaignMatchesEngineBytes) {
  net::register_net_builtins();
  sim::ExperimentSpec link_spec;
  link_spec.name = "network_vs_engine";
  link_spec.scenario.name = "indoor_crowd";
  link_spec.scenario.config.tx_power_dbm = 14.0;
  link_spec.scenario.ue_velocity = {1.0, 0.0};
  link_spec.run.faults = sim::fault_preset("moderate");
  link_spec.trials = 3;
  link_spec.jobs = 2;
  link_spec.seed = 19;
  std::ostringstream link_os;
  sim::JsonLinesSink link_sink(link_os);
  (void)run_frozen(link_spec, &link_sink);

  sim::ExperimentSpec network_spec = link_spec;
  network_spec.network = net::NetworkLayout{};  // 1 cell x 1 UE
  std::ostringstream network_os;
  sim::JsonLinesSink network_sink(network_os);
  const sim::EngineResult result = run_frozen(network_spec, &network_sink);

  ASSERT_FALSE(link_os.str().empty());
  EXPECT_NE(link_os.str().find("{\"fault\": "), std::string::npos);
  EXPECT_EQ(network_os.str(), link_os.str());
  ASSERT_EQ(result.networks.size(), 3u);
  EXPECT_EQ(result.networks[0].links.size(), 1u);
}

// Different jobs counts must also leave the structured results (not just
// the serialized record) identical: per-link ledgers, handovers, faults.
TEST(NetworkDeterminism, StructuredResultsMatchAcrossJobs) {
  net::register_net_builtins();
  const sim::EngineResult a = sim::Engine().run(crowd_campaign(1));
  const sim::EngineResult b = sim::Engine().run(crowd_campaign(8));
  ASSERT_EQ(a.networks.size(), b.networks.size());
  for (std::size_t t = 0; t < a.networks.size(); ++t) {
    ASSERT_EQ(a.networks[t].links.size(), b.networks[t].links.size());
    ASSERT_EQ(a.networks[t].handovers.size(), b.networks[t].handovers.size());
    for (std::size_t l = 0; l < a.networks[t].links.size(); ++l) {
      const net::LinkReport& la = a.networks[t].links[l];
      const net::LinkReport& lb = b.networks[t].links[l];
      EXPECT_EQ(la.summary.reliability, lb.summary.reliability);
      EXPECT_EQ(la.summary.mean_throughput_bps,
                lb.summary.mean_throughput_bps);
      EXPECT_EQ(la.time_up_s, lb.time_up_s);
      EXPECT_EQ(la.time_unstable_s, lb.time_unstable_s);
      EXPECT_EQ(la.handovers, lb.handovers);
      EXPECT_EQ(la.faults.size(), lb.faults.size());
      EXPECT_EQ(la.final_state, lb.final_state);
    }
  }
}

}  // namespace
