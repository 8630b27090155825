// Integration tests of the multi-cell network layer (net/network.h):
// the single-link byte-identity collapse onto the existing run_experiment
// path, the terragraph controller as a registry citizen and its recovery
// ladder, RSRP handover with telemetry, cross-link interference effects
// and their recovery at infinite separation, and the per-link state
// ledger.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/constants.h"
#include "common/rng.h"
#include "core/link_state.h"
#include "net/network.h"
#include "net/terragraph.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/telemetry.h"
#include "sim/workspace.h"

namespace {

using namespace mmr;

sim::ScenarioSpec blocked_sparse_scenario(std::uint64_t seed) {
  sim::ScenarioSpec s;
  s.name = "indoor_sparse";
  s.config.seed = seed;
  s.config.tx_power_dbm = 14.0;
  s.blockers = {{0.5, 1.0, 30.0}};
  s.ue_velocity = {1.0, 0.0};
  return s;
}

void expect_summaries_bit_identical(const core::LinkSummary& a,
                                    const core::LinkSummary& b) {
  EXPECT_EQ(a.reliability, b.reliability);
  EXPECT_EQ(a.mean_throughput_bps, b.mean_throughput_bps);
  EXPECT_EQ(a.mean_spectral_efficiency, b.mean_spectral_efficiency);
  EXPECT_EQ(a.throughput_reliability_product,
            b.throughput_reliability_product);
  EXPECT_EQ(a.num_samples, b.num_samples);
}

// The pinned contract: a 1-cell/1-UE network run is BYTE-identical to the
// existing single-link path -- same world seed, same tick sequence, same
// fault stream, same summary bits.
TEST(Network, SingleLinkCollapsesToRunExperimentBitExactly) {
  net::register_net_builtins();
  const std::uint64_t stream_seed = 0xABCDEF12;
  sim::RunConfig rc;
  rc.faults = sim::fault_preset("moderate");  // exercise the fault stream

  // Existing path: world + controller + run_experiment, with the fault
  // seed derived exactly as the engine derives it per trial.
  sim::ScenarioSpec scenario = blocked_sparse_scenario(stream_seed);
  sim::LinkWorld world = sim::ScenarioRegistry::instance().make(scenario);
  sim::TrialWorkspace ws;
  world.bind_workspace(&ws);
  sim::ControllerSpec ctrl_spec;  // mmreliable
  const auto controller = sim::ControllerRegistry::instance().make(
      world, scenario.config, ctrl_spec);
  sim::RunConfig rc_direct = rc;
  rc_direct.faults.seed =
      Rng::derive_stream_seed(stream_seed, sim::kFaultSeedStream);
  const sim::RunResult direct =
      sim::run_experiment(world, *controller, rc_direct);

  // Network path: same template (the authored seed is overridden by the
  // stream seed, like the engine's kPerTrialStream policy).
  net::NetworkSpec nspec;
  nspec.num_cells = 1;
  nspec.ues_per_cell = 1;
  nspec.link_scenario = blocked_sparse_scenario(0);
  nspec.controller = ctrl_spec;
  nspec.run = rc;  // fault seed 0: derived from the stream seed
  sim::TrialWorkspace ws2;
  net::Network network(nspec, stream_seed, &ws2);
  const net::NetworkResult result = network.run();

  ASSERT_EQ(result.links.size(), 1u);
  expect_summaries_bit_identical(result.links[0].summary, direct.summary);
  expect_summaries_bit_identical(result.network, direct.summary);
  // Same fault stream: identical event sequences, field for field.
  ASSERT_EQ(result.links[0].faults.size(), direct.fault_events.size());
  for (std::size_t i = 0; i < direct.fault_events.size(); ++i) {
    EXPECT_EQ(result.links[0].faults[i].kind, direct.fault_events[i].kind);
    EXPECT_EQ(result.links[0].faults[i].t_s, direct.fault_events[i].t_s);
    EXPECT_EQ(result.links[0].faults[i].value,
              direct.fault_events[i].value);
  }
  EXPECT_TRUE(result.handovers.empty());
}

TEST(Network, NetBuiltinsRegisterTerragraphAndCrowdScenarios) {
  net::register_net_builtins();
  net::register_net_builtins();  // idempotent
  EXPECT_TRUE(sim::ControllerRegistry::instance().contains("terragraph"));
  EXPECT_TRUE(sim::ScenarioRegistry::instance().contains("indoor_crowd"));
  EXPECT_TRUE(
      sim::ScenarioRegistry::instance().contains("indoor_crowd_dense"));
}

// The terragraph controller must work as a plain registry citizen on the
// EXISTING engine -- the state machine substrate slots under any
// controller, and terragraph is a standalone baseline.
TEST(Network, TerragraphRunsAsEngineControllerOnCrowdScenario) {
  net::register_net_builtins();
  sim::ExperimentSpec spec;
  spec.name = "terragraph_smoke";
  spec.scenario.name = "indoor_crowd";
  spec.scenario.config.tx_power_dbm = 14.0;
  spec.controller.name = "terragraph";
  spec.trials = 2;
  spec.seed = 7;
  sim::Engine engine;
  const sim::EngineResult result = engine.run(spec);
  ASSERT_EQ(result.trials.size(), 2u);
  for (const auto& trial : result.trials) {
    EXPECT_GE(trial.value.reliability, 0.0);
    EXPECT_LE(trial.value.reliability, 1.0);
    EXPECT_GT(trial.value.num_samples, 0u);
  }
}

TEST(Network, TerragraphLadderEscalatesUnderDeepBlockage) {
  net::register_net_builtins();
  sim::ScenarioSpec scenario = blocked_sparse_scenario(13);
  // Deep crossing at 0.5 s. The walker must be CLEAR of the LOS at t=0
  // (crossing_time > (radius + ramp) / speed) or acquisition trains onto
  // the reflection and the serving beam never sees the blockage.
  scenario.blockers = {{0.5, 1.2, 35.0}};
  sim::LinkWorld world = sim::ScenarioRegistry::instance().make(scenario);
  net::TerragraphConfig cfg;
  cfg.outage_power_linear = world.power_for_snr(kOutageSnrDb);
  net::TerragraphController controller(
      world.config().tx_ula,
      sim::sector_codebook(world.config().tx_ula,
                           scenario.config.codebook_size),
      cfg);
  const sim::RunResult rr = sim::run_experiment(world, controller, {});
  // The initial sweep plus at least one recovery-ladder reaction to the
  // blockage: refinement, switching, or full retraining.
  EXPECT_GE(controller.trainings(), 1);
  EXPECT_GT(controller.refinements() + controller.beam_switches() +
                (controller.trainings() - 1),
            0);
  EXPECT_GT(controller.machine().transitions(), 2u);
  EXPECT_GT(controller.training_airtime_s(), 0.0);
  // The ladder is visible in the availability ledger.
  EXPECT_GT(controller.machine().time_in(core::LinkState::kUp), 0.0);
  EXPECT_GT(rr.summary.reliability, 0.0);
  EXPECT_LT(rr.summary.reliability, 1.0);
}

TEST(Network, RsrpHandoverFiresAndStreamsTelemetry) {
  net::register_net_builtins();
  net::NetworkSpec spec;
  spec.num_cells = 2;
  spec.ues_per_cell = 1;
  spec.cell_spacing_m = 8.0;
  spec.link_scenario.name = "indoor";
  spec.link_scenario.config.seed = 5;
  spec.link_scenario.ue_start = {3.0, 6.2};
  spec.link_scenario.ue_velocity = {4.0, 0.0};  // crosses midpoint ~0.37 s
  spec.handover.hysteresis_db = 1.0;
  spec.handover.time_to_trigger_s = 20.0e-3;
  spec.handover.min_interval_s = 200.0e-3;
  spec.ue_placement_jitter_m = 0.0;

  net::Network network(spec, 77);
  const net::NetworkResult result = network.run();

  ASSERT_GE(result.handovers.size(), 1u);
  const core::HandoverEvent& first = result.handovers.front();
  EXPECT_EQ(first.from_cell, 0u);
  EXPECT_EQ(first.to_cell, 1u);
  EXPECT_EQ(first.link, 0u);
  EXPECT_GT(first.t_s, 0.0);
  EXPECT_LT(first.t_s, 1.0);
  // A3 condition held for the full time-to-trigger window.
  EXPECT_GE(first.rsrp_to_db, first.rsrp_from_db +
                                  spec.handover.hysteresis_db - 1e-9);
  // Events are in time order.
  for (std::size_t i = 1; i < result.handovers.size(); ++i) {
    EXPECT_GE(result.handovers[i].t_s, result.handovers[i - 1].t_s);
  }
  // One UE homed at each of the two cells; only the cell-0 UE crosses
  // the midpoint, so every event belongs to link 0.
  ASSERT_EQ(result.links.size(), 2u);
  EXPECT_EQ(result.links[0].handovers, result.handovers.size());
  EXPECT_EQ(result.links[0].serving_cell, 1u);
  EXPECT_EQ(result.links[1].handovers, 0u);
  // The engine replays a network trial's handovers to its sink: the same
  // network as a one-trial campaign, its seed fixed at the stream seed.
  sim::ExperimentSpec campaign;
  campaign.scenario = spec.link_scenario;
  campaign.scenario.config.seed = 77;
  campaign.seed_policy = sim::SeedPolicy::kFixed;
  campaign.network = static_cast<const net::NetworkLayout&>(spec);
  sim::MemorySink sink;
  (void)sim::Engine().run(campaign, &sink);
  ASSERT_EQ(sink.handovers().size(), 1u);
  ASSERT_EQ(sink.handovers()[0].size(), result.handovers.size());
  EXPECT_EQ(sink.handovers()[0][0].t_s, first.t_s);
  EXPECT_EQ(sink.handovers()[0][0].to_cell, 1u);
  // The teardown shows in the state ledger: a handover is kLinkLost +
  // reacquisition, so the machine left kUp at least once.
  EXPECT_GT(result.links[0].time_acquisition_s + result.links[0].time_down_s,
            0.0);
}

TEST(Network, StaticUeNeverHandsOver) {
  net::register_net_builtins();
  net::NetworkSpec spec;
  spec.num_cells = 3;
  spec.ues_per_cell = 1;
  spec.cell_spacing_m = 40.0;
  spec.link_scenario.name = "indoor";
  spec.link_scenario.config.seed = 5;
  spec.ue_placement_jitter_m = 1.0;
  net::Network network(spec, 31);
  const net::NetworkResult result = network.run();
  EXPECT_TRUE(result.handovers.empty());
  for (const auto& link : result.links) {
    EXPECT_EQ(link.handovers, 0u);
  }
}

// Interference strictly degrades throughput for co-scheduled co-cell
// sessions (the controllers never see it -- the probe path is per-link --
// so beam choices and availability are identical; only the scored SINR
// moves).
TEST(Network, CoCellInterferenceStrictlyReducesThroughput) {
  net::register_net_builtins();
  net::NetworkSpec spec;
  spec.num_cells = 1;
  spec.ues_per_cell = 2;
  spec.link_scenario.name = "indoor";
  spec.link_scenario.config.seed = 11;
  spec.link_scenario.config.tx_power_dbm = 14.0;
  spec.ue_placement_jitter_m = 2.0;
  spec.interference.enabled = true;

  net::Network with_net(spec, 42);
  const net::NetworkResult with_interference = with_net.run();
  net::NetworkSpec quiet = spec;
  quiet.interference.enabled = false;
  net::Network without_net(quiet, 42);
  const net::NetworkResult without_interference = without_net.run();

  ASSERT_EQ(with_interference.links.size(), 2u);
  // Same seeds, same worlds, same controllers: reliability of the
  // interference-free run upper-bounds the interfered one...
  EXPECT_LE(with_interference.network.reliability,
            without_interference.network.reliability);
  // ...and the throughput strictly drops (every available tick pays the
  // SINR fold).
  EXPECT_LT(with_interference.network.mean_throughput_bps,
            without_interference.network.mean_throughput_bps);
}

// Infinite separation recovers the interference-free bits exactly: at
// 1e12 m the folded INR underflows the double mantissa of (1 + inr), so
// sinr_db == snr_db bitwise and the summaries match field for field.
TEST(Network, InterferenceVanishesBitExactlyAtInfiniteSeparation) {
  net::register_net_builtins();
  net::NetworkSpec spec;
  spec.num_cells = 2;
  spec.ues_per_cell = 1;
  spec.cell_spacing_m = 1.0e12;
  spec.link_scenario.name = "indoor";
  spec.link_scenario.config.seed = 3;
  spec.handover.enabled = false;
  spec.interference.enabled = true;

  net::Network far_net(spec, 9);
  const net::NetworkResult with_far = far_net.run();
  net::NetworkSpec quiet = spec;
  quiet.interference.enabled = false;
  net::Network quiet_net(quiet, 9);
  const net::NetworkResult without = quiet_net.run();

  ASSERT_EQ(with_far.links.size(), without.links.size());
  for (std::size_t i = 0; i < with_far.links.size(); ++i) {
    expect_summaries_bit_identical(with_far.links[i].summary,
                                   without.links[i].summary);
  }
}

TEST(Network, StateLedgerIsConservativeAcrossLinks) {
  net::register_net_builtins();
  net::NetworkSpec spec;
  spec.num_cells = 2;
  spec.ues_per_cell = 2;
  spec.link_scenario = blocked_sparse_scenario(0);
  spec.controller.name = "terragraph";
  net::Network network(spec, 17);
  const net::NetworkResult result = network.run();
  ASSERT_EQ(result.links.size(), 4u);
  for (const auto& link : result.links) {
    const double total = link.time_down_s + link.time_acquisition_s +
                         link.time_up_s + link.time_unstable_s;
    EXPECT_NEAR(total, spec.run.duration_s, 1e-9) << "link " << link.link;
    EXPECT_GE(link.availability(spec.run.duration_s), 0.0);
    EXPECT_LE(link.availability(spec.run.duration_s), 1.0);
  }
  // Multi-link aggregate: per-field means with samples summed.
  std::size_t samples = 0;
  double reliability = 0.0;
  for (const auto& link : result.links) {
    samples += link.summary.num_samples;
    reliability += link.summary.reliability / 4.0;
  }
  EXPECT_EQ(result.network.num_samples, samples);
  EXPECT_NEAR(result.network.reliability, reliability, 1e-12);
}

// PR-8 resumable-step contract: driving begin / step_tick / finish by
// hand is bit-identical to run() -- the streaming service's step path IS
// the batch path.
TEST(Network, ManualStepSequenceMatchesRunBitExactly) {
  net::register_net_builtins();
  net::NetworkSpec spec;
  spec.num_cells = 2;
  spec.ues_per_cell = 2;
  spec.cell_spacing_m = 12.0;
  spec.link_scenario = blocked_sparse_scenario(0);
  spec.controller.name = "terragraph";
  spec.interference.enabled = true;
  spec.run.duration_s = 0.4;

  net::Network batch(spec, 77);
  const net::NetworkResult via_run = batch.run();

  net::Network stepped(spec, 77);
  stepped.begin();
  const auto num_ticks =
      static_cast<std::size_t>(spec.run.duration_s / spec.run.tick_s);
  for (std::size_t i = 0; i < num_ticks; ++i) {
    stepped.step_tick(static_cast<double>(i) * spec.run.tick_s);
  }
  const net::NetworkResult via_steps = stepped.finish();

  ASSERT_EQ(via_run.links.size(), via_steps.links.size());
  for (std::size_t i = 0; i < via_run.links.size(); ++i) {
    expect_summaries_bit_identical(via_run.links[i].summary,
                                   via_steps.links[i].summary);
    EXPECT_EQ(via_run.links[i].time_up_s, via_steps.links[i].time_up_s);
    EXPECT_EQ(via_run.links[i].handovers, via_steps.links[i].handovers);
  }
  expect_summaries_bit_identical(via_run.network, via_steps.network);
  EXPECT_EQ(via_run.handovers.size(), via_steps.handovers.size());
}

// Streaming session table: join() populates an empty table with the same
// per-id builds as the batch constructor, leave() recycles slots through
// the free list (bounded memory under churn), and tick_samples() exposes
// the per-slot scores.
TEST(Network, JoinLeaveRecyclesSlotsAndMatchesBatchSessions) {
  net::register_net_builtins();
  net::NetworkSpec spec;
  spec.num_cells = 1;
  spec.ues_per_cell = 2;
  spec.link_scenario = blocked_sparse_scenario(0);

  // An empty table populated by join(id, 0) scores the same first tick
  // as the batch table with the same ids.
  net::Network batch(spec, 5);
  batch.begin();
  batch.step_tick(0.0);
  const std::vector<core::LinkSample> batch_tick(
      batch.tick_samples().begin(), batch.tick_samples().end());

  net::Network table(spec, 5, nullptr, /*populate_sessions=*/false);
  EXPECT_EQ(table.slot_count(), 0u);
  table.begin();
  EXPECT_EQ(table.join(0, 0.0), 0u);
  EXPECT_EQ(table.join(1, 0.0), 1u);
  EXPECT_EQ(table.live_count(), 2u);
  table.step_tick(0.0);
  ASSERT_EQ(table.tick_samples().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(table.tick_samples()[i].snr_db, batch_tick[i].snr_db);
    EXPECT_EQ(table.tick_samples()[i].throughput_bps,
              batch_tick[i].throughput_bps);
  }

  // leave + join reuses the freed slot: the table never grows.
  table.leave(0);
  EXPECT_FALSE(table.slot_live(0));
  EXPECT_EQ(table.live_count(), 1u);
  EXPECT_EQ(table.join(2, spec.run.tick_s), 0u);
  EXPECT_EQ(table.slot_count(), 2u);
  EXPECT_EQ(table.live_count(), 2u);
  EXPECT_TRUE(table.slot_live(0));
  table.step_tick(spec.run.tick_s);  // the rejoined slot scores again
  EXPECT_THROW(table.leave(5), std::exception);
  table.leave(0);
  EXPECT_THROW(table.leave(0), std::exception);  // already retired
}

TEST(Network, SpecValidationRejectsBadShapes) {
  net::NetworkSpec spec;
  spec.num_cells = 0;
  EXPECT_THROW(spec.validate(), std::exception);
  spec = {};
  spec.cell_spacing_m = -1.0;
  EXPECT_THROW(spec.validate(), std::exception);
  spec = {};
  spec.handover.hysteresis_db = -2.0;
  EXPECT_THROW(spec.validate(), std::exception);
}

}  // namespace
