// Per-tick path-response table (channel::PathResponse in the bound
// sim::TrialWorkspace): a world that reads one table per tick must be
// bit-identical to one that builds a fresh table for every evaluation (an
// unbound world) -- for CSI, CIR and joint probes and the true SNR,
// across set_time calls, with worlds sharing one workspace, and with a
// world rebuilt at the address of a destroyed one. The table is keyed by
// a process-wide tick id, never by the world's address. This binary also
// runs once per kernel backend (props_forced_<backend>).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "array/geometry.h"
#include "channel/environment.h"
#include "channel/mobility.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/workspace.h"
#include "sim/world.h"

namespace mmr {
namespace {

constexpr std::uint64_t kBaseSeed = 0x7AB1E;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const CVec& a, const CVec& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(cplx)) == 0);
}

CVec random_weights(Rng& rng, std::size_t n) {
  CVec w(n);
  for (cplx& c : w) c = rng.complex_normal();
  return w;
}

/// A mobile scenario with blockers; indoor_poor deploys an IRS, whose
/// engineered path set_time appends after the trace.
sim::ScenarioSpec random_scenario(Rng& rng) {
  static const char* kNames[] = {"indoor", "indoor_sparse", "indoor_poor",
                                 "outdoor"};
  sim::ScenarioSpec s;
  s.name = kNames[rng.uniform_index(4)];
  s.config.seed = 1 + rng.uniform_index(1u << 20);
  s.config.tx_elements = rng.bernoulli(0.5) ? 8 : 16 + rng.uniform_index(17);
  s.ue_velocity = {rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5)};
  if (s.name == "indoor_poor") s.irs_gain_db = rng.uniform(5.0, 20.0);
  s.blockers = {{rng.uniform(0.0, 0.2), rng.uniform(0.8, 1.6), 30.0}};
  return s;
}

/// One random evaluation on `bound` and on its unbound `twin`, compared
/// bit for bit. The twin shares the seed, so each probe's noise draws
/// match.
void expect_same_evaluation(Rng& rng, sim::LinkWorld& bound,
                            sim::LinkWorld& twin, const std::string& where) {
  const std::size_t n = bound.config().tx_ula.num_elements;
  const std::size_t m = bound.config().ue_ula.num_elements;
  const CVec w = random_weights(rng, n);
  const CVec rw = random_weights(rng, m);
  switch (rng.uniform_index(6)) {
    case 0:
      ASSERT_TRUE(same_bits(bound.probe_interface().csi(w),
                            twin.probe_interface().csi(w)))
          << where << " csi";
      break;
    case 1: {
      const std::size_t taps = 1 + rng.uniform_index(32);
      ASSERT_TRUE(same_bits(bound.probe_interface().cir(w, taps),
                            twin.probe_interface().cir(w, taps)))
          << where << " cir";
      break;
    }
    case 2:
      ASSERT_TRUE(same_bits(bound.joint_probe_interface().csi(w, rw),
                            twin.joint_probe_interface().csi(w, rw)))
          << where << " joint csi";
      break;
    case 3: {
      const std::size_t taps = 1 + rng.uniform_index(32);
      ASSERT_TRUE(same_bits(bound.joint_probe_interface().cir(w, rw, taps),
                            twin.joint_probe_interface().cir(w, rw, taps)))
          << where << " joint cir";
      break;
    }
    case 4:
      ASSERT_TRUE(same_bits(bound.true_snr_db(w), twin.true_snr_db(w)))
          << where << " true_snr_db";
      break;
    default:
      ASSERT_TRUE(same_bits(bound.true_snr_db_joint(w, rw),
                            twin.true_snr_db_joint(w, rw)))
          << where << " true_snr_db_joint";
      break;
  }
}

TEST(PathResponseProps, TableMatchesAFreshTablePerEvaluation) {
  const Rng base(kBaseSeed);
  for (std::size_t i = 0; i < 60; ++i) {
    Rng rng = base.fork(i);
    const sim::ScenarioSpec spec = random_scenario(rng);
    sim::LinkWorld bound = sim::ScenarioRegistry::instance().make(spec);
    sim::LinkWorld twin = sim::ScenarioRegistry::instance().make(spec);
    sim::TrialWorkspace ws;
    bound.bind_workspace(&ws);
    for (std::size_t tick = 0; tick < 12; ++tick) {
      const double t = 0.1 * static_cast<double>(tick);
      bound.set_time(t);
      twin.set_time(t);
      // A tick's first evaluation may be a CIR (no delay phasors yet),
      // later ones reuse or extend the table.
      const std::size_t evals = 1 + rng.uniform_index(8);
      for (std::size_t e = 0; e < evals; ++e) {
        expect_same_evaluation(rng, bound, twin,
                               spec.name + " case " + std::to_string(i) +
                                   " tick " + std::to_string(tick));
      }
    }
  }
}

TEST(PathResponseProps, WorldsAlternatingOnOneWorkspaceMatchUnboundTwins) {
  const Rng base(kBaseSeed + 1);
  for (std::size_t i = 0; i < 40; ++i) {
    Rng rng = base.fork(i);
    const sim::ScenarioSpec spec_a = random_scenario(rng);
    const sim::ScenarioSpec spec_b = random_scenario(rng);
    sim::LinkWorld a = sim::ScenarioRegistry::instance().make(spec_a);
    sim::LinkWorld a_twin = sim::ScenarioRegistry::instance().make(spec_a);
    sim::LinkWorld b = sim::ScenarioRegistry::instance().make(spec_b);
    sim::LinkWorld b_twin = sim::ScenarioRegistry::instance().make(spec_b);
    sim::TrialWorkspace ws;
    a.bind_workspace(&ws);
    b.bind_workspace(&ws);
    for (std::size_t tick = 0; tick < 10; ++tick) {
      const double t = 0.1 * static_cast<double>(tick);
      // Advance and evaluate in an interleaved order, as a network's
      // advance and scoring passes do.
      a.set_time(t);
      a_twin.set_time(t);
      expect_same_evaluation(rng, a, a_twin, "a advance");
      b.set_time(t);
      b_twin.set_time(t);
      expect_same_evaluation(rng, b, b_twin, "b advance");
      for (std::size_t e = 0; e < 6; ++e) {
        if (rng.bernoulli(0.5)) {
          expect_same_evaluation(rng, a, a_twin, "a score");
        } else {
          expect_same_evaluation(rng, b, b_twin, "b score");
        }
      }
    }
  }
}

TEST(PathResponseProps, WorldRebuiltInPlaceNeverHitsAStaleTable) {
  const Rng base(kBaseSeed + 2);
  for (std::size_t i = 0; i < 40; ++i) {
    Rng rng = base.fork(i);
    sim::TrialWorkspace ws;
    std::optional<sim::LinkWorld> slot;
    slot.emplace(sim::ScenarioRegistry::instance().make(random_scenario(rng)));
    const sim::LinkWorld* first_address = &*slot;
    slot->bind_workspace(&ws);
    slot->set_time(0.3);
    // Fill the table completely (steering and delay phasors).
    (void)slot->true_snr_db(random_weights(rng, slot->config().tx_ula.num_elements));
    slot.reset();
    // A different world at the same address, bound to the same workspace,
    // evaluated either before any set_time of its own (only its
    // constructor's set_time stands between it and the old table) or
    // right after a set_time to the old world's time.
    const sim::ScenarioSpec spec = random_scenario(rng);
    slot.emplace(sim::ScenarioRegistry::instance().make(spec));
    ASSERT_EQ(&*slot, first_address) << "case " << i;
    slot->bind_workspace(&ws);
    sim::LinkWorld twin = sim::ScenarioRegistry::instance().make(spec);
    if (i % 2 == 1) {
      // The old world's exact tick first: same address, same time.
      slot->set_time(0.3);
      twin.set_time(0.3);
    }
    for (std::size_t e = 0; e < 4; ++e) {
      expect_same_evaluation(rng, *slot, twin,
                             "rebuilt case " + std::to_string(i));
    }
  }
}

TEST(PathResponseProps, ResetWorkspaceHoldsNoTable) {
  sim::ScenarioSpec spec;
  spec.name = "indoor_sparse";
  spec.config.seed = 5;
  sim::LinkWorld world = sim::ScenarioRegistry::instance().make(spec);
  sim::LinkWorld twin = sim::ScenarioRegistry::instance().make(spec);
  sim::TrialWorkspace ws;
  world.bind_workspace(&ws);
  const CVec w = array::single_beam_weights(world.config().tx_ula, 0.1);
  ASSERT_TRUE(same_bits(world.true_snr_db(w), twin.true_snr_db(w)));
  EXPECT_NE(ws.response_tick(), 0u);
  ws.reset();
  EXPECT_EQ(ws.response_tick(), 0u);
  // Same tick, rebuilt scratch: the world refills and still agrees.
  ASSERT_TRUE(same_bits(world.true_snr_db(w), twin.true_snr_db(w)));
}

/// An indoor world over a 64-subcarrier grid of `bandwidth_hz`.
sim::LinkWorld world_at_bandwidth(double bandwidth_hz) {
  sim::WorldConfig wc;
  wc.spec = {28.0e9, bandwidth_hz, 64};
  wc.tx_ula = {8, 0.5};
  const channel::Pose tx{sim::kIndoorGnbPosition, 0.0};
  const channel::Pose ue{{7.0, 6.2}, kPi};
  return sim::LinkWorld(channel::Environment::indoor_conference_room(), tx,
                        std::make_shared<channel::StaticPose>(ue), wc,
                        Rng(11));
}

// The grid a workspace caches depends on the bandwidth as well as the
// subcarrier count: two 64-subcarrier worlds at 400 and 100 MHz sharing
// one workspace must each score exactly like their unbound twins.
TEST(PathResponseProps, WorkspaceGridIsKeyedOnBandwidthToo) {
  sim::LinkWorld wide = world_at_bandwidth(400.0e6);
  sim::LinkWorld narrow = world_at_bandwidth(100.0e6);
  const sim::LinkWorld wide_twin = world_at_bandwidth(400.0e6);
  const sim::LinkWorld narrow_twin = world_at_bandwidth(100.0e6);
  sim::TrialWorkspace ws;
  wide.bind_workspace(&ws);
  narrow.bind_workspace(&ws);
  const CVec w = array::single_beam_weights(wide.config().tx_ula, 0.05);
  // The two grids give different powers, so a shared grid would show.
  ASSERT_NE(wide_twin.true_snr_db(w), narrow_twin.true_snr_db(w));
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(same_bits(wide.true_snr_db(w), wide_twin.true_snr_db(w)))
        << "round " << round;
    EXPECT_TRUE(same_bits(narrow.true_snr_db(w), narrow_twin.true_snr_db(w)))
        << "round " << round;
  }
}

}  // namespace
}  // namespace mmr
