#include "core/maintenance.h"

#include <gtest/gtest.h>

#include "sim/runner.h"
#include "sim/scenario.h"

namespace mmr::core {
namespace {

sim::ScenarioConfig cfg(std::uint64_t seed, bool sparse = false) {
  sim::ScenarioConfig c;
  c.seed = seed;
  c.sparse_room = sparse;
  return c;
}

TEST(Maintenance, EstablishesMultibeamOnStart) {
  sim::LinkWorld world = sim::make_indoor_world(cfg(3));
  auto ctrl = sim::make_mmreliable(world, cfg(3), 2);
  const auto link = world.probe_interface();
  ctrl->start(0.0, link);
  EXPECT_EQ(ctrl->num_active_beams(), 2u);
  EXPECT_EQ(ctrl->trainings(), 1);
  EXPECT_FALSE(ctrl->link_available(0.0));  // SSB burst in flight
  EXPECT_TRUE(ctrl->link_available(0.1));
}

// Training keeps max(max_beams + 1, 3) directions, and each is a column
// of the monitoring fit, which takes at most kMaxBeams.
TEST(Maintenance, TrainedDirectionsMustFitTheSuperresFit) {
  const sim::LinkWorld world = sim::make_indoor_world(cfg(3));
  EXPECT_NO_THROW(sim::make_mmreliable(world, cfg(3), kMaxBeams - 1));
  EXPECT_THROW(sim::make_mmreliable(world, cfg(3), kMaxBeams),
               std::logic_error);
}

TEST(Maintenance, StaticLinkStableForOneSecond) {
  sim::LinkWorld world = sim::make_indoor_world(cfg(5));
  auto ctrl = sim::make_mmreliable(world, cfg(5), 2);
  sim::RunConfig rc;
  rc.duration_s = 1.0;
  const auto r = sim::run_experiment(world, *ctrl, rc);
  EXPECT_EQ(ctrl->trainings(), 1);  // never needed a retrain
  EXPECT_GT(r.summary.reliability, 0.98);
  // SNR should never collapse on a static link.
  for (const auto& s : r.samples) {
    if (s.available) EXPECT_GT(s.snr_db, 20.0) << "at t=" << s.t_s;
  }
}

TEST(Maintenance, BlockageMarksBeamAndReallocates) {
  sim::LinkWorld world = sim::make_indoor_world(cfg(7), {0, 0}, 0.0);
  auto ctrl = sim::make_mmreliable(world, cfg(7), 2);
  const auto link = world.probe_interface();
  // Warm up.
  for (int i = 0; i < 40; ++i) {
    const double t = i * 2.5e-3;
    world.set_time(t);
    if (i == 0) ctrl->start(t, link); else ctrl->step(t, link);
  }
  // Park a deep blocker on the LOS.
  channel::GeometricBlocker::Config bc;
  bc.start = {3.75, 6.2};
  bc.velocity = {0.0, 0.0};
  bc.depth_db = 30.0;
  world.add_blocker(channel::GeometricBlocker(bc));
  for (int i = 40; i < 80; ++i) {
    const double t = i * 2.5e-3;
    world.set_time(t);
    ctrl->step(t, link);
  }
  // The LOS beam (index of angle nearest 0) should be flagged blocked.
  bool any_blocked = false;
  for (bool b : ctrl->blocked()) any_blocked |= b;
  EXPECT_TRUE(any_blocked);
  // And the link must still be above outage via the remaining beam(s).
  EXPECT_GT(world.true_snr_db(ctrl->tx_weights()), 6.0);
}

TEST(Maintenance, RecoversBlockedBeamAfterBlockerLeaves) {
  sim::LinkWorld world = sim::make_indoor_world(cfg(9));
  auto ctrl = sim::make_mmreliable(world, cfg(9), 2);
  const auto link = world.probe_interface();
  // Blocker crosses the LOS between t=0.3 and t=0.6.
  world.add_blocker(
      sim::crossing_blocker({0.5, 6.2}, {7.0, 6.2}, 0.45, 1.5));
  int blocked_during = 0, blocked_after = 0;
  for (int i = 0; i < 400; ++i) {
    const double t = i * 2.5e-3;
    world.set_time(t);
    if (i == 0) ctrl->start(t, link); else ctrl->step(t, link);
    int nb = 0;
    for (bool b : ctrl->blocked()) nb += b;
    if (t > 0.40 && t < 0.50) blocked_during += nb;
    if (t > 0.9) blocked_after += nb;
  }
  EXPECT_GT(blocked_during, 0);
  EXPECT_EQ(blocked_after, 0);  // recovered
}

TEST(Maintenance, TracksTranslatingUser) {
  sim::LinkWorld world = sim::make_indoor_world(cfg(11), {0.0, -1.0});
  auto ctrl = sim::make_mmreliable(world, cfg(11), 2);
  sim::RunConfig rc;
  rc.duration_s = 1.0;
  const auto r = sim::run_experiment(world, *ctrl, rc);
  EXPECT_GT(r.summary.reliability, 0.95);
  // Mean SNR while available stays healthy.
  double acc = 0.0;
  int n = 0;
  for (const auto& s : r.samples) {
    if (s.available) {
      acc += s.snr_db;
      ++n;
    }
  }
  EXPECT_GT(acc / n, 24.0);
}

TEST(Maintenance, RetrainsAfterTotalSustainedOutage) {
  sim::LinkWorld world = sim::make_indoor_world(cfg(13), {0, 0});
  auto ctrl = sim::make_mmreliable(world, cfg(13), 2);
  const auto link = world.probe_interface();
  for (int i = 0; i < 20; ++i) {
    const double t = i * 2.5e-3;
    world.set_time(t);
    if (i == 0) ctrl->start(t, link); else ctrl->step(t, link);
  }
  // Giant absorber right in front of the gNB: every path gone.
  channel::GeometricBlocker::Config bc;
  bc.start = {0.8, 6.2};
  bc.velocity = {0.0, 0.0};
  bc.radius_m = 1.2;
  bc.depth_db = 60.0;
  world.add_blocker(channel::GeometricBlocker(bc));
  for (int i = 20; i < 100; ++i) {
    const double t = i * 2.5e-3;
    world.set_time(t);
    ctrl->step(t, link);
  }
  EXPECT_GE(ctrl->trainings(), 2);
}

TEST(Maintenance, ProbeOverheadStaysLow) {
  sim::LinkWorld world = sim::make_indoor_world(cfg(15));
  auto ctrl = sim::make_mmreliable(world, cfg(15), 2);
  sim::RunConfig rc;
  rc.duration_s = 1.0;
  sim::run_experiment(world, *ctrl, rc);
  // Management airtime (excluding the one training) should be a small
  // fraction of the second (paper: sub-1% in steady state).
  const double mgmt = ctrl->management_airtime_s();
  EXPECT_LT(mgmt, 0.06);  // includes the 5 ms SSB burst
}

TEST(Maintenance, ThreeBeamUsesThreeActive) {
  sim::LinkWorld world = sim::make_indoor_world(cfg(17));
  auto ctrl = sim::make_mmreliable(world, cfg(17), 3);
  const auto link = world.probe_interface();
  ctrl->start(0.0, link);
  EXPECT_EQ(ctrl->num_active_beams(), 3u);
}

}  // namespace
}  // namespace mmr::core
