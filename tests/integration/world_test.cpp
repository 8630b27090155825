#include "sim/world.h"

#include <gtest/gtest.h>

#include "array/geometry.h"
#include "common/angles.h"
#include "sim/scenario.h"

namespace mmr::sim {
namespace {

ScenarioConfig cfg(std::uint64_t seed) {
  ScenarioConfig c;
  c.seed = seed;
  return c;
}

TEST(World, DeterministicAcrossRunsWithSameSeed) {
  LinkWorld a = make_indoor_world(cfg(3));
  LinkWorld b = make_indoor_world(cfg(3));
  const auto la = a.probe_interface();
  const auto lb = b.probe_interface();
  const CVec w = array::single_beam_weights(a.config().tx_ula, 0.0);
  const CVec ca = la.csi(w);
  const CVec cb = lb.csi(w);
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t k = 0; k < ca.size(); ++k) {
    EXPECT_EQ(ca[k], cb[k]);
  }
}

TEST(World, ProbesReflectTruePowerAtHighSnr) {
  LinkWorld world = make_indoor_world(cfg(5));
  const auto link = world.probe_interface();
  const CVec w = array::single_beam_weights(world.config().tx_ula, 0.0);
  const double truth = world.true_power(w);
  double measured = 0.0;
  const int reps = 10;
  for (int i = 0; i < reps; ++i) {
    const CVec csi = link.csi(w);
    double p = 0.0;
    for (const cplx& h : csi) p += std::norm(h);
    measured += p / static_cast<double>(csi.size());
  }
  measured /= reps;
  EXPECT_NEAR(measured / truth, 1.0, 0.05);
}

TEST(World, MobilityChangesPathAngles) {
  LinkWorld world = make_indoor_world(cfg(7), {0.0, -1.5});
  double aod0 = 0.0, aod1 = 0.0;
  world.set_time(0.0);
  for (const auto& p : world.paths()) {
    if (p.is_los) aod0 = p.aod_rad;
  }
  world.set_time(1.0);
  for (const auto& p : world.paths()) {
    if (p.is_los) aod1 = p.aod_rad;
  }
  EXPECT_GT(std::abs(aod1 - aod0), deg_to_rad(5.0));
}

TEST(World, BlockerAttenuatesLosOnly) {
  LinkWorld world = make_indoor_world(cfg(9));
  channel::GeometricBlocker::Config bc;
  bc.start = {3.75, 6.2};  // on the LOS line
  bc.velocity = {0.0, 0.0};
  bc.depth_db = 26.0;
  world.add_blocker(channel::GeometricBlocker(bc));
  for (const auto& p : world.paths()) {
    if (p.is_los) {
      EXPECT_NEAR(p.blockage_db, 26.0, 1e-9);
    } else if (std::abs(rad_to_deg(p.aod_rad)) > 10.0) {
      EXPECT_LT(p.blockage_db, 1.0);
    }
  }
}

TEST(World, SnrMatchesBudgetRoundTrip) {
  LinkWorld world = make_indoor_world(cfg(13));
  const CVec w = array::single_beam_weights(world.config().tx_ula, 0.0);
  const double snr = world.true_snr_db(w);
  EXPECT_NEAR(world.config().budget.snr_db(world.true_power(w)), snr, 1e-12);
  // Indoor 6.5 m with 8-element gain: sane SNR range.
  EXPECT_GT(snr, 20.0);
  EXPECT_LT(snr, 40.0);
}

TEST(World, PerAntennaChannelSize) {
  LinkWorld world = make_indoor_world(cfg(15));
  EXPECT_EQ(world.true_per_antenna_channel().size(),
            world.config().tx_ula.num_elements);
}

TEST(World, OutdoorLinkHasLowerSnrAtDistance) {
  const double snr40 =
      [&] {
        LinkWorld w = make_outdoor_world(cfg(17), 40.0);
        return w.true_snr_db(
            array::single_beam_weights(w.config().tx_ula, 0.0));
      }();
  const double snr80 =
      [&] {
        LinkWorld w = make_outdoor_world(cfg(17), 80.0);
        return w.true_snr_db(
            array::single_beam_weights(w.config().tx_ula, 0.0));
      }();
  EXPECT_GT(snr40, snr80 + 4.0);
  EXPECT_GT(snr80, 6.0);  // still a viable link (paper: 80 m works)
}

}  // namespace
}  // namespace mmr::sim
