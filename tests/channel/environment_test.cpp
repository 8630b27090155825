#include "channel/environment.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.h"
#include "common/constants.h"

namespace mmr::channel {
namespace {

TEST(Environment, FreeSpaceHasOnlyLos) {
  Environment env(kCarrier28GHz);
  const Pose tx{{0.0, 0.0}, 0.0};
  const Pose rx{{10.0, 0.0}, kPi};
  const auto paths = env.trace(tx, rx);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_TRUE(paths[0].is_los);
  EXPECT_NEAR(paths[0].aod_rad, 0.0, 1e-12);
  EXPECT_NEAR(paths[0].aoa_rad, 0.0, 1e-12);
  EXPECT_NEAR(paths[0].delay_s, 10.0 / kSpeedOfLight, 1e-15);
}

TEST(Environment, SingleReflectorGeometry) {
  // Wall at y = 5, tx at origin, rx at (10, 0): reflection point (5, 5),
  // AoD 45 degrees, path length 10 sqrt(2).
  Environment env(kCarrier28GHz);
  env.add_wall({{{-20.0, 5.0}, {30.0, 5.0}}, Material::metal()});
  const Pose tx{{0.0, 0.0}, 0.0};
  const Pose rx{{10.0, 0.0}, kPi};
  const auto paths = env.trace(tx, rx);
  ASSERT_EQ(paths.size(), 2u);
  const Path* nlos = paths[0].is_los ? &paths[1] : &paths[0];
  EXPECT_NEAR(nlos->aod_rad, deg_to_rad(45.0), 1e-9);
  EXPECT_NEAR(nlos->reflection_point.x, 5.0, 1e-9);
  EXPECT_NEAR(nlos->reflection_point.y, 5.0, 1e-9);
  EXPECT_NEAR(nlos->delay_s, 10.0 * std::sqrt(2.0) / kSpeedOfLight, 1e-14);
}

TEST(Environment, ReflectedPathWeakerThanLos) {
  Environment env(kCarrier28GHz);
  env.add_wall({{{-20.0, 5.0}, {30.0, 5.0}}, Material::glass()});
  const auto paths =
      env.trace({{0.0, 0.0}, 0.0}, {{10.0, 0.0}, kPi});
  ASSERT_EQ(paths.size(), 2u);
  // sorted_by_power: LOS first.
  EXPECT_TRUE(paths[0].is_los);
  EXPECT_GT(paths[0].effective_power(), paths[1].effective_power());
}

TEST(Environment, OcclusionBlocksLos) {
  Environment env(kCarrier28GHz);
  // Occluding wall between tx and rx.
  env.add_wall({{{5.0, -1.0}, {5.0, 1.0}}, Material::concrete()});
  const auto paths =
      env.trace({{0.0, 0.0}, 0.0}, {{10.0, 0.0}, kPi});
  for (const Path& p : paths) EXPECT_FALSE(p.is_los);
}

TEST(Environment, NonOccludingWallReflectsButDoesNotBlock) {
  Environment env(kCarrier28GHz);
  env.add_wall({{{5.0, -1.0}, {5.0, 1.0}}, Material::metal(), false});
  const auto paths =
      env.trace({{0.0, 0.0}, 0.0}, {{10.0, 0.0}, kPi});
  bool has_los = false;
  for (const Path& p : paths) has_los |= p.is_los;
  EXPECT_TRUE(has_los);
}

TEST(Environment, RearPathsMaskedByElementPattern) {
  // A reflector BEHIND the tx would need |AoD| > 90 deg; the element
  // pattern must suppress it entirely.
  Environment env(kCarrier28GHz);
  env.add_wall({{{-5.0, -10.0}, {-5.0, 10.0}}, Material::metal()});
  const auto paths =
      env.trace({{0.0, 0.0}, 0.0}, {{10.0, 0.0}, kPi});
  for (const Path& p : paths) {
    EXPECT_LE(std::abs(p.aod_rad), kPi / 2.0 + 1e-9);
  }
}

TEST(Environment, PruningDropsVeryWeakPaths) {
  Environment env(kCarrier28GHz);
  env.add_wall({{{-20.0, 5.0}, {30.0, 5.0}}, Material::metal()});
  const Pose tx{{0.0, 0.0}, 0.0};
  const Pose rx{{10.0, 0.0}, kPi};
  // With a 1 dB pruning threshold the (weaker) reflection must vanish.
  const auto paths = env.trace(tx, rx, /*min_rel_power_db=*/1.0);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_TRUE(paths[0].is_los);
}

TEST(Environment, CannedRoomsProduceMultipath) {
  {
    Environment env = Environment::indoor_conference_room();
    const auto paths = env.trace({{0.5, 6.2}, 0.0}, {{7.0, 6.2}, kPi});
    EXPECT_GE(paths.size(), 3u);
  }
  {
    Environment env = Environment::indoor_sparse();
    const auto paths = env.trace({{0.5, 6.2}, 0.0}, {{7.0, 6.2}, kPi});
    EXPECT_GE(paths.size(), 2u);
  }
  {
    Environment env = Environment::outdoor_street();
    const auto paths = env.trace({{0.0, 0.0}, 0.0}, {{40.0, 0.0}, kPi});
    EXPECT_GE(paths.size(), 2u);
  }
}

TEST(Environment, OutdoorReflectorWithinPaperAttenuationRange) {
  // Paper Fig. 4a: outdoor reflectors attenuate 1-10 dB relative to LOS
  // with a median near 5 dB.
  Environment env = Environment::outdoor_street();
  const auto paths = env.trace({{0.0, 0.0}, 0.0}, {{40.0, 0.0}, kPi});
  ASSERT_GE(paths.size(), 2u);
  const double rel_db = 10.0 * std::log10(paths[0].effective_power() /
                                          paths[1].effective_power());
  EXPECT_GT(rel_db, 1.0);
  EXPECT_LT(rel_db, 12.0);
}

TEST(Path, BlockageAttenuatesEffectiveGain) {
  Path p;
  p.gain = cplx{1.0, 0.0};
  p.blockage_db = 20.0;
  EXPECT_NEAR(p.effective_power(), 0.01, 1e-9);
}

TEST(Path, SortedByPowerUsesBlockage) {
  Path strong_but_blocked;
  strong_but_blocked.gain = cplx{1.0, 0.0};
  strong_but_blocked.blockage_db = 30.0;
  Path weak_clear;
  weak_clear.gain = cplx{0.5, 0.0};
  const auto sorted = sorted_by_power({strong_but_blocked, weak_clear});
  EXPECT_NEAR(std::abs(sorted[0].gain), 0.5, 1e-12);
}

}  // namespace
}  // namespace mmr::channel
