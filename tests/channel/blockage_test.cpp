#include "channel/blockage.h"

#include <gtest/gtest.h>

namespace mmr::channel {
namespace {

GeometricBlocker::Config blocker_at(Vec2 start, Vec2 vel) {
  GeometricBlocker::Config c;
  c.start = start;
  c.velocity = vel;
  c.radius_m = 0.25;
  c.ramp_margin_m = 0.15;
  c.depth_db = 26.0;
  return c;
}

TEST(GeometricBlocker, PositionFollowsVelocity) {
  const GeometricBlocker b(blocker_at({1.0, 2.0}, {0.5, -1.0}));
  const Vec2 p = b.position_at(2.0);
  EXPECT_NEAR(p.x, 2.0, 1e-12);
  EXPECT_NEAR(p.y, 0.0, 1e-12);
}

TEST(GeometricBlocker, FullDepthOnPath) {
  const GeometricBlocker b(blocker_at({5.0, 0.0}, {0.0, 0.0}));
  // LOS from (0,0) to (10,0) passes through the blocker.
  EXPECT_NEAR(b.attenuation_db(0.0, {0.0, 0.0}, {10.0, 0.0}, nullptr), 26.0,
              1e-12);
}

TEST(GeometricBlocker, ZeroFarFromPath) {
  const GeometricBlocker b(blocker_at({5.0, 3.0}, {0.0, 0.0}));
  EXPECT_EQ(b.attenuation_db(0.0, {0.0, 0.0}, {10.0, 0.0}, nullptr), 0.0);
}

TEST(GeometricBlocker, RampIsMonotone) {
  // Slide the blocker toward the path; attenuation grows monotonically
  // through the ramp region.
  double prev = -1.0;
  for (double y = 0.41; y > 0.24; y -= 0.02) {
    const GeometricBlocker b(blocker_at({5.0, y}, {0.0, 0.0}));
    const double a = b.attenuation_db(0.0, {0.0, 0.0}, {10.0, 0.0}, nullptr);
    EXPECT_GE(a, prev);
    prev = a;
  }
  EXPECT_NEAR(prev, 26.0, 2.0);
}

TEST(GeometricBlocker, ReflectedPathUsesBothLegs) {
  const GeometricBlocker b(blocker_at({2.5, 2.5}, {0.0, 0.0}));
  const Vec2 refl{5.0, 5.0};
  // Blocker sits on the tx->reflection leg.
  EXPECT_NEAR(b.attenuation_db(0.0, {0.0, 0.0}, {10.0, 0.0}, &refl), 26.0,
              1e-9);
  // But not on the LOS.
  EXPECT_EQ(b.attenuation_db(0.0, {0.0, 0.0}, {10.0, 0.0}, nullptr), 0.0);
}

}  // namespace
}  // namespace mmr::channel
