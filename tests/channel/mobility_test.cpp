#include "channel/mobility.h"

#include <gtest/gtest.h>

#include "common/angles.h"

namespace mmr::channel {
namespace {

TEST(StaticPose, NeverMoves) {
  const StaticPose traj({{1.0, 2.0}, 0.5});
  const Pose p = traj.at(123.0);
  EXPECT_EQ(p.position.x, 1.0);
  EXPECT_EQ(p.position.y, 2.0);
  EXPECT_EQ(p.orientation_rad, 0.5);
}

TEST(LinearTranslation, ConstantVelocity) {
  const LinearTranslation traj({{0.0, 0.0}, 1.0}, {1.5, -0.5});
  const Pose p = traj.at(2.0);
  EXPECT_NEAR(p.position.x, 3.0, 1e-12);
  EXPECT_NEAR(p.position.y, -1.0, 1e-12);
  EXPECT_EQ(p.orientation_rad, 1.0);  // orientation unchanged
}

TEST(TranslateAndRotate, Combines) {
  const TranslateAndRotate traj({{0.0, 0.0}, 0.0}, {1.0, 0.0},
                                deg_to_rad(10.0));
  const Pose p = traj.at(2.0);
  EXPECT_NEAR(p.position.x, 2.0, 1e-12);
  EXPECT_NEAR(p.orientation_rad, deg_to_rad(20.0), 1e-12);
}

}  // namespace
}  // namespace mmr::channel
