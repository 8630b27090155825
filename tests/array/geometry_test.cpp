#include "array/geometry.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.h"

namespace mmr::array {
namespace {

TEST(Steering, UnitModulusElements) {
  const Ula ula{8, 0.5};
  const CVec a = steering_vector(ula, deg_to_rad(23.0));
  ASSERT_EQ(a.size(), 8u);
  for (const cplx& c : a) EXPECT_NEAR(std::abs(c), 1.0, 1e-12);
}

TEST(Steering, BroadsideIsAllOnes) {
  const Ula ula{8, 0.5};
  const CVec a = steering_vector(ula, 0.0);
  for (const cplx& c : a) EXPECT_NEAR(std::abs(c - cplx{1.0, 0.0}), 0.0, 1e-12);
}

TEST(Steering, PhaseProgression) {
  const Ula ula{4, 0.5};
  const double phi = deg_to_rad(30.0);
  const CVec a = steering_vector(ula, phi);
  // Adjacent-element phase difference: -2 pi d/lambda sin(phi) = -pi/2.
  const double expected = -2.0 * kPi * 0.5 * std::sin(phi);
  for (std::size_t n = 1; n < 4; ++n) {
    EXPECT_NEAR(wrap_pi(std::arg(a[n]) - std::arg(a[n - 1])), expected, 1e-12);
  }
}

TEST(SingleBeamWeights, UnitNorm) {
  const Ula ula{16, 0.5};
  const CVec w = single_beam_weights(ula, deg_to_rad(-17.0));
  double norm2 = 0.0;
  for (const cplx& c : w) norm2 += std::norm(c);
  EXPECT_NEAR(norm2, 1.0, 1e-12);
}

class MatchedGainTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MatchedGainTest, MatchedBeamGainIsN) {
  // |a(phi)^T w_phi|^2 = N for matched unit-norm weights.
  const Ula ula{GetParam(), 0.5};
  const double phi = deg_to_rad(11.0);
  const CVec a = steering_vector(ula, phi);
  const CVec w = single_beam_weights(ula, phi);
  cplx af{};
  for (std::size_t n = 0; n < a.size(); ++n) af += a[n] * w[n];
  EXPECT_NEAR(std::norm(af), static_cast<double>(GetParam()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatchedGainTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

TEST(Steering, RejectsDegenerateArray) {
  EXPECT_THROW(steering_vector(Ula{0, 0.5}, 0.0), std::logic_error);
  EXPECT_THROW(steering_vector(Ula{4, 0.0}, 0.0), std::logic_error);
}

}  // namespace
}  // namespace mmr::array
