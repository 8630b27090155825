#include "common/stats.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace mmr {
namespace {

TEST(Percentile, Median) {
  const std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_NEAR(median(odd), 3.0, 1e-12);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_NEAR(median(even), 2.5, 1e-12);
}

TEST(Percentile, Extremes) {
  const std::vector<double> xs{10.0, 30.0, 20.0};
  EXPECT_NEAR(percentile(xs, 0.0), 10.0, 1e-12);
  EXPECT_NEAR(percentile(xs, 100.0), 30.0, 1e-12);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_NEAR(percentile(xs, 25.0), 2.5, 1e-12);
  EXPECT_NEAR(percentile(xs, 75.0), 7.5, 1e-12);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> xs{42.0};
  EXPECT_NEAR(percentile(xs, 50.0), 42.0, 0.0);
}

TEST(Percentile, RejectsEmptyAndBadP) {
  const std::vector<double> empty;
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(empty, 50.0), std::logic_error);
  EXPECT_THROW(percentile(xs, -1.0), std::logic_error);
  EXPECT_THROW(percentile(xs, 101.0), std::logic_error);
}

TEST(Mean, Basic) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_NEAR(mean(xs), 2.0, 1e-12);
}

class PercentileMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(PercentileMonotoneTest, NonDecreasingInP) {
  const std::vector<double> xs{5.0, 3.0, 9.0, 1.0, 7.0, 2.0};
  const double p = GetParam();
  EXPECT_LE(percentile(xs, p), percentile(xs, std::min(100.0, p + 10.0)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PercentileMonotoneTest,
                         ::testing::Values(0.0, 10.0, 33.3, 50.0, 75.0, 90.0));

}  // namespace
}  // namespace mmr
