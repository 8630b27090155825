// Golden-value regression for the rewired kernel callers, in the style of
// integration/sweep_golden_test.cpp: fixed inputs, constants pinned at
// %.17g from the first post-kernel run. The differential suite proves the
// kernels match a scalar reference; this file freezes the absolute values
// so a future "optimization" that shifts results numerically trips a
// loud, reviewable diff instead of drifting silently.
#include <gtest/gtest.h>

#include <cmath>

#include "array/geometry.h"
#include "array/pattern.h"
#include "common/angles.h"
#include "common/rng.h"

namespace mmr::array {
namespace {

constexpr double kRelTol = 1e-9;

void expect_close(double got, double want, const char* what) {
  const double tol = std::abs(want) * kRelTol + 1e-12;
  EXPECT_NEAR(got, want, tol) << what;
}

TEST(KernelGolden, MatchedBeamPatternCut) {
  const Ula ula{16, 0.5};
  const CVec w = single_beam_weights(ula, 0.3);
  const PatternCut cut = pattern_cut(ula, w, -kPi / 3.0, kPi / 3.0, 9);
  ASSERT_EQ(cut.angle_rad.size(), 9u);
  ASSERT_EQ(cut.gain_db.size(), 9u);

  expect_close(cut.angle_rad.front(), -1.0471975511965976, "angle[0]");
  expect_close(cut.angle_rad.back(), 1.0471975511965976, "angle[8]");

  const double want_gain_db[9] = {
      -13.754576842129149,  -35.653478752746693, -12.401382401768466,
      -9.8963166108542797,  -5.8772785064663875, 10.7773707532392,
      -2.8428925658478259,  -9.6283194135577883, -10.070395734303986};
  for (std::size_t i = 0; i < 9; ++i) {
    expect_close(cut.gain_db[i], want_gain_db[i], "matched cut gain");
  }
  // The grid point nearest the steered direction carries the ~10*log10(N)
  // matched gain; sanity-pin the peak location too.
  std::size_t peak = 0;
  for (std::size_t i = 1; i < 9; ++i) {
    if (cut.gain_db[i] > cut.gain_db[peak]) peak = i;
  }
  EXPECT_EQ(peak, 5u);
}

TEST(KernelGolden, FrozenSeedRandomWeightPatternCut) {
  const Ula ula{8, 0.5};
  Rng rng(0xB07D5EEDull);
  CVec w(ula.num_elements);
  for (auto& c : w) c = rng.complex_normal();
  const PatternCut cut = pattern_cut(ula, w, -1.2, 1.2, 7);
  ASSERT_EQ(cut.gain_db.size(), 7u);

  const double want_gain_db[7] = {
      6.9560302506840008, 6.0215334723455607,  13.330272172935153,
      12.102094539773844, -1.2368606838960736, 10.435857206740042,
      9.3825558863024874};
  for (std::size_t i = 0; i < 7; ++i) {
    expect_close(cut.gain_db[i], want_gain_db[i], "random-weight cut gain");
  }
}

}  // namespace
}  // namespace mmr::array
