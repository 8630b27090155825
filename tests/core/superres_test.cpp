#include "core/superres.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "tests/common/sinc_reference.h"

namespace mmr::core {
namespace {

constexpr double kBw = 400e6;
constexpr double kTs = 1.0 / kBw;  // 2.5 ns

CVec synth_cir(std::size_t taps, const std::vector<cplx>& amps,
               const RVec& delays, double shift = 0.0) {
  CVec cir(taps, cplx{});
  for (std::size_t k = 0; k < amps.size(); ++k) {
    for (std::size_t n = 0; n < taps; ++n) {
      cir[n] += amps[k] * mmr::testing::reference_sinc_tap(
                              n, kTs, kBw, delays[k] + shift);
    }
  }
  return cir;
}

TEST(Superres, SinglePathExactAmplitude) {
  const cplx amp{0.7, -0.4};
  const CVec cir = synth_cir(24, {amp}, {3.2e-9});
  const SuperresResult fit = superres_per_beam(cir, {3.2e-9}, kTs, kBw);
  ASSERT_EQ(fit.alphas.size(), 1u);
  EXPECT_NEAR(std::abs(fit.alphas[0] - amp), 0.0, 1e-3);
}

TEST(Superres, TwoResolvedPaths) {
  const std::vector<cplx> amps{{1.0, 0.0}, {0.4, 0.3}};
  const RVec delays{0.0, 7.5e-9};  // 3 taps apart: fully resolved
  const CVec cir = synth_cir(24, amps, delays);
  const SuperresResult fit = superres_per_beam(cir, delays, kTs, kBw);
  EXPECT_NEAR(std::abs(fit.alphas[0] - amps[0]), 0.0, 1e-3);
  EXPECT_NEAR(std::abs(fit.alphas[1] - amps[1]), 0.0, 1e-3);
}

class SubResolutionTest : public ::testing::TestWithParam<double> {};

TEST_P(SubResolutionTest, PowerRecoveredBelowFourierLimit) {
  // Paper Fig. 11a: per-beam power MSE stays low even when the relative
  // ToF is below the 2.5 ns resolution.
  const double rel_tof = GetParam() * 1e-9;
  const std::vector<cplx> amps{{1.0, 0.0}, std::polar(0.5, 1.0)};
  const RVec delays{0.0, rel_tof};
  const CVec cir = synth_cir(24, amps, delays);
  const SuperresResult fit = superres_per_beam(cir, delays, kTs, kBw);
  const RVec p = fit.powers();
  EXPECT_NEAR(p[0], 1.0, 0.05) << "rel ToF " << rel_tof;
  EXPECT_NEAR(p[1], 0.25, 0.05) << "rel ToF " << rel_tof;
}

INSTANTIATE_TEST_SUITE_P(TofSweep, SubResolutionTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.5, 2.0, 2.5,
                                           3.5, 5.0));

TEST(Superres, CommonShiftAbsorbed) {
  // Receiver timing error shifts the whole CIR; the common-shift search
  // must still attribute the powers correctly.
  const std::vector<cplx> amps{{1.0, 0.0}, {0.0, 0.5}};
  const RVec delays{0.0, 1.2e-9};
  const CVec cir = synth_cir(24, amps, delays, /*shift=*/0.6e-9);
  const SuperresResult fit = superres_per_beam(cir, delays, kTs, kBw);
  const RVec p = fit.powers();
  EXPECT_NEAR(p[0], 1.0, 0.1);
  EXPECT_NEAR(p[1], 0.25, 0.1);
  // The refined delays should have moved by roughly the shift.
  EXPECT_NEAR(fit.delays_s[0], 0.6e-9, 0.3e-9);
}

TEST(Superres, NoiseRobustness) {
  Rng rng(3);
  const std::vector<cplx> amps{{1.0, 0.0}, std::polar(0.5, -0.8)};
  const RVec delays{0.0, 2.0e-9};
  CVec cir = synth_cir(32, amps, delays);
  for (cplx& c : cir) c += rng.complex_normal(1e-4);  // 40 dB SNR
  const SuperresResult fit = superres_per_beam(cir, delays, kTs, kBw);
  const RVec p = fit.powers();
  EXPECT_NEAR(p[0], 1.0, 0.15);
  EXPECT_NEAR(p[1], 0.25, 0.15);
}

TEST(Superres, ResidualSmallOnModelMatch) {
  const std::vector<cplx> amps{{1.0, 0.0}};
  const CVec cir = synth_cir(24, amps, {2.5e-9});
  const SuperresResult fit = superres_per_beam(cir, {2.5e-9}, kTs, kBw);
  EXPECT_LT(fit.residual, 0.05);
}

TEST(Superres, ReconstructionMatchesInput) {
  // Paper Fig. 11b: the fitted sincs reproduce the measured CIR.
  const std::vector<cplx> amps{{1.0, 0.0}, std::polar(0.6, 0.5)};
  const RVec delays{0.0, 4.0e-9};
  const CVec cir = synth_cir(24, amps, delays);
  const SuperresResult fit = superres_per_beam(cir, delays, kTs, kBw);
  const CVec model = reconstruct_cir(fit, 24, kTs, kBw);
  for (std::size_t n = 0; n < 24; ++n) {
    EXPECT_NEAR(std::abs(model[n] - cir[n]), 0.0, 0.02);
  }
}

TEST(Superres, ReconstructRejectsMismatchedFit) {
  SuperresResult fit;
  fit.alphas = {{1.0, 0.0}, {0.5, 0.0}};
  fit.delays_s = {0.0};
  EXPECT_THROW(reconstruct_cir(fit, 24, kTs, kBw), std::logic_error);
}

TEST(PeakDelay, IntegerTap) {
  const CVec cir = synth_cir(16, {{1.0, 0.0}}, {5.0e-9});
  EXPECT_NEAR(estimate_peak_delay(cir, kTs), 5.0e-9, 0.1e-9);
}

TEST(PeakDelay, FractionalTapInterpolated) {
  const CVec cir = synth_cir(16, {{1.0, 0.0}}, {5.9e-9});
  EXPECT_NEAR(estimate_peak_delay(cir, kTs), 5.9e-9, 0.4e-9);
}

TEST(PeakDelay, PeakAtZero) {
  const CVec cir = synth_cir(16, {{1.0, 0.0}}, {0.0});
  EXPECT_NEAR(estimate_peak_delay(cir, kTs), 0.0, 0.3e-9);
}

TEST(Superres, RejectsBadInputs) {
  const CVec cir(8, cplx{1.0, 0.0});
  EXPECT_THROW(superres_per_beam({}, {0.0}, kTs, kBw), std::logic_error);
  EXPECT_THROW(superres_per_beam(cir, {}, kTs, kBw), std::logic_error);
  SuperresConfig bad;
  bad.lambda = 0.0;
  EXPECT_THROW(superres_per_beam(cir, {0.0}, kTs, kBw, bad),
               std::logic_error);
}

// The fit is compiled once for each K in 1..kMaxBeams, and no runtime-K
// fit stands beside it.
TEST(Superres, MoreBeamsThanKMaxBeamsThrow) {
  const CVec cir(32, cplx{1.0, 0.0});
  const RVec delays(kMaxBeams + 1, 0.0);
  SuperresWorkspace workspace;
  EXPECT_THROW(superres_per_beam(cir, delays, kTs, kBw), std::logic_error);
  EXPECT_THROW(superres_per_beam(cir, delays, kTs, kBw, {}, workspace),
               std::logic_error);
  const RVec most(kMaxBeams, 0.0);
  EXPECT_EQ(superres_per_beam(cir, most, kTs, kBw).alphas.size(), kMaxBeams);
}

TEST(Superres, NonFiniteTapsAreGatedNotPropagated) {
  const cplx amp{0.7, -0.4};
  CVec cir = synth_cir(24, {amp}, {3.2e-9});
  // Corrupt two taps far from the arrival: a NaN and an Inf word.
  cir[20] = cplx{std::nan(""), std::nan("")};
  cir[22] = cplx{std::numeric_limits<double>::infinity(), 0.0};
  const SuperresResult fit = superres_per_beam(cir, {3.2e-9}, kTs, kBw);
  ASSERT_EQ(fit.alphas.size(), 1u);
  EXPECT_TRUE(std::isfinite(fit.alphas[0].real()));
  EXPECT_TRUE(std::isfinite(fit.alphas[0].imag()));
  EXPECT_TRUE(std::isfinite(fit.residual));
  for (double p : fit.powers()) EXPECT_TRUE(std::isfinite(p));
  // Zeroing two remote taps barely perturbs the fitted amplitude.
  EXPECT_NEAR(std::abs(fit.alphas[0] - amp), 0.0, 5e-2);
}

TEST(Superres, FullyCorruptCirYieldsFiniteZeroishFit) {
  CVec cir(24, cplx{std::nan(""), std::nan("")});
  const SuperresResult fit = superres_per_beam(cir, {0.0, 7.5e-9}, kTs, kBw);
  ASSERT_EQ(fit.alphas.size(), 2u);
  for (const cplx& a : fit.alphas) {
    EXPECT_TRUE(std::isfinite(a.real()));
    EXPECT_TRUE(std::isfinite(a.imag()));
    EXPECT_NEAR(std::abs(a), 0.0, 1e-12);
  }
  for (double p : fit.powers()) EXPECT_EQ(p, 0.0);
  EXPECT_TRUE(std::isfinite(fit.residual));
}

TEST(PeakDelay, IgnoresNonFiniteTaps) {
  CVec cir = synth_cir(16, {{1.0, 0.0}}, {5.0e-9});
  cir[12] = cplx{std::numeric_limits<double>::infinity(), 0.0};
  EXPECT_NEAR(estimate_peak_delay(cir, kTs), 5.0e-9, 0.4e-9);
}

}  // namespace
}  // namespace mmr::core
