#include "dsp/sinc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "common/rng.h"
#include "tests/common/diff_harness.h"
#include "tests/common/sinc_reference.h"

namespace mmr::dsp {
namespace {

using mmr::testing::reference_sinc_tap;
using mmr::testing::ulp_distance;

/// Declared bound of sinc_pulse against the per-tap libm form, absolute
/// per tap, for windows of up to 64 taps and delays within 3 samples of
/// the window. Both forms divide by the same x_n, but the per-tap form
/// takes its sin at x_n and sinc_pulse at the anchor's x_m, and each x
/// carries its own rounding of n ts, up to (n + 3) 2^-53 samples; with
/// |cos(pi x) / x| <= 1.06 away from the anchor that bounds the
/// difference by about 2.4e-16 (N + 3): 1.6e-14 at 64 taps, 6.3e-15 at
/// 24.
constexpr double kPulseBound = 2e-14;

/// Tap 0 of a one-tap pulse at tau = -x (B = ts = 1) is sinc(x).
double sinc_at(double x) {
  double tap = 0.0;
  sinc_pulse(1.0, 1.0, -x, {&tap, 1});
  return tap;
}

TEST(Sinc, KnownValues) {
  EXPECT_EQ(sinc_at(0.0), 1.0);
  EXPECT_NEAR(sinc_at(1.0), 0.0, 1e-15);
  EXPECT_NEAR(sinc_at(2.0), 0.0, 1e-15);
  EXPECT_NEAR(sinc_at(0.5), 2.0 / 3.14159265358979, 1e-9);
}

TEST(Sinc, Symmetry) {
  for (double x : {0.1, 0.5, 1.3, 2.7}) {
    EXPECT_NEAR(sinc_at(x), sinc_at(-x), 1e-15);
  }
  // A pulse centred between taps 7 and 8 is mirror-symmetric about them.
  RVec taps(16);
  sinc_pulse(1.0, 1.0, 7.5, taps);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_NEAR(taps[7 - k], taps[8 + k], 1e-15) << "k = " << k;
  }
}

TEST(SampledSinc, PulseAtIntegerDelayIsKronecker) {
  // tau = 3 Ts with B = 1/Ts: taps are sinc(n - 3) = delta[n-3], exactly.
  const double ts = 2.5e-9;
  const double bw = 1.0 / ts;
  RVec taps(8);
  sinc_pulse(ts, bw, 3.0 * ts, taps);
  for (std::size_t n = 0; n < 8; ++n) {
    EXPECT_EQ(taps[n], n == 3 ? 1.0 : 0.0) << "n = " << n;
  }
}

TEST(SampledSinc, FractionalDelaySpreadsEnergy) {
  const double ts = 2.5e-9;
  const double bw = 1.0 / ts;
  RVec taps(16);
  sinc_pulse(ts, bw, 3.5 * ts, taps);
  // Peak split between taps 3 and 4.
  EXPECT_NEAR(taps[3], taps[4], 1e-12);
  EXPECT_GT(taps[3], 0.6);
}

TEST(SincInterpolate, RecoversBandlimitedSignal) {
  // Build taps from a single fractional-delay pulse and interpolate back
  // at that delay: must return the pulse amplitude.
  const double ts = 2.5e-9;
  const double bw = 1.0 / ts;
  const double tau = 5.3 * ts;
  const cplx amp{0.7, -0.2};
  CVec taps(64);
  RVec pulse(64);
  sinc_pulse(ts, bw, tau, pulse);
  for (std::size_t n = 0; n < taps.size(); ++n) taps[n] = amp * pulse[n];
  const cplx rec = sinc_interpolate(taps, ts, bw, tau, pulse);
  EXPECT_NEAR(std::abs(rec - amp), 0.0, 2e-2);
}

TEST(SincInterpolate, AtSampleInstantsReturnsTaps) {
  const double ts = 1.0;
  const double bw = 1.0;
  CVec taps{{1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}};
  RVec pulse(taps.size());
  EXPECT_EQ(sinc_interpolate(taps, ts, bw, 1.0, pulse), cplx(2.0, 0.0));
}

TEST(SampledSinc, RejectsBadArgs) {
  RVec taps(4);
  EXPECT_THROW(sinc_pulse(0.0, 1.0, 0.0, taps), std::logic_error);
  EXPECT_THROW(sinc_pulse(1.0, 0.0, 0.0, taps), std::logic_error);
  EXPECT_THROW(sinc_pulse(-1.0, -1.0, 0.0, taps), std::logic_error);
  // B ts must be 1 to within 4 eps: the alternating-sign identity needs
  // taps one sample apart.
  EXPECT_THROW(sinc_pulse(2.5e-9, 1.0e8, 0.0, taps), std::logic_error);
  const double eps = std::numeric_limits<double>::epsilon();
  EXPECT_NO_THROW(sinc_pulse(1.0, 1.0 + 4.0 * eps, 0.0, taps));
  EXPECT_THROW(sinc_pulse(1.0, 1.0 + 8.0 * eps, 0.0, taps), std::logic_error);
  EXPECT_THROW(sinc_pulse(1.0, 1.0 - 8.0 * eps, 0.0, taps), std::logic_error);
  RVec mismatched(3);
  EXPECT_THROW(sinc_interpolate(CVec(4), 1.0, 1.0, 0.0, mismatched),
               std::logic_error);
}

// Every caller passes ts = fl(1 / B), and B fl(1 / B) misses 1 by an ulp
// for a share of bandwidths: those must be accepted.
TEST(SincPulse, AcceptsEveryReciprocalPeriod) {
  Rng rng(0x51AC0ull);
  std::size_t off_by_an_ulp = 0;
  RVec taps(16);
  for (int i = 0; i < 100000; ++i) {
    const double bw = rng.uniform(1e6, 1e10);
    const double ts = 1.0 / bw;
    if (bw * ts != 1.0) ++off_by_an_ulp;
    ASSERT_NO_THROW(sinc_pulse(ts, bw, 3.3 * ts, taps)) << "B = " << bw;
  }
  std::printf("B fl(1/B) != 1 for %zu of 100000 bandwidths\n", off_by_an_ulp);
  EXPECT_GT(off_by_an_ulp, 1000u);
}

/// A random delay in samples of one of three kinds: anywhere in
/// [-3, taps + 3]; within 1e-12..1e-6 of an integer (a tap that is
/// nearly a sample instant); or within 1e-9 of a half-integer.
double random_delay_samples(Rng& rng, std::size_t taps, int kind) {
  const double hi = static_cast<double>(taps) + 3.0;
  if (kind == 0) return rng.uniform(-3.0, hi);
  const double k = std::floor(rng.uniform(-3.0, hi));
  const double sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
  if (kind == 1) return k + sign * std::pow(10.0, rng.uniform(-12.0, -6.0));
  return k + 0.5 + sign * rng.uniform(0.0, 1e-9);
}

/// A bandwidth whose B fl(1 / B) is exactly 1 (`exact`) or not.
double random_bandwidth(Rng& rng, bool exact) {
  for (;;) {
    const double bw = rng.uniform(50e6, 4e9);
    if ((bw * (1.0 / bw) == 1.0) == exact) return bw;
  }
}

// The declared bound: over 10^5 random pulses of 16, 24 and 64 taps,
// every tap is within kPulseBound of the per-tap libm form, and the
// anchor tap within 2 ulp of it.
TEST(SincPulse, MatchesPerTapLibmWithinDeclaredBound) {
  constexpr std::size_t kPulses = 120000;
  constexpr std::size_t kTapCounts[] = {16, 24, 64};
  Rng rng(0x5146C0ull);
  RVec out(64);
  double max_err[3] = {0.0, 0.0, 0.0};
  std::uint64_t max_anchor_ulp = 0;
  std::size_t failures = 0;
  for (std::size_t p = 0; p < kPulses; ++p) {
    const std::size_t taps = kTapCounts[p % 3];
    const int kind = static_cast<int>((p / 3) % 3);
    const bool exact = (p / 9) % 2 == 0;
    const double bw = p % 7 == 0 ? 400e6 : random_bandwidth(rng, exact);
    const double ts = 1.0 / bw;
    const double tau = random_delay_samples(rng, taps, kind) * ts;
    const std::span<double> pulse(out.data(), taps);
    sinc_pulse(ts, bw, tau, pulse);
    for (std::size_t n = 0; n < taps; ++n) {
      const double ref = reference_sinc_tap(n, ts, bw, tau);
      const double err = std::abs(pulse[n] - ref);
      max_err[p % 3] = std::max(max_err[p % 3], err);
      if (!(err <= kPulseBound) && ++failures <= 5) {
        ADD_FAILURE() << "tap " << n << " of " << taps << ", B = " << bw
                      << ", tau = " << tau / ts << " samples: |"
                      << pulse[n] << " - " << ref << "| = " << err;
      }
    }
    const double centre = std::round(bw * tau);
    const std::size_t m =
        centre > 0.0 ? static_cast<std::size_t>(
                           std::min(centre, static_cast<double>(taps - 1)))
                     : 0;
    max_anchor_ulp =
        std::max(max_anchor_ulp,
                 ulp_distance(pulse[m], reference_sinc_tap(m, ts, bw, tau)));
  }
  std::printf("sinc_pulse vs per-tap libm over %zu pulses: max |error| "
              "%.3g / %.3g / %.3g at 16 / 24 / 64 taps, anchor tap max "
              "%llu ulp\n",
              kPulses, max_err[0], max_err[1], max_err[2],
              static_cast<unsigned long long>(max_anchor_ulp));
  EXPECT_EQ(failures, 0u);
  EXPECT_LE(max_anchor_ulp, 2u);
}

// A delay of k ts, k inside the window, is an exact Kronecker delta (1.0
// at tap k, +-0.0 elsewhere). The per-tap form only approximates it: its
// sin(fl(pi) (n - k)) is not 0, so it leaves ~1e-17 at the other taps.
TEST(SincPulse, IntegerDelaysGiveAnExactKroneckerDelta) {
  Rng rng(0xD317Aull);
  RVec out(64);
  std::size_t per_tap_residues = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::size_t taps = (i % 3 == 0) ? 16 : (i % 3 == 1) ? 24 : 64;
    const double bw = random_bandwidth(rng, i % 2 == 0);
    const double ts = 1.0 / bw;
    const std::size_t k = rng.uniform_index(taps);
    const double tau = static_cast<double>(k) * ts;
    const std::span<double> pulse(out.data(), taps);
    sinc_pulse(ts, bw, tau, pulse);
    for (std::size_t n = 0; n < taps; ++n) {
      ASSERT_EQ(pulse[n], n == k ? 1.0 : 0.0)
          << "tap " << n << " of a pulse at tap " << k << ", B = " << bw;
      if (reference_sinc_tap(n, ts, bw, tau) != (n == k ? 1.0 : 0.0)) {
        ++per_tap_residues;
      }
    }
  }
  std::printf("per-tap form: %zu inexact Kronecker taps\n", per_tap_residues);
  EXPECT_GT(per_tap_residues, 0u);
}

}  // namespace
}  // namespace mmr::dsp
