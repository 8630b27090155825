// Property suite for the cross-link interference model (net/interference.h),
// >= 1000 Rng::fork cases per property:
//   * SINR never exceeds SNR, and recovers SNR bit-for-bit at zero INR;
//   * SINR is monotone non-increasing in the interference power;
//   * an interferer steering AT the victim couples at least as much power
//     as any other steering choice (the main lobe IS the worst case);
//   * coupling is monotone decreasing in distance and vanishes at
//     infinite separation (zero-interference recovery);
//   * the batched evaluator agrees with the scalar one exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <span>
#include <vector>

#include "array/geometry.h"
#include "array/pattern.h"
#include "array/weights.h"
#include "common/angles.h"
#include "common/rng.h"
#include "common/types.h"
#include "net/interference.h"
#include "sim/runner.h"

namespace {

using namespace mmr;

constexpr std::size_t kCases = 1200;
constexpr std::uint64_t kBaseSeed = 0x51412;  // "SINR"

array::Ula random_ula(Rng& rng) {
  array::Ula ula;
  ula.num_elements = 4 + static_cast<std::size_t>(rng.uniform_index(29));
  ula.spacing_wavelengths = 0.5;
  return ula;
}

/// Conjugate-steered unit-norm weights: maximum gain toward `phi`.
CVec steer(const array::Ula& ula, double phi) {
  const CVec a = array::steering_vector(ula, phi);
  CVec w(a.size());
  for (std::size_t n = 0; n < a.size(); ++n) w[n] = std::conj(a[n]);
  return array::normalize_trp(w);
}

TEST(InterferenceProps, SinrNeverExceedsSnrAndRecoversItAtZeroInr) {
  const Rng base(kBaseSeed);
  for (std::size_t i = 0; i < kCases; ++i) {
    Rng rng = base.fork(i);
    const double snr = rng.uniform(-30.0, 60.0);
    const double inr = rng.uniform(0.0, 1.0e4);
    const double sinr = sim::sinr_db(snr, inr);
    ASSERT_LE(sinr, snr) << "case " << i;
    // Bitwise: zero interference must not perturb the scored SNR (the
    // single-link byte-identity collapse depends on it).
    const double recovered = sim::sinr_db(snr, 0.0);
    ASSERT_EQ(recovered, snr) << "case " << i;
  }
}

TEST(InterferenceProps, SinrIsMonotoneNonIncreasingInInr) {
  const Rng base(kBaseSeed + 1);
  for (std::size_t i = 0; i < kCases; ++i) {
    Rng rng = base.fork(i);
    const double snr = rng.uniform(-30.0, 60.0);
    double inr1 = rng.uniform(0.0, 1.0e3);
    double inr2 = rng.uniform(0.0, 1.0e3);
    if (inr1 > inr2) std::swap(inr1, inr2);
    ASSERT_GE(sim::sinr_db(snr, inr1), sim::sinr_db(snr, inr2))
        << "case " << i << " inr1 " << inr1 << " inr2 " << inr2;
  }
}

TEST(InterferenceProps, SteeringAtTheVictimIsTheWorstCase) {
  const Rng base(kBaseSeed + 2);
  for (std::size_t i = 0; i < kCases; ++i) {
    Rng rng = base.fork(i);
    const array::Ula ula = random_ula(rng);
    const double victim = rng.uniform(-kPi / 3.0, kPi / 3.0);
    const double d = rng.uniform(2.0, 200.0);
    const double carrier = rng.uniform(24.0e9, 70.0e9);
    const double worst =
        net::interferer_gain(ula, steer(ula, victim), victim, d, carrier);
    const double other_angle = rng.uniform(-kPi / 2.0, kPi / 2.0);
    const double other =
        net::interferer_gain(ula, steer(ula, other_angle), victim, d, carrier);
    ASSERT_GE(worst, other - 1e-12 * worst)
        << "case " << i << " victim " << victim << " other " << other_angle;
  }
}

TEST(InterferenceProps, CouplingDecreasesWithDistanceAndSeparationAngle) {
  const Rng base(kBaseSeed + 3);
  for (std::size_t i = 0; i < kCases; ++i) {
    Rng rng = base.fork(i);
    const array::Ula ula = random_ula(rng);
    const double victim = rng.uniform(-kPi / 3.0, kPi / 3.0);
    const CVec w = steer(ula, rng.uniform(-kPi / 3.0, kPi / 3.0));
    const double carrier = 28.0e9;
    double d1 = rng.uniform(1.0, 500.0);
    double d2 = rng.uniform(1.0, 500.0);
    if (d1 > d2) std::swap(d1, d2);
    const double g1 = net::interferer_gain(ula, w, victim, d1, carrier);
    const double g2 = net::interferer_gain(ula, w, victim, d2, carrier);
    ASSERT_GE(g1, g2) << "case " << i << " d1 " << d1 << " d2 " << d2;
    // Coupling loss only attenuates further.
    const double damped =
        net::interferer_gain(ula, w, victim, d1, carrier, 20.0);
    ASSERT_LE(damped, g1) << "case " << i;
    ASSERT_NEAR(damped, g1 * 1e-2, g1 * 1e-10) << "case " << i;
  }
}

TEST(InterferenceProps, ZeroInterferenceRecoveryAtInfiniteSeparation) {
  const Rng base(kBaseSeed + 4);
  for (std::size_t i = 0; i < kCases; ++i) {
    Rng rng = base.fork(i);
    const array::Ula ula = random_ula(rng);
    const double victim = rng.uniform(-kPi / 3.0, kPi / 3.0);
    const CVec w = steer(ula, victim);  // worst-case pointing
    // 28 GHz free-space loss at 1e6 km dwarfs any array gain: the INR a
    // victim computes from this coupling is numerically negligible.
    const double far =
        net::interferer_gain(ula, w, victim, 1.0e9, 28.0e9);
    ASSERT_LT(far, 1e-20) << "case " << i;
    const double snr = rng.uniform(-10.0, 50.0);
    // And the SINR fold with the far-field INR is indistinguishable
    // from the interference-free link within double precision.
    ASSERT_NEAR(sim::sinr_db(snr, far), snr, 1e-9) << "case " << i;
  }
}

TEST(InterferenceProps, BatchEvaluatorMatchesScalar) {
  const Rng base(kBaseSeed + 5);
  for (std::size_t i = 0; i < 200; ++i) {
    Rng rng = base.fork(i);
    const array::Ula ula = random_ula(rng);
    const CVec w = steer(ula, rng.uniform(-kPi / 3.0, kPi / 3.0));
    const double carrier = rng.uniform(24.0e9, 70.0e9);
    const double coupling = rng.uniform(0.0, 10.0);
    const std::size_t n = 1 + rng.uniform_index(16);
    RVec angles(n), distances(n);
    for (std::size_t k = 0; k < n; ++k) {
      angles[k] = rng.uniform(-kPi / 2.0, kPi / 2.0);
      distances[k] = rng.uniform(0.5, 300.0);
    }
    RVec batch(n);
    net::interferer_gain_batch_into(ula, w, angles, distances, carrier,
                                    coupling, batch);
    for (std::size_t k = 0; k < n; ++k) {
      const double scalar = net::interferer_gain(ula, w, angles[k],
                                                 distances[k], carrier,
                                                 coupling);
      ASSERT_NEAR(batch[k], scalar, 1e-12 * std::max(1.0, scalar))
          << "case " << i << " victim " << k;
    }
  }
}

// The allocation-free batch path the network's per-tick interference
// fold runs on. BITWISE equality -- not NEAR -- because the fold's
// byte-identity contracts (jobs=K vs jobs=1, the single-link collapse)
// depend on the batch producing exactly the scalar bits on every SIMD
// backend (this binary is re-registered per backend as
// net_forced_<backend>).
TEST(InterferenceProps, BatchIntoIsBitwiseEqualToScalarOnEveryBackend) {
  const Rng base(kBaseSeed + 6);
  std::vector<double> angles, distances, out;
  for (std::size_t i = 0; i < 1000; ++i) {
    Rng rng = base.fork(i);
    const array::Ula ula = random_ula(rng);
    const CVec w = steer(ula, rng.uniform(-kPi / 2.0, kPi / 2.0));
    const double carrier = rng.uniform(24.0e9, 70.0e9);
    const double coupling = rng.uniform(0.0, 15.0);
    const std::size_t n = 1 + rng.uniform_index(24);
    angles.resize(n);
    distances.resize(n);
    out.assign(n, -1.0);
    for (std::size_t k = 0; k < n; ++k) {
      angles[k] = rng.uniform(-kPi / 2.0, kPi / 2.0);
      // Include the sub-1 m near-field clamp region.
      distances[k] = rng.uniform(0.25, 300.0);
    }
    net::interferer_gain_batch_into(ula, w, angles, distances, carrier,
                                    coupling, out);
    for (std::size_t k = 0; k < n; ++k) {
      const double scalar = net::interferer_gain(ula, w, angles[k],
                                                 distances[k], carrier,
                                                 coupling);
      ASSERT_EQ(out[k], scalar) << "case " << i << " victim " << k;
    }
  }
}

TEST(InterferenceProps, BatchIntoValidatesSpanShapes) {
  const array::Ula ula{8, 0.5};
  const CVec w = steer(ula, 0.0);
  std::vector<double> angles(3, 0.0), distances(3, 10.0), out(2, 0.0);
  EXPECT_THROW(net::interferer_gain_batch_into(ula, w, angles, distances,
                                               28.0e9, 0.0, out),
               std::exception);
  std::vector<double> short_dist(2, 10.0);
  EXPECT_THROW(net::interferer_gain_batch_into(ula, w, angles, short_dist,
                                               28.0e9, 0.0,
                                               std::span<double>(angles)),
               std::exception);
}

TEST(InterferenceProps, RejectsNegativeInrAndBadGeometry) {
  EXPECT_THROW(sim::sinr_db(10.0, -1e-9), std::exception);
  const array::Ula ula{8, 0.5};
  const CVec w = steer(ula, 0.0);
  EXPECT_THROW(net::interferer_gain(ula, w, 0.0, 0.0, 28.0e9),
               std::exception);
  EXPECT_THROW(net::interferer_gain(ula, w, 0.0, 10.0, 28.0e9, -1.0),
               std::exception);
}

}  // namespace
