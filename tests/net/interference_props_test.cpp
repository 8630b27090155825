// Property suite for the cross-link interference model (net/interference.h),
// >= 1000 Rng::fork cases per property:
//   * SINR never exceeds SNR, and recovers SNR bit-for-bit at zero INR;
//   * SINR is monotone non-increasing in the interference power;
//   * an interferer steering AT the victim couples at least as much power
//     as any other steering choice (the main lobe IS the worst case);
//   * coupling is monotone decreasing in distance and vanishes at
//     infinite separation (zero-interference recovery);
//   * the network's per-tick fold (InterferenceFold) agrees with the
//     per-pair scalar evaluation bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "array/geometry.h"
#include "array/pattern.h"
#include "array/weights.h"
#include "channel/geometry2d.h"
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

/// Per-pair reference of one fold tick: each victim sums interferer_gain
/// over the transmitting interferers in slot order, skipping itself, dead
/// slots and victims sitting on the interferer's gNB -- the network's
/// historical scalar fold.
struct FoldCase {
  array::Ula ula;
  double carrier = 28.0e9;
  double coupling = 0.0;
  std::vector<channel::Vec2> gnbs;
  std::vector<channel::Vec2> pos;
  std::vector<std::uint8_t> live, transmits;
  std::vector<std::size_t> cell;
  std::vector<CVec> weights;
};

std::vector<double> per_pair_fold(const FoldCase& c) {
  const std::size_t n = c.pos.size();
  std::vector<double> total(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!c.live[i] || !c.transmits[i]) continue;
    const channel::Vec2 gnb = c.gnbs[c.cell[i]];
    for (std::size_t v = 0; v < n; ++v) {
      if (v == i || !c.live[v]) continue;
      const channel::Vec2 delta{c.pos[v].x - gnb.x, c.pos[v].y - gnb.y};
      const double d = std::hypot(delta.x, delta.y);
      if (d <= 0.0) continue;
      total[v] += net::interferer_gain(c.ula, c.weights[i],
                                       std::atan2(delta.y, delta.x), d,
                                       c.carrier, c.coupling);
    }
  }
  return total;
}

/// Drive an InterferenceFold through the tick the network runs: victims
/// first, then each live transmitting slot in order. Returns the totals;
/// `reached` records which interferers reached a victim.
std::vector<double> run_fold(net::InterferenceFold& fold, const FoldCase& c,
                             std::vector<std::uint8_t>* reached = nullptr) {
  const std::size_t n = c.pos.size();
  fold.begin_tick(c.gnbs, c.ula, c.carrier, c.coupling, n);
  for (std::size_t v = 0; v < n; ++v) {
    if (c.live[v]) fold.set_victim(v, c.pos[v]);
  }
  if (reached != nullptr) reached->assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!c.live[i] || !c.transmits[i]) continue;
    if (!fold.reaches_victim(c.cell[i], i)) continue;
    if (reached != nullptr) (*reached)[i] = 1;
    fold.add(c.cell[i], i, c.weights[i]);
  }
  fold.fold();
  const std::span<const double> totals = fold.totals();
  return {totals.begin(), totals.end()};
}

// One interferer, many victims: every fold addend is interferer_gain of
// its pair, bit for bit.
TEST(InterferenceProps, BatchEvaluatorMatchesScalar) {
  const Rng base(kBaseSeed + 5);
  net::InterferenceFold fold;
  for (std::size_t i = 0; i < 200; ++i) {
    Rng rng = base.fork(i);
    FoldCase c;
    c.ula = random_ula(rng);
    c.carrier = rng.uniform(24.0e9, 70.0e9);
    c.coupling = rng.uniform(0.0, 10.0);
    c.gnbs = {{rng.uniform(-20.0, 20.0), rng.uniform(-5.0, 5.0)}};
    const std::size_t n = 2 + rng.uniform_index(16);
    for (std::size_t k = 0; k < n; ++k) {
      const double a = rng.uniform(-kPi, kPi);
      const double d = rng.uniform(0.5, 300.0);
      c.pos.push_back({c.gnbs[0].x + d * std::cos(a),
                       c.gnbs[0].y + d * std::sin(a)});
      c.live.push_back(1);
      c.transmits.push_back(k == 0);
      c.cell.push_back(0);
      c.weights.push_back(steer(c.ula, rng.uniform(-kPi / 3.0, kPi / 3.0)));
    }
    const std::vector<double> got = run_fold(fold, c);
    const std::vector<double> ref = per_pair_fold(c);
    ASSERT_EQ(got[0], 0.0) << "case " << i;
    for (std::size_t k = 1; k < n; ++k) {
      ASSERT_EQ(got[k], ref[k]) << "case " << i << " victim " << k;
      ASSERT_GT(got[k], 0.0) << "case " << i << " victim " << k;
    }
  }
}

// Whole ticks -- random geometries, one cell, more cells than sessions,
// dead slots, victims on a gNB (skipped) and inside the 1 m clamp --
// against the per-pair loop, BITWISE: the network's byte-identity
// contracts (jobs=K vs jobs=1, the single-link collapse, the goldens)
// fold these totals into SINR. This binary runs once per kernel backend
// (net_forced_<backend>).
TEST(InterferenceProps, BatchIntoIsBitwiseEqualToScalarOnEveryBackend) {
  const Rng base(kBaseSeed + 6);
  net::InterferenceFold fold;  // reused across cases, as the network does
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    Rng rng = base.fork(i);
    FoldCase c;
    c.ula = random_ula(rng);
    c.carrier = rng.uniform(24.0e9, 70.0e9);
    c.coupling = rng.uniform(0.0, 15.0);
    const std::size_t slots = 1 + rng.uniform_index(12);
    std::size_t cells = 1 + rng.uniform_index(6);
    if (i % 3 == 0) cells = 1;
    if (i % 3 == 1) cells = slots + rng.uniform_index(4);
    for (std::size_t k = 0; k < cells; ++k) {
      c.gnbs.push_back({10.0 * static_cast<double>(k) + 0.5, 6.2});
    }
    for (std::size_t k = 0; k < slots; ++k) {
      c.cell.push_back(rng.uniform_index(cells));
      const channel::Vec2 gnb = c.gnbs[rng.uniform_index(cells)];
      channel::Vec2 p{rng.uniform(-5.0, 10.0 * static_cast<double>(cells)),
                      rng.uniform(0.0, 12.0)};
      if (rng.bernoulli(0.1)) p = gnb;  // on a gNB: d == 0 there
      if (rng.bernoulli(0.1)) {
        p = {gnb.x + rng.uniform(-0.6, 0.6), gnb.y + rng.uniform(-0.6, 0.6)};
      }
      c.pos.push_back(p);
      c.live.push_back(rng.bernoulli(0.8));
      c.transmits.push_back(rng.bernoulli(0.8));
      c.weights.push_back(steer(c.ula, rng.uniform(-kPi / 2.0, kPi / 2.0)));
    }
    std::vector<std::uint8_t> reached;
    const std::vector<double> got = run_fold(fold, c, &reached);
    const std::vector<double> ref = per_pair_fold(c);
    for (std::size_t v = 0; v < slots; ++v) {
      ASSERT_EQ(got[v], ref[v]) << "case " << i << " victim " << v;
    }
    // reaches_victim is true exactly when the per-pair loop has a pair.
    for (std::size_t k = 0; k < slots; ++k) {
      if (!c.live[k] || !c.transmits[k]) continue;
      bool any = false;
      const channel::Vec2 gnb = c.gnbs[c.cell[k]];
      for (std::size_t v = 0; v < slots; ++v) {
        if (v == k || !c.live[v]) continue;
        if (std::hypot(c.pos[v].x - gnb.x, c.pos[v].y - gnb.y) > 0.0) {
          any = true;
          ++pairs;
        }
      }
      ASSERT_EQ(reached[k] != 0, any) << "case " << i << " slot " << k;
    }
  }
  EXPECT_GT(pairs, 10000u);
}

TEST(InterferenceProps, BatchIntoValidatesSpanShapes) {
  const array::Ula ula{8, 0.5};
  const std::vector<channel::Vec2> gnbs = {{0.0, 0.0}, {10.0, 0.0}};
  net::InterferenceFold fold;
  fold.begin_tick(gnbs, ula, 28.0e9, 0.0, 2);
  EXPECT_THROW(fold.set_victim(2, {1.0, 1.0}), std::exception);
  fold.set_victim(0, {1.0, 1.0});
  fold.set_victim(1, {5.0, 1.0});
  // add() before reaches_victim() measured the cell this tick.
  EXPECT_THROW(fold.add(0, 0, steer(ula, 0.0)), std::exception);
  EXPECT_THROW(fold.reaches_victim(2, 0), std::exception);
  EXPECT_THROW(fold.reaches_victim(0, 2), std::exception);
  ASSERT_TRUE(fold.reaches_victim(0, 0));
  // Weights of the wrong length for the tick's array.
  EXPECT_THROW(fold.add(0, 0, steer(array::Ula{4, 0.5}, 0.0)),
               std::exception);
  EXPECT_THROW(fold.begin_tick(gnbs, ula, 28.0e9, -1.0, 2), std::exception);
  EXPECT_THROW(fold.begin_tick(gnbs, ula, 0.0, 0.0, 2), std::exception);
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
