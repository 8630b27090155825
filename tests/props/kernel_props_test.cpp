// Property-based kernel/workspace invariants (>= 1000 Rng::fork cases each),
// swept across every compiled-and-executable kernel backend:
//   * phasor ramps are unit-modulus per element on every backend,
//   * dot_phasors over arbitrary vectors is commutative within the dot
//     tolerance and exactly conjugation-equivariant (sign symmetry of
//     IEEE rounding makes it bit-exact even for the FMA backends),
//   * axpy is linear in alpha within the declared backend tolerance,
//   * batched normals (Rng::normals through each backend's log/sincos)
//     have the standard normal's mean, variance and fourth moment,
//   * a trial rerun on a reused workspace -- or with no workspace at
//     all -- is bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "dsp/backend.h"
#include "dsp/kernels.h"
#include "sim/engine.h"
#include "sim/runner.h"
#include "sim/workspace.h"
#include "sim/world.h"
#include "tests/common/diff_harness.h"

namespace mmr {
namespace {

constexpr std::size_t kCases = 1200;
constexpr std::uint64_t kBaseSeed = 777000111;

CVec random_cvec(Rng& rng, std::size_t n) {
  CVec v(n);
  for (cplx& c : v) c = cplx(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
  return v;
}

TEST(KernelProps, PhasorRampIsUnitModulusOnEveryBackend) {
  testing::for_each_supported_backend([](dsp::Backend b) {
    dsp::ScopedBackend scoped(b);
    ASSERT_TRUE(scoped.ok());
    const Rng base(kBaseSeed);
    for (std::size_t i = 0; i < kCases; ++i) {
      Rng rng = base.fork(i);
      const std::size_t n = 1 + rng.uniform_index(160);
      const double step = rng.uniform(-12.0, 12.0);
      CVec ramp(n);
      dsp::phasor_ramp(step, n, ramp.data());
      for (std::size_t k = 0; k < n; ++k) {
        // cos^2+sin^2 rounds to 1 within ~2 eps; the anchor+delta fast
        // path multiplies two unit phasors, which stays unit to ~4 eps.
        ASSERT_NEAR(std::norm(ramp[k]), 1.0, 1e-14)
            << dsp::backend_name(b) << " case " << i << " element " << k;
      }
    }
  });
}

TEST(KernelProps, CdotIsCommutativeWithinBackendTolerance) {
  testing::for_each_supported_backend([](dsp::Backend b) {
    dsp::ScopedBackend scoped(b);
    ASSERT_TRUE(scoped.ok());
    // NOT bit-exact on FMA backends: fmaddsub keeps one partial product
    // of each complex multiply unrounded, and WHICH one depends on the
    // operand order, so swapping the arguments perturbs the imaginary
    // part by ~1 ulp per element. Commutativity therefore holds within
    // the backend's dot tolerance, with a small ULP floor for scalar.
    const dsp::Tolerance declared = dsp::tolerances(b).dot;
    const dsp::Tolerance tol{std::max<std::uint64_t>(declared.max_ulp, 16),
                             declared.abs_tol + 1e-14};
    mmr::testing::UlpAudit audit(
        std::string("dot_phasors commutativity on ") +
        std::string(dsp::backend_name(b)));
    const Rng base(kBaseSeed + 1);
    for (std::size_t i = 0; i < kCases; ++i) {
      Rng rng = base.fork(i);
      const std::size_t n = rng.uniform_index(200);
      const CVec a = random_cvec(rng, n);
      const CVec v = random_cvec(rng, n);
      const cplx ab = dsp::dot_phasors(a.data(), v.data(), n);
      const cplx ba = dsp::dot_phasors(v.data(), a.data(), n);
      double scale = 1e-30;
      for (std::size_t k = 0; k < n; ++k) scale += std::abs(a[k]) * std::abs(v[k]);
      audit.compare_tol(ab, ba, tol, scale);
    }
    audit.finish(1000);
  });
}

TEST(KernelProps, CdotIsExactlyConjugationEquivariantOnEveryBackend) {
  testing::for_each_supported_backend([](dsp::Backend b) {
    dsp::ScopedBackend scoped(b);
    ASSERT_TRUE(scoped.ok());
    const Rng base(kBaseSeed + 2);
    for (std::size_t i = 0; i < kCases; ++i) {
      Rng rng = base.fork(i);
      const std::size_t n = rng.uniform_index(200);
      const CVec a = random_cvec(rng, n);
      const CVec v = random_cvec(rng, n);
      CVec ac(n), vc(n);
      for (std::size_t k = 0; k < n; ++k) {
        ac[k] = std::conj(a[k]);
        vc[k] = std::conj(v[k]);
      }
      const cplx d = dsp::dot_phasors(a.data(), v.data(), n);
      const cplx dc = dsp::dot_phasors(ac.data(), vc.data(), n);
      // Conjugating both inputs only flips signs; IEEE rounding is sign
      // symmetric, so conj(dot(a,v)) == dot(conj a, conj v) exactly.
      ASSERT_EQ(dc.real(), d.real()) << dsp::backend_name(b) << " case " << i;
      ASSERT_EQ(dc.imag(), -d.imag()) << dsp::backend_name(b) << " case " << i;
    }
  });
}

TEST(KernelProps, AxpyIsLinearInAlphaWithinBackendTolerance) {
  testing::for_each_supported_backend([](dsp::Backend b) {
    dsp::ScopedBackend scoped(b);
    ASSERT_TRUE(scoped.ok());
    const dsp::Tolerance tol = dsp::tolerances(b).axpy;
    mmr::testing::UlpAudit audit(std::string("axpy linearity on ") +
                                 std::string(dsp::backend_name(b)));
    const Rng base(kBaseSeed + 3);
    for (std::size_t i = 0; i < kCases; ++i) {
      Rng rng = base.fork(i);
      const std::size_t n = rng.uniform_index(96);
      const cplx alpha(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
      const cplx beta(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
      const CVec x = random_cvec(rng, n);
      const CVec y0 = random_cvec(rng, n);

      CVec two_step = y0;
      dsp::axpy(alpha, x.data(), two_step.data(), n);
      dsp::axpy(beta, x.data(), two_step.data(), n);
      CVec one_step = y0;
      dsp::axpy(alpha + beta, x.data(), one_step.data(), n);

      for (std::size_t k = 0; k < n; ++k) {
        // (y + ax) + bx vs y + (a+b)x reassociates, so this is a
        // tolerance property, not bit-exactness; 4x the declared scalar
        // axpy budget comfortably covers the extra rounding step.
        const double scale =
            std::abs(y0[k]) + (std::abs(alpha) + std::abs(beta)) *
                                  std::abs(x[k]);
        audit.compare_tol(two_step[k], one_step[k],
                          dsp::Tolerance{4 * tol.max_ulp + 64,
                                         4.0 * tol.abs_tol + 4e-15},
                          scale);
      }
    }
    audit.finish(1000);
  });
}

TEST(KernelProps, BatchedNormalMomentsOnEveryBackend) {
  // 2^20 draws in probe-sized batches (128 = one CSI probe's 64
  // subcarriers, plus odd sizes that move the cached-sample hand-off).
  // Bounds are five standard errors of each sample moment of N(0, 1):
  // sqrt(1/N), sqrt(2/N) and sqrt(96/N).
  constexpr std::size_t kDraws = std::size_t{1} << 20;
  const double n = static_cast<double>(kDraws);
  testing::for_each_supported_backend([&](dsp::Backend b) {
    dsp::ScopedBackend scoped(b);
    ASSERT_TRUE(scoped.ok());
    Rng rng(kBaseSeed + 17);
    const NormalMath math = dsp::normal_math();
    std::vector<double> batch(129);
    double m1 = 0.0, m2 = 0.0, m4 = 0.0;
    std::size_t drawn = 0;
    for (std::size_t k = 0; drawn < kDraws; ++k) {
      const std::size_t len =
          std::min<std::size_t>(k % 3 == 0 ? 128 : 1 + k % 129,
                                kDraws - drawn);
      rng.normals(batch.data(), len, math);
      for (std::size_t i = 0; i < len; ++i) {
        const double x = batch[i];
        ASSERT_TRUE(std::isfinite(x)) << dsp::backend_name(b);
        m1 += x;
        m2 += x * x;
        m4 += x * x * x * x;
      }
      drawn += len;
    }
    m1 /= n;
    m2 /= n;
    m4 /= n;
    EXPECT_NEAR(m1, 0.0, 5.0 * std::sqrt(1.0 / n)) << dsp::backend_name(b);
    EXPECT_NEAR(m2 - m1 * m1, 1.0, 5.0 * std::sqrt(2.0 / n))
        << dsp::backend_name(b);
    EXPECT_NEAR(m4, 3.0, 5.0 * std::sqrt(96.0 / n)) << dsp::backend_name(b);
  });
}

// A full trial rerun on the SAME workspace, which still holds the first
// run's scratch and table, and a trial run with NO workspace at all, must
// both be bit-identical to the first run: the workspace is a pure
// performance mechanism with zero observable effect.
TEST(ArenaProps, TrialRerunOnResetWorkspaceIsBitIdentical) {
  sim::ScenarioSpec scenario;
  scenario.name = "indoor_sparse";
  scenario.config.seed = 13;
  scenario.blockers = {{0.5, 1.0, 30.0}};
  sim::ControllerSpec ctrl_spec;
  ctrl_spec.name = "mmreliable";
  sim::RunConfig rc;
  rc.duration_s = 0.25;  // 100 ticks: enough to cross the blocker onset

  auto run_once = [&](sim::TrialWorkspace* ws) {
    sim::LinkWorld world = sim::ScenarioRegistry::instance().make(scenario);
    if (ws != nullptr) world.bind_workspace(ws);
    const auto ctrl = sim::ControllerRegistry::instance().make(
        world, scenario.config, ctrl_spec);
    return sim::run_experiment(world, *ctrl, rc);
  };

  sim::TrialWorkspace ws;
  const sim::RunResult first = run_once(&ws);
  const sim::RunResult rerun = run_once(&ws);
  const sim::RunResult bare = run_once(nullptr);

  ASSERT_FALSE(first.samples.empty());
  ASSERT_EQ(rerun.samples.size(), first.samples.size());
  ASSERT_EQ(bare.samples.size(), first.samples.size());
  for (std::size_t i = 0; i < first.samples.size(); ++i) {
    const auto& a = first.samples[i];
    ASSERT_EQ(rerun.samples[i].snr_db, a.snr_db) << "tick " << i;
    ASSERT_EQ(rerun.samples[i].throughput_bps, a.throughput_bps)
        << "tick " << i;
    ASSERT_EQ(rerun.samples[i].available, a.available) << "tick " << i;
    ASSERT_EQ(bare.samples[i].snr_db, a.snr_db) << "no-workspace tick " << i;
    ASSERT_EQ(bare.samples[i].throughput_bps, a.throughput_bps)
        << "no-workspace tick " << i;
    ASSERT_EQ(bare.samples[i].available, a.available)
        << "no-workspace tick " << i;
  }
}

}  // namespace
}  // namespace mmr
