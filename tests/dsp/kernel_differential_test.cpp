// Differential tests for the beamforming kernels and the weight cache:
// every fast path (dsp/kernels.h, array/pattern_cache.h, the rewired
// geometry/pattern/wideband callers) is driven with randomized inputs
// from Rng::fork sub-streams and compared element-wise against a scalar
// reference that re-states the pre-batching implementation, to a budget
// of <= 1 ULP. The cache suites additionally require BIT-IDENTICAL
// results (cached vs uncached vs disabled) and hammer a shared cache
// from a thread pool so the `kernels` ctest label under -DMMR_TSAN=ON
// proves the sharded storage race-clean.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include "array/codebook.h"
#include "array/geometry.h"
#include "array/pattern.h"
#include "array/pattern_cache.h"
#include "channel/wideband.h"
#include "common/angles.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "core/multibeam.h"
#include "dsp/backend.h"
#include "dsp/kernels.h"
#include "tests/common/diff_harness.h"

namespace mmr {
namespace {

using array::Ula;
using mmr::testing::UlpAudit;

// The <= 1-ULP pins below state the bit-compat contract of the SCALAR
// reference backend; fast backends are audited by the KernelBackendSweep
// tier at the end of this file under their declared tolerances
// (dsp::tolerances). Force the reference path for the pinned suites no
// matter what the machine's CPUID default is.
class KernelDiff : public ::testing::Test {
 protected:
  KernelDiff() : scoped_(dsp::Backend::kScalar) {}
  void SetUp() override { ASSERT_TRUE(scoped_.ok()); }

 private:
  dsp::ScopedBackend scoped_;
};

// ---------------------------------------------------------------------------
// Scalar references: the pre-batching implementations, restated naively.
// ---------------------------------------------------------------------------

CVec ref_steering(const Ula& ula, double phi_rad) {
  CVec a(ula.num_elements);
  const double k = 2.0 * kPi * ula.spacing_wavelengths * std::sin(phi_rad);
  for (std::size_t n = 0; n < ula.num_elements; ++n) {
    const double ang = -k * static_cast<double>(n);
    a[n] = cplx(std::cos(ang), std::sin(ang));
  }
  return a;
}

CVec ref_single_beam_weights(const Ula& ula, double phi_rad) {
  CVec w = ref_steering(ula, phi_rad);
  const double inv_sqrt_n = 1.0 / std::sqrt(static_cast<double>(w.size()));
  for (auto& c : w) c = std::conj(c) * inv_sqrt_n;
  return w;
}

cplx ref_array_factor(const Ula& ula, const CVec& weights, double phi_rad) {
  const CVec a = ref_steering(ula, phi_rad);
  cplx acc{};
  for (std::size_t n = 0; n < a.size(); ++n) acc += a[n] * weights[n];
  return acc;
}

array::PatternCut ref_pattern_cut(const Ula& ula, const CVec& weights,
                                  double lo_rad, double hi_rad,
                                  std::size_t points) {
  array::PatternCut cut;
  cut.angle_rad.resize(points);
  cut.gain_db.resize(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double phi = lo_rad + (hi_rad - lo_rad) * static_cast<double>(i) /
                                    static_cast<double>(points - 1);
    cut.angle_rad[i] = phi;
    cut.gain_db[i] = to_db(std::norm(ref_array_factor(ula, weights, phi)));
  }
  return cut;
}

CVec ref_effective_csi(const std::vector<channel::Path>& paths,
                       const Ula& tx_ula, const CVec& tx_weights,
                       const channel::WidebandSpec& spec,
                       const channel::RxFrontend& rx) {
  double t0 = paths.front().delay_s;
  for (const channel::Path& p : paths) t0 = std::min(t0, p.delay_s);
  CVec csi(spec.num_subcarriers, cplx{});
  for (const channel::Path& p : paths) {
    const cplx alpha = p.effective_gain() *
                       ref_array_factor(tx_ula, tx_weights, p.aod_rad) *
                       rx.response(p.aoa_rad);
    const double excess = p.delay_s - t0;
    for (std::size_t k = 0; k < spec.num_subcarriers; ++k) {
      const double ang = -2.0 * kPi * spec.freq_offset(k) * excess;
      csi[k] += alpha * cplx(std::cos(ang), std::sin(ang));
    }
  }
  return csi;
}

CVec ref_per_antenna_channel(const std::vector<channel::Path>& paths,
                             const Ula& tx_ula,
                             const channel::RxFrontend& rx) {
  CVec h(tx_ula.num_elements, cplx{});
  for (const channel::Path& p : paths) {
    const cplx g = p.effective_gain() * rx.response(p.aoa_rad);
    const CVec a = ref_steering(tx_ula, p.aod_rad);
    for (std::size_t n = 0; n < h.size(); ++n) h[n] += g * a[n];
  }
  return h;
}

Ula random_ula(Rng& rng) {
  return Ula{1 + rng.uniform_index(64), rng.uniform(0.05, 1.0)};
}

double random_angle(Rng& rng) { return rng.uniform(-kPi / 2.0, kPi / 2.0); }

CVec random_cvec(Rng& rng, std::size_t n) {
  CVec v(n);
  for (auto& c : v) c = rng.complex_normal();
  return v;
}

/// Arguments of the probe-impairment log/sincos calls, one domain per
/// case: (0) Box-Muller u1 in [2^-53, 1) with its angle 2 pi u2; (1)
/// u1 -> 1 and 2 pi u2 -> 2 pi, a few ulps below 1; (2) u1 near 2^-53;
/// (3) CFO/SFO rotation phases cfo + slope * k, random-CFO and
/// random-walk (wrapped) forms; (4) arguments near the AVX2 reduction's
/// 2^20 bound, both signs, and log over the whole positive normal range.
void probe_math_inputs(Rng& rng, std::size_t domain, RVec& log_in,
                       RVec& angles) {
  const std::size_t n = log_in.size();
  for (std::size_t i = 0; i < n; ++i) {
    switch (domain) {
      case 0: {
        double u1 = rng.uniform();
        if (u1 <= 0.0) u1 = 0x1.0p-53;
        log_in[i] = u1;
        angles[i] = 2.0 * kPi * rng.uniform();
        break;
      }
      case 1: {
        const double below = std::ldexp(
            static_cast<double>(1 + rng.uniform_index(1u << 12)), -53);
        log_in[i] = 1.0 - below;
        angles[i] = 2.0 * kPi * (1.0 - below);
        break;
      }
      case 2:
        log_in[i] = std::ldexp(
            static_cast<double>(1 + rng.uniform_index(1u << 20)), -53);
        angles[i] = 2.0 * kPi * rng.uniform();
        break;
      case 3: {
        const double cfo = rng.bernoulli(0.5)
                               ? rng.uniform(0.0, 2.0 * kPi)
                               : wrap_2pi(rng.normal(0.0, 40.0));
        const double slope = rng.normal(0.0, 0.02);
        angles[i] = cfo + slope * static_cast<double>(rng.uniform_index(512));
        log_in[i] = rng.uniform(1e-3, 1e3);
        break;
      }
      default: {
        const double mag = 0x1p20 * (1.0 + rng.uniform(-1e-6, 1e-6));
        angles[i] = rng.bernoulli(0.5) ? mag : -mag;
        log_in[i] = std::ldexp(rng.uniform(0.5, 1.0),
                               static_cast<int>(rng.uniform_index(2040)) - 1020);
        break;
      }
    }
  }
}

std::vector<channel::Path> random_paths(Rng& rng, std::size_t count) {
  std::vector<channel::Path> paths(count);
  for (channel::Path& p : paths) {
    p.aod_rad = random_angle(rng);
    p.aoa_rad = random_angle(rng);
    p.gain = rng.complex_normal(0.1);
    p.delay_s = rng.uniform(0.0, 500e-9);
    p.blockage_db = rng.bernoulli(0.3) ? rng.uniform(0.0, 20.0) : 0.0;
  }
  return paths;
}

bool bitwise_equal(const CVec& a, const CVec& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (mmr::testing::ulp_distance(a[i], b[i]) != 0) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// dsp kernel primitives vs naive loops
// ---------------------------------------------------------------------------

TEST_F(KernelDiff, PhasorRampMatchesScalarReference) {
  Rng base(0xA11CE5EEDull);
  UlpAudit audit("phasor_ramp");
  for (std::uint64_t c = 0; c < 300; ++c) {
    Rng rng = base.fork(c);
    const double step = rng.uniform(-20.0, 20.0);
    const std::size_t n = 1 + rng.uniform_index(96);
    CVec ramp(n);
    dsp::phasor_ramp(step, n, ramp.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double ang = -step * static_cast<double>(i);
      audit.compare(ramp[i], cplx(std::cos(ang), std::sin(ang)), 1);
    }
  }
  audit.finish(10000);
}

TEST_F(KernelDiff, CdotMatchesSequentialAccumulation) {
  // dot_phasors over arbitrary vectors: the scalar entry is the
  // sequential single-accumulator dot.
  Rng base(0xC0D07ull);
  UlpAudit audit("dot_phasors");
  for (std::uint64_t c = 0; c < 400; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = 1 + rng.uniform_index(257);
    const CVec a = random_cvec(rng, n);
    const CVec b = random_cvec(rng, n);
    cplx ref{};
    for (std::size_t i = 0; i < n; ++i) ref += a[i] * b[i];
    audit.compare(dsp::dot_phasors(a.data(), b.data(), n), ref, 1);
  }
  audit.finish(400);
}

TEST_F(KernelDiff, DotPhasorRampMatchesMaterializedDot) {
  Rng base(0xD07FA50ull);
  UlpAudit audit("dot_phasor_ramp");
  for (std::uint64_t c = 0; c < 600; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = 1 + rng.uniform_index(128);
    const double step = rng.uniform(-20.0, 20.0);
    const CVec w = random_cvec(rng, n);
    cplx ref{};
    for (std::size_t i = 0; i < n; ++i) {
      const double ang = -step * static_cast<double>(i);
      ref += cplx(std::cos(ang), std::sin(ang)) * w[i];
    }
    audit.compare(dsp::dot_phasor_ramp(step, w.data(), n), ref, 1);
  }
  audit.finish(600);
}

TEST_F(KernelDiff, AxpyKernelsMatchNaiveLoops) {
  Rng base(0xA4B1ull);
  UlpAudit audit("axpy family");
  for (std::uint64_t c = 0; c < 300; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = 1 + rng.uniform_index(96);
    const cplx alpha = rng.complex_normal();
    const CVec x = random_cvec(rng, n);
    const CVec y0 = random_cvec(rng, n);

    CVec got = y0;
    dsp::axpy(alpha, x.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      audit.compare(got[i], y0[i] + alpha * x[i], 1);
    }

    const double step = rng.uniform(-20.0, 20.0);
    CVec ph(n);
    dsp::phasor_ramp(step, n, ph.data());
    CVec got_ramp = y0;
    dsp::accumulate_ramp(alpha, ph.data(), got_ramp.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const double ang = -step * static_cast<double>(i);
      const cplx ref = y0[i] + alpha * cplx(std::cos(ang), std::sin(ang));
      audit.compare(got_ramp[i], ref, 1);
    }
  }
  audit.finish(10000);
}

TEST_F(KernelDiff, DelayPhasorAccumulateMatchesScalarLoop) {
  Rng base(0xDE1A7ull);
  UlpAudit audit("delay_phasors+accumulate_phasors");
  for (std::uint64_t c = 0; c < 150; ++c) {
    Rng rng = base.fork(c);
    channel::WidebandSpec spec;
    spec.num_subcarriers = 16 + 16 * rng.uniform_index(4);
    spec.bandwidth_hz = rng.uniform(50e6, 800e6);
    RVec freqs(spec.num_subcarriers);
    for (std::size_t k = 0; k < freqs.size(); ++k) {
      freqs[k] = spec.freq_offset(k);
    }
    const cplx alpha = rng.complex_normal();
    const double delay = rng.uniform(0.0, 500e-9);
    const CVec dst0 = random_cvec(rng, freqs.size());

    CVec got = dst0;
    const dsp::PhasorGrid grid =
        dsp::make_phasor_grid(freqs.data(), freqs.size());
    CVec ph(freqs.size());
    dsp::delay_phasors(grid, delay, ph.data());
    dsp::accumulate_phasors(alpha, grid, ph.data(), got.data());
    for (std::size_t k = 0; k < freqs.size(); ++k) {
      const double ang = -2.0 * kPi * freqs[k] * delay;
      const cplx ref = dst0[k] + alpha * cplx(std::cos(ang), std::sin(ang));
      audit.compare(got[k], ref, 1);
    }
  }
  audit.finish(2400);
}

// ---------------------------------------------------------------------------
// Rewired production functions vs pre-PR scalar references
// ---------------------------------------------------------------------------

TEST_F(KernelDiff, LogAndSincosAreLibm) {
  // The scalar entries are libm element for element: Rng::normals and the
  // estimator reproduce the per-draw libm calls only if this holds.
  Rng base(0x106C05ull);
  UlpAudit audit("log/sincos");
  for (std::uint64_t c = 0; c < 2000; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = 1 + rng.uniform_index(40);
    RVec x(n), ang(n), y(n), s(n), co(n);
    probe_math_inputs(rng, c % 5, x, ang);
    dsp::log(x.data(), y.data(), n);
    dsp::sincos(ang.data(), s.data(), co.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      audit.compare(y[i], std::log(x[i]), 0);
      audit.compare(s[i], std::sin(ang[i]), 0);
      audit.compare(co[i], std::cos(ang[i]), 0);
    }
  }
  audit.finish(10000);
}

TEST_F(KernelDiff, SteeringVectorAndBatchMatchScalarReference) {
  Rng base(0x57EE41ull);
  UlpAudit audit("steering_vector/single_beam_weights");
  for (std::uint64_t c = 0; c < 150; ++c) {
    Rng rng = base.fork(c);
    const Ula ula = random_ula(rng);
    const std::size_t num_angles = 1 + rng.uniform_index(16);
    RVec phis(num_angles);
    for (double& p : phis) p = random_angle(rng);

    for (std::size_t r = 0; r < num_angles; ++r) {
      audit.compare_vec(array::steering_vector(ula, phis[r]),
                        ref_steering(ula, phis[r]), 1);
      audit.compare_vec(array::single_beam_weights(ula, phis[r]),
                        ref_single_beam_weights(ula, phis[r]), 1);
    }
  }
  audit.finish(10000);
}

TEST_F(KernelDiff, ArrayFactorFusedMatchesMaterializedReference) {
  Rng base(0xAF5EEDull);
  UlpAudit audit("array_factor");
  for (std::uint64_t c = 0; c < 250; ++c) {
    Rng rng = base.fork(c);
    const Ula ula = random_ula(rng);
    const CVec w = random_cvec(rng, ula.num_elements);
    const std::size_t num_angles = 1 + rng.uniform_index(8);
    RVec phis(num_angles);
    for (double& p : phis) p = random_angle(rng);

    for (std::size_t r = 0; r < num_angles; ++r) {
      const cplx ref = ref_array_factor(ula, w, phis[r]);
      const cplx prod = array::array_factor(ula, w, phis[r]);
      audit.compare(prod, ref, 1);
      // The fused kernel and a materialized steering vector consumed by
      // dot_phasors run the identical expression: exact, not 1 ULP.
      const CVec a = array::steering_vector(ula, phis[r]);
      audit.compare(dsp::dot_phasors(a.data(), w.data(), w.size()), prod, 0);
    }
  }
  audit.finish(1000);
}

TEST_F(KernelDiff, PatternCutMatchesScalarReference) {
  Rng base(0x9A77E2Cull);
  UlpAudit angle_audit("pattern_cut angles");
  UlpAudit gain_audit("pattern_cut gains");
  for (std::uint64_t c = 0; c < 60; ++c) {
    Rng rng = base.fork(c);
    const Ula ula = random_ula(rng);
    const CVec w = random_cvec(rng, ula.num_elements);
    const double lo = rng.uniform(-kPi / 2.0, 0.0);
    const double hi = rng.uniform(lo + 0.01, kPi / 2.0);
    const std::size_t points = 2 + rng.uniform_index(63);

    const array::PatternCut got = array::pattern_cut(ula, w, lo, hi, points);
    const array::PatternCut ref = ref_pattern_cut(ula, w, lo, hi, points);
    // The angle grid is exact arithmetic on identical expressions.
    angle_audit.compare_vec(got.angle_rad, ref.angle_rad, 0);
    gain_audit.compare_vec(got.gain_db, ref.gain_db, 1);
  }
  angle_audit.finish(120);
  gain_audit.finish(120);
}

TEST_F(KernelDiff, EffectiveCsiMatchesPrePrReference) {
  Rng base(0xC51D1FFull);
  UlpAudit audit("effective_csi");
  for (std::uint64_t c = 0; c < 60; ++c) {
    Rng rng = base.fork(c);
    const Ula tx_ula = random_ula(rng);
    const CVec tx_w = ref_single_beam_weights(tx_ula, random_angle(rng));
    channel::WidebandSpec spec;
    spec.num_subcarriers = 16 + 16 * rng.uniform_index(4);
    const std::vector<channel::Path> paths =
        random_paths(rng, 1 + rng.uniform_index(4));

    channel::RxFrontend rx;
    if (rng.bernoulli(0.5)) {
      rx = channel::RxFrontend::omni(rng.uniform(0.5, 2.0));
    } else {
      const Ula rx_ula = random_ula(rng);
      rx = channel::RxFrontend::beam(
          rx_ula, ref_single_beam_weights(rx_ula, random_angle(rng)));
    }

    const CVec got = channel::effective_csi(paths, tx_ula, tx_w, spec, rx);
    const CVec ref = ref_effective_csi(paths, tx_ula, tx_w, spec, rx);
    audit.compare_vec(got, ref, 1);
  }
  audit.finish(960);
}

TEST_F(KernelDiff, PerAntennaChannelMatchesPrePrReference) {
  Rng base(0x9E2A27ull);
  UlpAudit audit("per_antenna_channel");
  for (std::uint64_t c = 0; c < 120; ++c) {
    Rng rng = base.fork(c);
    const Ula tx_ula = random_ula(rng);
    const std::vector<channel::Path> paths =
        random_paths(rng, 1 + rng.uniform_index(4));
    const channel::RxFrontend rx =
        channel::RxFrontend::omni(rng.uniform(0.5, 2.0));
    const CVec got = channel::per_antenna_channel(paths, tx_ula, rx);
    const CVec ref = ref_per_antenna_channel(paths, tx_ula, rx);
    audit.compare_vec(got, ref, 1);
  }
  audit.finish(120);
}

// ---------------------------------------------------------------------------
// PatternCache: bit-identity, stats, invalidation, thread safety
// ---------------------------------------------------------------------------

TEST(PatternCacheDiff, BeamWeightsBitIdenticalColdWarmAndDisabled) {
  array::PatternCache cache;
  Rng base(0xCAC8Eull);
  UlpAudit audit("cache beam_weights");
  for (std::uint64_t c = 0; c < 50; ++c) {
    Rng rng = base.fork(c);
    const Ula ula = random_ula(rng);
    const double phi = random_angle(rng);
    const CVec direct = array::single_beam_weights(ula, phi);

    const auto cold = cache.beam_weights(ula, phi);  // miss: computes
    const auto warm = cache.beam_weights(ula, phi);  // hit: shared object
    EXPECT_EQ(cold.get(), warm.get());
    audit.compare_vec(*cold, direct, 0);

    cache.set_enabled(false);
    const auto bypass = cache.beam_weights(ula, phi);
    cache.set_enabled(true);
    EXPECT_NE(bypass.get(), cold.get());
    audit.compare_vec(*bypass, direct, 0);
  }
  audit.finish(100);
}

TEST(PatternCacheDiff, StatsCountHitsAndMisses) {
  array::PatternCache cache;
  const Ula ula{16, 0.5};
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);

  (void)cache.beam_weights(ula, 0.1);
  (void)cache.beam_weights(ula, 0.2);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);

  (void)cache.beam_weights(ula, 0.1);
  (void)cache.beam_weights(ula, 0.1);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 2u);

  // Distinct keys must not alias: a sign flip or different element count
  // is a different entry, not a hit.
  (void)cache.beam_weights(ula, -0.1);
  (void)cache.beam_weights(Ula{8, 0.5}, 0.1);
  EXPECT_EQ(cache.stats().misses, 4u);

  cache.reset_stats();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);

  // Disabled lookups touch neither counter.
  cache.set_enabled(false);
  (void)cache.beam_weights(ula, 0.1);
  cache.set_enabled(true);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(PatternCacheDiff, ClearKeepsOutstandingResultsValid) {
  array::PatternCache cache;
  const Ula ula{32, 0.5};
  const auto held = cache.beam_weights(ula, 0.25);
  const CVec snapshot = *held;

  cache.clear();
  // The outstanding shared_ptr still owns the (immutable) value.
  EXPECT_TRUE(bitwise_equal(*held, snapshot));

  // Post-clear lookup recomputes: fresh object, identical bits.
  const auto recomputed = cache.beam_weights(ula, 0.25);
  EXPECT_NE(recomputed.get(), held.get());
  EXPECT_TRUE(bitwise_equal(*recomputed, snapshot));
}

TEST(PatternCacheDiff, SharedAcrossThreadsBitIdenticalAndRaceClean) {
  // Many workers hammer one cache on a small key set while other tasks
  // clear() it mid-flight: every returned value must still be bitwise
  // equal to the scalar reference (and TSAN must see no races — this test
  // is the core of the `kernels` label's -DMMR_TSAN=ON run).
  array::PatternCache cache;
  const Ula ula{32, 0.5};
  constexpr std::size_t kAngles = 8;
  std::vector<double> phis(kAngles);
  std::vector<CVec> refs(kAngles);
  for (std::size_t i = 0; i < kAngles; ++i) {
    phis[i] = -0.7 + 0.2 * static_cast<double>(i);
    refs[i] = array::single_beam_weights(ula, phis[i]);
  }

  std::atomic<std::size_t> mismatches{0};
  ThreadPool pool(4);
  pool.parallel_for(96, [&](std::size_t task) {
    if (task % 16 == 15) cache.clear();
    for (std::size_t rep = 0; rep < 8; ++rep) {
      const std::size_t i = (task + rep) % kAngles;
      const auto w = cache.beam_weights(ula, phis[i]);
      if (!bitwise_equal(*w, refs[i])) mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
  const auto st = cache.stats();
  EXPECT_GT(st.hits, 0u);
  EXPECT_GT(st.misses, 0u);
}

TEST(PatternCacheDiff, RewiredCallersBitStableAcrossCacheStates) {
  // synthesize_multibeam and Codebook go through the global instance;
  // their output must not depend on cache state (cold / warm / disabled).
  array::PatternCache& cache = array::PatternCache::instance();
  const Ula ula{16, 0.5};
  const std::vector<core::BeamComponent> comps = {
      {-0.3, cplx{1.0, 0.0}}, {0.4, cplx{0.6, -0.2}}};

  cache.clear();
  const CVec cold = core::synthesize_multibeam(ula, comps).weights;
  const CVec warm = core::synthesize_multibeam(ula, comps).weights;
  cache.set_enabled(false);
  const CVec bypass = core::synthesize_multibeam(ula, comps).weights;
  cache.set_enabled(true);
  EXPECT_TRUE(bitwise_equal(cold, warm));
  EXPECT_TRUE(bitwise_equal(cold, bypass));

  cache.clear();
  const array::Codebook cb_cold(ula, -1.0, 1.0, 9);
  const array::Codebook cb_warm(ula, -1.0, 1.0, 9);
  for (std::size_t i = 0; i < cb_cold.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(cb_cold.weights(i), cb_warm.weights(i)));
    EXPECT_TRUE(bitwise_equal(
        cb_cold.weights(i),
        array::single_beam_weights(ula, cb_cold.angle(i))));
  }
}

// ---------------------------------------------------------------------------
// Backend sweep: every compiled+executable backend vs the scalar
// reference, under the backend's DECLARED tolerance (dsp::tolerances).
// One parameterized instance per backend so a failure names the backend
// in the test id; compiled-but-unexecutable backends (e.g. avx2 binary
// on a pre-AVX2 CPU) skip.
// ---------------------------------------------------------------------------

class KernelBackendSweep : public ::testing::TestWithParam<dsp::Backend> {
 protected:
  void SetUp() override {
    if (!dsp::backend_supported(GetParam())) {
      GTEST_SKIP() << "backend " << dsp::backend_name(GetParam())
                   << " not executable on this CPU";
    }
    tol_ = dsp::tolerances(GetParam());
  }

  // Runs `fn` with the swept backend active; references are computed
  // with an inner scalar override so both sides come from the same
  // binary.
  template <typename Fn>
  void with_backend(Fn&& fn) {
    dsp::ScopedBackend scoped(GetParam());
    ASSERT_TRUE(scoped.ok());
    fn();
  }

  dsp::KernelTolerances tol_;
};

TEST_P(KernelBackendSweep, PhasorRampWithinDeclaredTolerance) {
  Rng base(0xB4C4E2ADull);
  UlpAudit audit(std::string("phasor_ramp/") +
                 std::string(dsp::backend_name(GetParam())));
  for (std::uint64_t c = 0; c < 300; ++c) {
    Rng rng = base.fork(c);
    const double step = rng.uniform(-20.0, 20.0);
    const std::size_t n = 1 + rng.uniform_index(192);
    CVec ref(n);
    {
      dsp::ScopedBackend scalar(dsp::Backend::kScalar);
      ASSERT_TRUE(scalar.ok());
      dsp::phasor_ramp(step, n, ref.data());
    }
    with_backend([&] {
      CVec got(n);
      dsp::phasor_ramp(step, n, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        // Unit phasors: natural scale 1.
        audit.compare_tol(got[i], ref[i], tol_.phasor_ramp, 1.0);
      }
    });
  }
  audit.finish(10000);
}

TEST_P(KernelBackendSweep, DotKernelsWithinDeclaredTolerance) {
  Rng base(0xB4C4D07ull);
  UlpAudit audit(std::string("dot_phasors+dot_phasor_ramp/") +
                 std::string(dsp::backend_name(GetParam())));
  for (std::uint64_t c = 0; c < 5000; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = 1 + rng.uniform_index(257);
    const double step = rng.uniform(-20.0, 20.0);
    const CVec a = random_cvec(rng, n);
    const CVec b = random_cvec(rng, n);
    double dot_scale = 0.0;
    double ramp_scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot_scale += std::abs(a[i]) * std::abs(b[i]);
      ramp_scale += std::abs(a[i]);  // |phasor| == 1
    }
    cplx ref_dot;
    cplx ref_ramp;
    {
      dsp::ScopedBackend scalar(dsp::Backend::kScalar);
      ASSERT_TRUE(scalar.ok());
      ref_dot = dsp::dot_phasors(a.data(), b.data(), n);
      ref_ramp = dsp::dot_phasor_ramp(step, a.data(), n);
    }
    with_backend([&] {
      audit.compare_tol(dsp::dot_phasors(a.data(), b.data(), n), ref_dot,
                        tol_.dot, dot_scale);
      audit.compare_tol(dsp::dot_phasor_ramp(step, a.data(), n), ref_ramp,
                        tol_.dot, ramp_scale);
    });
  }
  audit.finish(10000);
}

TEST_P(KernelBackendSweep, AxpyKernelsWithinDeclaredTolerance) {
  Rng base(0xB4C4A4B1ull);
  UlpAudit audit(std::string("axpy family/") +
                 std::string(dsp::backend_name(GetParam())));
  for (std::uint64_t c = 0; c < 400; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = 1 + rng.uniform_index(128);
    const cplx alpha = rng.complex_normal();
    const double step = rng.uniform(-20.0, 20.0);
    const CVec x = random_cvec(rng, n);
    const CVec y0 = random_cvec(rng, n);
    CVec ref_axpy = y0;
    CVec ref_ramp = y0;
    CVec ph(n);
    {
      dsp::ScopedBackend scalar(dsp::Backend::kScalar);
      ASSERT_TRUE(scalar.ok());
      dsp::axpy(alpha, x.data(), ref_axpy.data(), n);
      dsp::phasor_ramp(step, n, ph.data());
      dsp::accumulate_ramp(alpha, ph.data(), ref_ramp.data(), n);
    }
    with_backend([&] {
      CVec got_axpy = y0;
      CVec got_ramp = y0;
      dsp::axpy(alpha, x.data(), got_axpy.data(), n);
      dsp::phasor_ramp(step, n, ph.data());
      dsp::accumulate_ramp(alpha, ph.data(), got_ramp.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        audit.compare_tol(got_axpy[i], ref_axpy[i], tol_.axpy,
                          std::abs(y0[i]) + std::abs(alpha) * std::abs(x[i]));
        audit.compare_tol(got_ramp[i], ref_ramp[i], tol_.axpy,
                          std::abs(y0[i]) + std::abs(alpha));
      }
    });
  }
  audit.finish(10000);
}

TEST_P(KernelBackendSweep, DelayPhasorsWithinDeclaredTolerance) {
  Rng base(0xB4C4DE1A7ull);
  UlpAudit audit(std::string("delay_phasors+accumulate_phasors/") +
                 std::string(dsp::backend_name(GetParam())));
  for (std::uint64_t c = 0; c < 300; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = 8 + rng.uniform_index(121);
    RVec freqs(n);
    if (rng.bernoulli(0.7)) {
      // Affine grid (the production shape; exercises the fast path).
      const double f0 = rng.uniform(-400e6, 0.0);
      const double df = rng.uniform(1e5, 1e7);
      for (std::size_t k = 0; k < n; ++k) {
        freqs[k] = f0 + static_cast<double>(k) * df;
      }
    } else {
      // Jittered grid: must take the scalar fallback and still pass.
      for (std::size_t k = 0; k < n; ++k) {
        freqs[k] = rng.uniform(-400e6, 400e6);
      }
    }
    const cplx alpha = rng.complex_normal();
    const double delay = rng.uniform(0.0, 500e-9);
    const CVec dst0 = random_cvec(rng, n);
    const dsp::PhasorGrid grid = dsp::make_phasor_grid(freqs.data(), n);
    CVec ph(n);
    CVec ref = dst0;
    {
      dsp::ScopedBackend scalar(dsp::Backend::kScalar);
      ASSERT_TRUE(scalar.ok());
      dsp::delay_phasors(grid, delay, ph.data());
      dsp::accumulate_phasors(alpha, grid, ph.data(), ref.data());
    }
    with_backend([&] {
      CVec got = dst0;
      dsp::delay_phasors(grid, delay, ph.data());
      dsp::accumulate_phasors(alpha, grid, ph.data(), got.data());
      for (std::size_t k = 0; k < n; ++k) {
        audit.compare_tol(got[k], ref[k], tol_.delay_phasors,
                          std::abs(dst0[k]) + std::abs(alpha));
      }
    });
  }
  audit.finish(10000);
}

TEST_P(KernelBackendSweep, LogAndSincosWithinDeclaredTolerance) {
  Rng base(0xB4C4106ull);
  UlpAudit log_audit(std::string("log/") +
                     std::string(dsp::backend_name(GetParam())));
  UlpAudit sincos_audit(std::string("sincos/") +
                        std::string(dsp::backend_name(GetParam())));
  for (std::uint64_t c = 0; c < 10000; ++c) {
    Rng rng = base.fork(c);
    const std::size_t n = 1 + rng.uniform_index(24);
    RVec x(n), ang(n);
    probe_math_inputs(rng, c % 5, x, ang);
    RVec ref_log(n), ref_s(n), ref_c(n);
    {
      dsp::ScopedBackend scalar(dsp::Backend::kScalar);
      ASSERT_TRUE(scalar.ok());
      dsp::log(x.data(), ref_log.data(), n);
      dsp::sincos(ang.data(), ref_s.data(), ref_c.data(), n);
    }
    with_backend([&] {
      RVec got_log(n), got_s(n), got_c(n);
      dsp::log(x.data(), got_log.data(), n);
      dsp::sincos(ang.data(), got_s.data(), got_c.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        log_audit.compare_tol(got_log[i], ref_log[i], tol_.log, 1.0);
        sincos_audit.compare_tol(got_s[i], ref_s[i], tol_.sincos, 1.0);
        sincos_audit.compare_tol(got_c[i], ref_c[i], tol_.sincos, 1.0);
      }
    });
  }
  log_audit.finish(10000);
  sincos_audit.finish(20000);
}

INSTANTIATE_TEST_SUITE_P(
    AllCompiled, KernelBackendSweep,
    ::testing::ValuesIn(dsp::compiled_backends()),
    [](const ::testing::TestParamInfo<dsp::Backend>& info) {
      return std::string(dsp::backend_name(info.param));
    });

}  // namespace
}  // namespace mmr
