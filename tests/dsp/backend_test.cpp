// Backend selection/dispatch contract tests plus the kernel edge and
// aliasing contracts of dsp/kernels.h, exercised on EVERY compiled
// backend:
//   * selection: parse_backend round-trips, auto maps to best_backend,
//     set_backend refuses unsupported backends, ScopedBackend restores,
//   * edges: n == 0 is a no-op / zero reduction, n == 1 is exact libm,
//     log/sincos lanes outside the vector domain (+-0, subnormals,
//     negatives, NaN/Inf, |x| beyond 2^20) are exact libm,
//   * aliasing: axpy with x == y (full overlap) is well-defined,
//   * sinc_taps: every backend returns the scalar entry's bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "dsp/backend.h"
#include "dsp/kernels.h"
#include "dsp/sinc.h"
#include "tests/common/diff_harness.h"

namespace mmr {
namespace {

TEST(BackendSelection, ScalarAndPortableAreAlwaysCompiled) {
  const auto backends = dsp::compiled_backends();
  EXPECT_NE(std::find(backends.begin(), backends.end(), dsp::Backend::kScalar),
            backends.end());
  EXPECT_NE(std::find(backends.begin(), backends.end(),
                      dsp::Backend::kPortable),
            backends.end());
}

TEST(BackendSelection, ParseRoundTripsEveryName) {
  for (dsp::Backend b : dsp::compiled_backends()) {
    const auto parsed = dsp::parse_backend(dsp::backend_name(b));
    ASSERT_TRUE(parsed.has_value()) << dsp::backend_name(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(dsp::parse_backend("sse9").has_value());
  EXPECT_FALSE(dsp::parse_backend("").has_value());
  EXPECT_FALSE(dsp::parse_backend("AVX2").has_value()) << "names are lowercase";
}

TEST(BackendSelection, AutoParsesToBestBackend) {
  const auto parsed = dsp::parse_backend("auto");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, dsp::best_backend());
  EXPECT_TRUE(dsp::backend_supported(dsp::best_backend()));
}

TEST(BackendSelection, SetBackendRefusesUnsupported) {
  const dsp::Backend before = dsp::active_backend();
  for (dsp::Backend b :
       {dsp::Backend::kScalar, dsp::Backend::kPortable, dsp::Backend::kAvx2,
        dsp::Backend::kNeon}) {
    if (dsp::backend_supported(b)) continue;
    EXPECT_FALSE(dsp::set_backend(b)) << dsp::backend_name(b);
    EXPECT_EQ(dsp::active_backend(), before)
        << "a refused set_backend must not change the active backend";
  }
}

TEST(BackendSelection, ScopedBackendRestoresOnExit) {
  const dsp::Backend before = dsp::active_backend();
  {
    dsp::ScopedBackend scoped(dsp::Backend::kPortable);
    ASSERT_TRUE(scoped.ok());
    EXPECT_EQ(dsp::active_backend(), dsp::Backend::kPortable);
  }
  EXPECT_EQ(dsp::active_backend(), before);
}

class KernelEdges : public ::testing::TestWithParam<dsp::Backend> {
 protected:
  void SetUp() override {
    if (!dsp::backend_supported(GetParam())) {
      GTEST_SKIP() << dsp::backend_name(GetParam())
                   << " not executable on this machine";
    }
    scoped_.emplace(GetParam());
    ASSERT_TRUE(scoped_->ok());
  }

 private:
  std::optional<dsp::ScopedBackend> scoped_;
};

TEST_P(KernelEdges, LengthZeroIsANoOp) {
  // Guard values around a zero-length call must be untouched and
  // reductions must return exactly 0+0j.
  cplx guard(42.0, -7.0);
  dsp::phasor_ramp(1.3, 0, &guard);
  EXPECT_EQ(guard, cplx(42.0, -7.0));
  EXPECT_EQ(dsp::dot_phasor_ramp(0.7, &guard, 0), cplx(0.0, 0.0));
  dsp::axpy(cplx(3.0, 1.0), &guard, &guard, 0);
  EXPECT_EQ(guard, cplx(42.0, -7.0));
  const double freq = 1e6;
  const dsp::PhasorGrid grid = dsp::make_phasor_grid(&freq, 0);
  dsp::delay_phasors(grid, 1e-9, &guard);
  EXPECT_EQ(guard, cplx(42.0, -7.0));
  const cplx ph(0.5, 0.5);
  dsp::accumulate_phasors(cplx(3.0, 1.0), grid, &ph, &guard);
  EXPECT_EQ(guard, cplx(42.0, -7.0));
  dsp::accumulate_ramp(cplx(3.0, 1.0), &ph, &guard, 0);
  EXPECT_EQ(guard, cplx(42.0, -7.0));
  EXPECT_EQ(dsp::dot_phasors(&ph, &guard, 0), cplx(0.0, 0.0));
  const double x = 0.5;
  double y = 9.0, s = 8.0, c = 7.0;
  dsp::log(&x, &y, 0);
  dsp::sincos(&x, &s, &c, 0);
  EXPECT_EQ(y, 9.0);
  EXPECT_EQ(s, 8.0);
  EXPECT_EQ(c, 7.0);
}

TEST_P(KernelEdges, LengthOneIsExactLibm) {
  // Element 0 of any ramp is exp(0) = 1 exactly; a 1-element dot is one
  // complex multiply with no accumulation to reassociate, so every
  // backend must match the scalar formula bit-for-bit.
  for (double step : {0.0, 1.7, -3.9, 25.0}) {
    cplx one;
    dsp::phasor_ramp(step, 1, &one);
    EXPECT_EQ(one, cplx(1.0, 0.0)) << "step " << step;
    const cplx w(1.25, -0.5);
    EXPECT_EQ(dsp::dot_phasor_ramp(step, &w, 1), w) << "step " << step;
    EXPECT_EQ(dsp::dot_phasors(&one, &w, 1), w) << "step " << step;
  }
  const cplx a(1.5, -2.0), b(-0.25, 3.0);
  const cplx expect(a.real() * b.real() - a.imag() * b.imag(),
                    a.real() * b.imag() + a.imag() * b.real());
  const cplx got = dsp::dot_phasors(&a, &b, 1);
  EXPECT_EQ(got.real(), expect.real());
  EXPECT_EQ(got.imag(), expect.imag());
  // A lone element (and any n % 4 tail) is libm on every backend.
  for (double x : {0x1.0p-53, 0.37, 1.0 - 0x1.0p-53, 2.0, 6.283185307179586,
                   -3.9, 1e5}) {
    double y = 0.0, s = 0.0, c = 0.0;
    dsp::log(&x, &y, 1);
    dsp::sincos(&x, &s, &c, 1);
    if (x > 0.0) EXPECT_EQ(y, std::log(x)) << "x " << x;
    EXPECT_EQ(s, std::sin(x)) << "x " << x;
    EXPECT_EQ(c, std::cos(x)) << "x " << x;
  }
}

bool same_bits_or_both_nan(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// The vector domains of dsp/kernels.h: positive normal finite x for log,
// normal |x| <= 2^20 for sincos. Outside them a lane is libm's.
bool log_lane_is_libm(double x) {
  return !(x >= std::numeric_limits<double>::min() &&
           x <= std::numeric_limits<double>::max());
}

bool sincos_lane_is_libm(double x) {
  const double a = std::abs(x);
  return !(a >= std::numeric_limits<double>::min() && a <= 0x1p20);
}

TEST_P(KernelEdges, LogAndSincosLanesOutsideTheDomainAreLibm) {
  // Each special value visits every lane of a 12-element block (three
  // vectors on AVX2) among ordinary values. A lane outside the vector
  // domain must be exactly libm; every other lane -- the domain's own
  // bounds and the neighbours included -- stays within the declared
  // tolerance.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kBound = 0x1p20;  // the AVX2 reduction's range
  const double specials[] = {0.0,
                             -0.0,
                             kInf,
                             -kInf,
                             std::numeric_limits<double>::quiet_NaN(),
                             -1.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::nextafter(kBound, kInf),
                             -std::nextafter(kBound, kInf),
                             1e300,
                             -1e300,
                             // The last arguments the vector paths take.
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             kBound,
                             -kBound,
                             0x1.0p-53,
                             1.0 - 0x1.0p-53};
  const dsp::KernelTolerances tol = dsp::tolerances(GetParam());
  mmr::testing::UlpAudit audit(std::string("log/sincos lanes on ") +
                               std::string(dsp::backend_name(GetParam())));
  constexpr std::size_t kN = 12;
  for (const double special : specials) {
    for (std::size_t lane = 0; lane < kN; ++lane) {
      double x[kN], y[kN], s[kN], c[kN];
      for (std::size_t i = 0; i < kN; ++i) {
        x[i] = 0.25 + 0.5 * static_cast<double>(i);
      }
      x[lane] = special;
      dsp::log(x, y, kN);
      dsp::sincos(x, s, c, kN);
      for (std::size_t i = 0; i < kN; ++i) {
        if (log_lane_is_libm(x[i])) {
          EXPECT_TRUE(same_bits_or_both_nan(y[i], std::log(x[i])))
              << "log(" << x[i] << ") lane " << lane;
        } else {
          audit.compare_tol(y[i], std::log(x[i]), tol.log, 1.0);
        }
        if (sincos_lane_is_libm(x[i])) {
          EXPECT_TRUE(same_bits_or_both_nan(s[i], std::sin(x[i])))
              << "sin(" << x[i] << ") lane " << lane;
          EXPECT_TRUE(same_bits_or_both_nan(c[i], std::cos(x[i])))
              << "cos(" << x[i] << ") lane " << lane;
        } else {
          audit.compare_tol(s[i], std::sin(x[i]), tol.sincos, 1.0);
          audit.compare_tol(c[i], std::cos(x[i]), tol.sincos, 1.0);
        }
      }
    }
  }
  audit.finish(std::size(specials) * kN * (kN - 1) * 3);
}

// Ramps of 2-15 elements, the 8-element ULA's among them: on AVX2 every
// element is a lane of the in-house sincos, elsewhere the scalar loop.
// An element whose angle -step i lies outside the vector domain -- zero
// for step 0 of either sign (sin keeps the zero's sign), past 2^20, NaN
// or Inf -- is exactly libm's, like a lone element; every other element
// stays within the declared phasor_ramp tolerance. dot_phasor_ramp at
// the same step is dot_phasors over that ramp, NaN lanes included.
TEST_P(KernelEdges, ShortRampLanesOutsideTheDomainAreLibm) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double steps[] = {0.0,
                          -0.0,
                          0.37,
                          -2.9,
                          0x1p17,     // element 9 on is past 2^20
                          -0x1.8p17,  // element 6 on is past 2^20
                          std::numeric_limits<double>::quiet_NaN(),
                          kInf,
                          -kInf};
  const dsp::Tolerance tol = dsp::tolerances(GetParam()).phasor_ramp;
  mmr::testing::UlpAudit audit(std::string("short ramps on ") +
                               std::string(dsp::backend_name(GetParam())));
  std::size_t libm_lanes = 0;
  for (std::size_t n = 2; n <= 15; ++n) {
    for (const double step : steps) {
      CVec ramp(n);
      dsp::phasor_ramp(step, n, ramp.data());
      for (std::size_t i = 0; i < n; ++i) {
        const double ang = -step * static_cast<double>(i);
        const cplx want(std::cos(ang), std::sin(ang));
        if (sincos_lane_is_libm(ang)) {
          EXPECT_TRUE(same_bits_or_both_nan(ramp[i].real(), want.real()) &&
                      same_bits_or_both_nan(ramp[i].imag(), want.imag()))
              << "n " << n << " step " << step << " element " << i << ": "
              << ramp[i] << " vs libm " << want;
          ++libm_lanes;
        } else {
          audit.compare_tol(ramp[i], want, tol, 1.0);
        }
      }
      CVec w(n);
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = cplx(0.5 + 0.25 * static_cast<double>(i), -0.75);
      }
      const cplx fused = dsp::dot_phasor_ramp(step, w.data(), n);
      const cplx split = dsp::dot_phasors(ramp.data(), w.data(), n);
      EXPECT_TRUE(same_bits_or_both_nan(fused.real(), split.real()) &&
                  same_bits_or_both_nan(fused.imag(), split.imag()))
          << "n " << n << " step " << step << ": " << fused << " vs "
          << split;
    }
  }
  // The 14 ramps hold 119 elements per step: every one at the five steps
  // whose angles are all zero, NaN or Inf; element 0 at the two ordinary
  // steps; element 0 and those past 2^20 at the two large ones (35, 59).
  EXPECT_EQ(libm_lanes, 5u * 119u + 2u * 14u + 35u + 59u);
  audit.finish(9u * 119u - libm_lanes);
}

TEST_P(KernelEdges, AxpyAllowsFullyAliasedInputOutput) {
  // Contract: x == y is allowed (y[i] += alpha*y[i]); verify against the
  // unaliased computation within the backend's declared axpy tolerance.
  const dsp::Tolerance tol = dsp::tolerances(GetParam()).axpy;
  mmr::testing::UlpAudit audit(std::string("aliased axpy on ") +
                               std::string(dsp::backend_name(GetParam())));
  const Rng base(424242);
  for (std::size_t i = 0; i < 300; ++i) {
    Rng rng = base.fork(i);
    const std::size_t n = rng.uniform_index(64);
    const cplx alpha(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
    CVec y(n);
    for (cplx& c : y) c = cplx(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
    const CVec original = y;
    CVec unaliased = y;
    dsp::axpy(alpha, original.data(), unaliased.data(), n);
    dsp::axpy(alpha, y.data(), y.data(), n);  // x == y
    for (std::size_t k = 0; k < n; ++k) {
      const double scale =
          std::abs(original[k]) * (1.0 + std::abs(alpha)) + 1e-30;
      audit.compare_tol(y[k], unaliased[k], tol, scale);
    }
  }
  audit.finish(200);
}

// dsp::sinc_pulse's per-tap quotients go through the kernel table, whose
// every entry performs the scalar loop's operations in its order: the
// declared row is 0 on every backend, and the taps memcmp-equal the scalar
// entry's over random pulses of 1-64 taps, with delays inside the window,
// on an integer tap, up to 3 samples outside it, and NaN.
TEST_P(KernelEdges, SincTapsAreTheScalarEntryBits) {
  const dsp::Tolerance declared = dsp::tolerances(GetParam()).sinc_taps;
  EXPECT_EQ(declared.max_ulp, 0u);
  EXPECT_EQ(declared.abs_tol, 0.0);
  const Rng base(0x51AC7A95ull);
  constexpr std::size_t kPulses = 100'000;
  std::size_t kinds[4] = {};
  double got[64];
  double want[64];
  for (std::size_t i = 0; i < kPulses; ++i) {
    Rng rng = base.fork(i);
    const std::size_t n = 1 + rng.uniform_index(64);
    const double bandwidth = rng.uniform(1e8, 2e9);
    const double ts = 1.0 / bandwidth;
    const double taps = static_cast<double>(n);
    double tau = 0.0;
    const std::size_t kind = rng.uniform_index(4);
    ++kinds[kind];
    switch (kind) {
      case 0:  // inside the window
        tau = rng.uniform(0.0, taps - 1.0) * ts;
        break;
      case 1:  // on an integer tap
        tau = static_cast<double>(rng.uniform_index(n)) * ts;
        break;
      case 2:  // up to 3 samples before or after the window
        tau = (rng.uniform() < 0.5 ? rng.uniform(-3.0, 0.0)
                                   : rng.uniform(taps - 1.0, taps + 2.0)) *
              ts;
        break;
      default:
        tau = std::numeric_limits<double>::quiet_NaN();
        break;
    }
    dsp::sinc_pulse(ts, bandwidth, tau, {got, n});
    {
      dsp::ScopedBackend scalar(dsp::Backend::kScalar);
      ASSERT_TRUE(scalar.ok());
      dsp::sinc_pulse(ts, bandwidth, tau, {want, n});
    }
    ASSERT_EQ(std::memcmp(got, want, n * sizeof(double)), 0)
        << "pulse " << i << ": " << n << " taps, tau = " << tau / ts
        << " samples";
  }
  for (const std::size_t count : kinds) EXPECT_GT(count, kPulses / 5);
}

INSTANTIATE_TEST_SUITE_P(
    AllCompiled, KernelEdges,
    ::testing::ValuesIn(dsp::compiled_backends()),
    [](const ::testing::TestParamInfo<dsp::Backend>& info) {
      return std::string(dsp::backend_name(info.param));
    });

}  // namespace
}  // namespace mmr
