// Bit-for-bit differential of the split phasor kernels (dsp/kernels.h):
// generation (phasor_ramp, delay_phasors) followed by consumption
// (dot_phasors, accumulate_phasors) must reproduce the fused kernels they
// replace, on every compiled backend, byte for byte -- compared with
// memcmp, signed zeros and infinities included, not with the declared
// tolerance table.
//
// One exception: a NaN result only has to be a NaN. Which operand's NaN
// an addition propagates (its sign and payload) follows the operand
// order the compiler picks, and GCC treats floating-point addition as
// commutative: the fused portable kernel's scalar tail and any
// vectorised loop over stored phasors order `ar*pim + ai*pre`
// differently. Whether a product is NaN at all -- e.g. std::complex's
// Inf recovery against the raw formula -- is still checked.
//
// dot_phasor_ramp is still a library kernel, so it is its own reference.
// The fused delay-phasor kernel was deleted; its per-backend loops are
// kept verbatim as the reference, below and, for AVX2, in
// fused_avx2_reference.cpp. Both sources are compiled with the library's
// contraction rules, so the comparison is bytewise in every build.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/angles.h"
#include "common/rng.h"
#include "common/types.h"
#include "dsp/backend.h"
#include "dsp/backend_kernels.h"
#include "dsp/kernels.h"
#include "tests/dsp/fused_reference.h"

namespace mmr {

// ---------------------------------------------------------------------------
// The fused kernels as they stood before the split (the AVX2 one is in
// fused_avx2_reference.cpp).
// ---------------------------------------------------------------------------

void fused_scalar(cplx alpha, const double* freqs, double delay_s, cplx* dst,
                  std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = -2.0 * kPi * freqs[k] * delay_s;
    dst[k] += alpha * cplx(std::cos(ang), std::sin(ang));
  }
}

namespace {

using dsp::detail::kRampBlock;

void fused_portable(cplx alpha, const double* freqs, double delay_s,
                    cplx* dst, std::size_t n) {
  constexpr std::size_t kB = kRampBlock;
  double f0 = 0.0;
  double df = 0.0;
  if (n < 2 * kB || !dsp::detail::affine_freqs(freqs, n, &f0, &df)) {
    fused_scalar(alpha, freqs, delay_s, dst, n);
    return;
  }
  double dre[kB];
  double dim[kB];
  for (std::size_t k = 0; k < kB; ++k) {
    const double ang = -2.0 * kPi * (df * static_cast<double>(k)) * delay_s;
    dre[k] = std::cos(ang);
    dim[k] = std::sin(ang);
  }
  const double ar = alpha.real();
  const double ai = alpha.imag();
  double* dp = reinterpret_cast<double*>(dst);
  std::size_t i = 0;
  for (; i + kB <= n; i += kB) {
    const double ang = -2.0 * kPi * freqs[i] * delay_s;
    const double are = std::cos(ang);
    const double aim = std::sin(ang);
    for (std::size_t k = 0; k < kB; ++k) {
      const double pre = are * dre[k] - aim * dim[k];
      const double pim = aim * dre[k] + are * dim[k];
      dp[2 * (i + k)] += ar * pre - ai * pim;
      dp[2 * (i + k) + 1] += ar * pim + ai * pre;
    }
  }
  for (; i < n; ++i) {
    const double ang = -2.0 * kPi * freqs[i] * delay_s;
    const double pre = std::cos(ang);
    const double pim = std::sin(ang);
    dp[2 * i] += ar * pre - ai * pim;
    dp[2 * i + 1] += ar * pim + ai * pre;
  }
}

using FusedFn = void (*)(cplx, const double*, double, cplx*, std::size_t);

FusedFn fused_for(dsp::Backend backend) {
  switch (backend) {
    case dsp::Backend::kScalar:
      return &fused_scalar;
    case dsp::Backend::kPortable:
    case dsp::Backend::kNeon:  // NEON ran the portable fused kernel
      return &fused_portable;
    case dsp::Backend::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return &fused_avx2;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Comparison: bytes, except that a NaN only has to be a NaN.
// ---------------------------------------------------------------------------

bool same_double(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_cplx(cplx a, cplx b) {
  return same_double(a.real(), b.real()) && same_double(a.imag(), b.imag());
}

const double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Alphas the sweep always includes besides random ones: zeros of both
/// signs, NaN and Inf in either part (the std::complex multiply's
/// NaN-recovery path must be the one the fused kernel took).
std::vector<cplx> edge_alphas() {
  return {cplx(0.0, 0.0),    cplx(-0.0, 0.0),   cplx(0.0, -0.0),
          cplx(kNaN, 1.0),   cplx(1.0, kNaN),   cplx(kNaN, kNaN),
          cplx(kInf, 0.0),   cplx(0.0, -kInf),  cplx(kInf, kInf),
          cplx(-kInf, 2.0),  cplx(kInf, kNaN),  cplx(1e-300, -3e300)};
}

class PhasorSplit : public ::testing::TestWithParam<dsp::Backend> {
 protected:
  void SetUp() override {
    if (!dsp::backend_supported(GetParam())) {
      GTEST_SKIP() << "backend " << dsp::backend_name(GetParam())
                   << " not executable on this CPU";
    }
    scoped_.emplace(GetParam());
    ASSERT_TRUE(scoped_->ok());
  }

 private:
  std::optional<dsp::ScopedBackend> scoped_;
};

TEST_P(PhasorSplit, DelayPhasorsThenAccumulateEqualTheFusedKernel) {
  const FusedFn fused = fused_for(GetParam());
  ASSERT_NE(fused, nullptr);
  const Rng base(0x5B117ull);
  std::size_t compared = 0;
  std::uint64_t stream = 0;
  for (std::size_t n : {1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 128}) {
    for (int shape = 0; shape < 3; ++shape) {
      Rng rng = base.fork(stream++);
      RVec freqs(n);
      if (shape == 0) {
        // The production grid: WidebandSpec::freq_offset.
        const double spacing = rng.uniform(50e6, 800e6) / static_cast<double>(n);
        for (std::size_t k = 0; k < n; ++k) {
          freqs[k] = (static_cast<double>(k) -
                      (static_cast<double>(n) - 1.0) / 2.0) *
                     spacing;
        }
      } else if (shape == 1) {
        // Affine but off-centre.
        const double f0 = rng.uniform(-400e6, 0.0);
        const double df = rng.uniform(1e5, 1e7);
        for (std::size_t k = 0; k < n; ++k) {
          freqs[k] = f0 + static_cast<double>(k) * df;
        }
      } else {
        // Not affine: every backend falls back to its scalar loop.
        for (double& f : freqs) f = rng.uniform(-400e6, 400e6);
      }
      const dsp::PhasorGrid grid = dsp::make_phasor_grid(freqs.data(), n);
      std::vector<cplx> alphas = edge_alphas();
      for (int r = 0; r < 8; ++r) alphas.push_back(rng.complex_normal());
      // Delay 0 is the earliest path's (every phasor exactly 1).
      for (double delay : {0.0, rng.uniform(0.0, 50e-9),
                           rng.uniform(0.0, 500e-9), 3e-6}) {
        CVec ph(n);
        dsp::delay_phasors(grid, delay, ph.data());
        for (const cplx alpha : alphas) {
          CVec dst0(n);
          for (cplx& c : dst0) c = rng.complex_normal();
          CVec ref = dst0;
          fused(alpha, freqs.data(), delay, ref.data(), n);
          CVec got = dst0;
          dsp::accumulate_phasors(alpha, grid, ph.data(), got.data());
          for (std::size_t k = 0; k < n; ++k) {
            ASSERT_TRUE(same_cplx(got[k], ref[k]))
                << "n " << n << " shape " << shape << " delay " << delay
                << " alpha " << alpha << " k " << k << ": got " << got[k]
                << " fused " << ref[k];
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 30000u);
}

TEST_P(PhasorSplit, DotPhasorsOverARampEqualDotPhasorRamp) {
  const Rng base(0xD075ull);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 33; ++n) sizes.push_back(n);
  sizes.push_back(64);
  std::uint64_t stream = 0;
  for (std::size_t n : sizes) {
    for (int c = 0; c < 40; ++c) {
      Rng rng = base.fork(stream++);
      const double step = c == 0 ? 0.0 : rng.uniform(-20.0, 20.0);
      CVec w(n);
      for (cplx& x : w) x = rng.complex_normal();
      if (c % 8 == 1) w[rng.uniform_index(n)] = cplx(0.0, -0.0);
      if (c % 8 == 2) w[rng.uniform_index(n)] = cplx(kNaN, 0.5);
      if (c % 8 == 3) w[rng.uniform_index(n)] = cplx(kInf, 0.0);
      if (c % 8 == 4) w[rng.uniform_index(n)] = cplx(-kInf, kInf);
      CVec ph(n);
      dsp::phasor_ramp(step, n, ph.data());
      const cplx got = dsp::dot_phasors(ph.data(), w.data(), n);
      const cplx ref = dsp::dot_phasor_ramp(step, w.data(), n);
      ASSERT_TRUE(same_cplx(got, ref))
          << "n " << n << " case " << c << " step " << step << ": got "
          << got << " fused " << ref;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCompiled, PhasorSplit, ::testing::ValuesIn(dsp::compiled_backends()),
    [](const ::testing::TestParamInfo<dsp::Backend>& info) {
      return std::string(dsp::backend_name(info.param));
    });

}  // namespace
}  // namespace mmr
