// The AVX2 fused delay-phasor kernel as it stood before the split, kept
// verbatim as the reference of tests/dsp/phasor_split_test.cpp. Like
// src/dsp/backend_avx2.cpp this source is compiled with floating-point
// contraction on (tests/CMakeLists.txt), so GCC fuses the same scalar
// multiply/add pairs here as it does in the backend.
#include "tests/dsp/fused_reference.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cmath>

#include "common/angles.h"
#include "dsp/backend_kernels.h"

namespace mmr {
namespace {

using dsp::detail::kRampBlock;

#define MMR_TEST_AVX2 __attribute__((target("avx2,fma")))

MMR_TEST_AVX2 inline __m256d ref_cmul_const(__m256d p, __m256d cr,
                                            __m256d ci) {
  const __m256d pswap = _mm256_permute_pd(p, 0x5);
  return _mm256_fmaddsub_pd(p, cr, _mm256_mul_pd(pswap, ci));
}

inline void ref_rotate_anchor(double rot_re, double rot_im, double* a_re,
                              double* a_im) {
  const double re = *a_re * rot_re - *a_im * rot_im;
  const double im = *a_re * rot_im + *a_im * rot_re;
  *a_re = re;
  *a_im = im;
}

}  // namespace

MMR_TEST_AVX2 void fused_avx2(cplx alpha, const double* freqs, double delay_s,
                              cplx* dst, std::size_t n) {
  constexpr std::size_t kB = kRampBlock;
  double f0 = 0.0;
  double df = 0.0;
  if (n < 2 * kB || !dsp::detail::affine_freqs(freqs, n, &f0, &df)) {
    fused_scalar(alpha, freqs, delay_s, dst, n);
    return;
  }
  dsp::detail::RampDeltas d;
  for (std::size_t k = 0; k < kB; ++k) {
    const double ang = -2.0 * kPi * (df * static_cast<double>(k)) * delay_s;
    d.re[k] = std::cos(ang);
    d.im[k] = std::sin(ang);
  }
  __m256d dv[kB / 2];
  for (std::size_t k = 0; k < kB / 2; ++k) {
    dv[k] = _mm256_set_pd(d.im[2 * k + 1], d.re[2 * k + 1], d.im[2 * k],
                          d.re[2 * k]);
  }
  const double rot_ang = -2.0 * kPi * (df * static_cast<double>(kB)) * delay_s;
  const double rot_re = std::cos(rot_ang);
  const double rot_im = std::sin(rot_ang);
  const __m256d alr = _mm256_set1_pd(alpha.real());
  const __m256d ali = _mm256_set1_pd(alpha.imag());
  double* dp = reinterpret_cast<double*>(dst);
  const auto add_block = [&](std::size_t base, double a_re, double a_im)
                             MMR_TEST_AVX2 {
    const __m256d are = _mm256_set1_pd(a_re);
    const __m256d aim = _mm256_set1_pd(a_im);
    for (std::size_t k = 0; k < kB / 2; ++k) {
      const __m256d ph = ref_cmul_const(dv[k], are, aim);
      const __m256d yv = _mm256_loadu_pd(dp + 2 * base + 4 * k);
      _mm256_storeu_pd(dp + 2 * base + 4 * k,
                       _mm256_add_pd(yv, ref_cmul_const(ph, alr, ali)));
    }
  };
  std::size_t i = 0;
  for (; i + 2 * kB <= n; i += 2 * kB) {
    const double ang = -2.0 * kPi * freqs[i] * delay_s;
    double a_re = std::cos(ang);
    double a_im = std::sin(ang);
    add_block(i, a_re, a_im);
    ref_rotate_anchor(rot_re, rot_im, &a_re, &a_im);
    add_block(i + kB, a_re, a_im);
  }
  for (; i + kB <= n; i += kB) {
    const double ang = -2.0 * kPi * freqs[i] * delay_s;
    add_block(i, std::cos(ang), std::sin(ang));
  }
  const double sar = alpha.real();
  const double sai = alpha.imag();
  for (; i < n; ++i) {
    const double ang = -2.0 * kPi * freqs[i] * delay_s;
    const double pre = std::cos(ang);
    const double pim = std::sin(ang);
    dp[2 * i] += sar * pre - sai * pim;
    dp[2 * i + 1] += sar * pim + sai * pre;
  }
}

}  // namespace mmr

#endif
