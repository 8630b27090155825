// AVX2 sampled-sinc taps (x86-64), four taps per instruction. This TU is
// not backend_avx2.cpp on purpose: that one compiles with
// -ffp-contract=fast and targets FMA, and a contracted fl(i ts - tau)
// would move the taps' bits. Here the build's -ffp-contract=off holds and
// the target is plain "avx2", so each lane performs the scalar entry's
// multiply, subtract, multiply, multiply and divide, each rounded, and
// returns its bits (tests/dsp/backend_test.cpp compares them with
// memcmp). Like backend_avx2.cpp it only runs after the CPUID check.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "common/angles.h"
#include "dsp/backend_kernels.h"

namespace mmr::dsp::detail {

__attribute__((target("avx2"))) void avx2_sinc_taps(
    double ts, double bandwidth, double tau, std::size_t m, double sin_m,
    double* out, std::size_t n) {
  // Lane l of a block starting at an even tap i is tap i + l, whose sign
  // depends only on the parity of l and of m.
  const double even = (m & 1) != 0 ? -sin_m : sin_m;
  const double odd = (m & 1) != 0 ? sin_m : -sin_m;
  const __m256d signed_sin = _mm256_setr_pd(even, odd, even, odd);
  const __m256d vts = _mm256_set1_pd(ts);
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d vbw = _mm256_set1_pd(bandwidth);
  const __m256d vpi = _mm256_set1_pd(kPi);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d tiny = _mm256_set1_pd(1e-12);
  const __m256d magnitude =
      _mm256_castsi256_pd(_mm256_set1_epi64x(INT64_C(0x7FFFFFFFFFFFFFFF)));
  const __m256d step = _mm256_set1_pd(4.0);
  __m256d idx = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_mul_pd(
        vbw, _mm256_sub_pd(_mm256_mul_pd(idx, vts), vtau));
    const __m256d q = _mm256_div_pd(signed_sin, _mm256_mul_pd(vpi, x));
    const __m256d centre =
        _mm256_cmp_pd(_mm256_and_pd(x, magnitude), tiny, _CMP_LT_OQ);
    _mm256_storeu_pd(out + i, _mm256_blendv_pd(q, one, centre));
    idx = _mm256_add_pd(idx, step);
  }
  for (; i < n; ++i) out[i] = sinc_tap(ts, bandwidth, tau, m, sin_m, i);
}

}  // namespace mmr::dsp::detail

#endif
