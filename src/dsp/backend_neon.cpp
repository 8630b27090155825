// NEON backend (aarch64, where Advanced SIMD is baseline ISA -- no
// runtime CPU check needed beyond the architecture itself). One
// float64x2_t holds a single complex [re, im]; dots and axpy use the
// same raw-formula / multi-accumulator structure as the portable
// backend, and the phasor/delay kernels -- whose cost is libm sincos,
// not arithmetic -- reuse the portable anchor+delta implementations
// directly, so the declared NEON tolerances equal the portable ones.
// Their consumption kernels (accumulate_phasors, dot_phasors) are the
// portable ones too: neon_axpy/neon_cdot round differently from the
// MACs the portable phasor kernels pair with.
#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>

#include "common/rng.h"
#include "common/types.h"
#include "dsp/backend.h"
#include "dsp/backend_kernels.h"

namespace mmr::dsp::detail {

namespace {

// p * q for single complexes packed as [re, im].
inline float64x2_t cmul1(float64x2_t p, float64x2_t q) {
  const float64x2_t qre = vdupq_laneq_f64(q, 0);
  const float64x2_t qim = vdupq_laneq_f64(q, 1);
  const float64x2_t pswap = vextq_f64(p, p, 1);  // [im, re]
  const float64x2_t sign = {-1.0, 1.0};
  // [pr*qr, pi*qr] + [-pi*qi, +pr*qi]
  return vfmaq_f64(vmulq_f64(vmulq_f64(pswap, qim), sign), p, qre);
}

}  // namespace

cplx neon_cdot(const cplx* a, const cplx* b, std::size_t n) {
  const double* ap = reinterpret_cast<const double*>(a);
  const double* bp = reinterpret_cast<const double*>(b);
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0);
  float64x2_t acc3 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vaddq_f64(acc0, cmul1(vld1q_f64(ap + 2 * i), vld1q_f64(bp + 2 * i)));
    acc1 = vaddq_f64(acc1, cmul1(vld1q_f64(ap + 2 * i + 2),
                                 vld1q_f64(bp + 2 * i + 2)));
    acc2 = vaddq_f64(acc2, cmul1(vld1q_f64(ap + 2 * i + 4),
                                 vld1q_f64(bp + 2 * i + 4)));
    acc3 = vaddq_f64(acc3, cmul1(vld1q_f64(ap + 2 * i + 6),
                                 vld1q_f64(bp + 2 * i + 6)));
  }
  const float64x2_t sum =
      vaddq_f64(vaddq_f64(acc0, acc1), vaddq_f64(acc2, acc3));
  double re = vgetq_lane_f64(sum, 0);
  double im = vgetq_lane_f64(sum, 1);
  for (; i < n; ++i) {
    const double ar = ap[2 * i];
    const double ai = ap[2 * i + 1];
    const double br = bp[2 * i];
    const double bi = bp[2 * i + 1];
    re += ar * br - ai * bi;
    im += ar * bi + ai * br;
  }
  return cplx(re, im);
}

void neon_axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n) {
  const double* xp = reinterpret_cast<const double*>(x);
  double* yp = reinterpret_cast<double*>(y);
  const float64x2_t ar = vdupq_n_f64(alpha.real());
  const float64x2_t ai = vdupq_n_f64(alpha.imag());
  const float64x2_t sign = {-1.0, 1.0};
  for (std::size_t i = 0; i < n; ++i) {
    const float64x2_t xv = vld1q_f64(xp + 2 * i);
    const float64x2_t xswap = vextq_f64(xv, xv, 1);
    const float64x2_t prod =
        vfmaq_f64(vmulq_f64(vmulq_f64(xswap, ai), sign), xv, ar);
    vst1q_f64(yp + 2 * i, vaddq_f64(vld1q_f64(yp + 2 * i), prod));
  }
}

const KernelTable* neon_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.phasor_ramp_soa = &portable_phasor_ramp_soa;
    t.phasor_ramp_interleaved = &portable_phasor_ramp_interleaved;
    t.cdot = &neon_cdot;
    t.dot_phasor_ramp = &portable_dot_phasor_ramp;
    t.axpy = &neon_axpy;
    t.axpy_phasor_ramp = &portable_axpy_phasor_ramp;
    t.delay_phasors = &portable_delay_phasors;
    t.accumulate_phasors = &portable_accumulate_phasors;
    t.dot_phasors = &portable_dot_phasors;
    // No NEON log/sincos kernels yet: the scalar reference (libm).
    t.log = &libm_log;
    t.sincos = &libm_sincos;
    return t;
  }();
  return &table;
}

}  // namespace mmr::dsp::detail

#else  // !aarch64

#include "dsp/backend.h"

namespace mmr::dsp::detail {
const KernelTable* neon_table() { return nullptr; }
}  // namespace mmr::dsp::detail

#endif
