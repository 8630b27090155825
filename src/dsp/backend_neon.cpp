// NEON backend (aarch64, where Advanced SIMD is baseline ISA -- no
// runtime CPU check needed beyond the architecture itself). One
// float64x2_t holds a single complex [re, im]; axpy is the one NEON
// kernel. The phasor/delay kernels -- whose cost is libm sincos, not
// arithmetic -- reuse the portable anchor+delta implementations
// directly, so the declared NEON tolerances equal the portable ones.
// Their consumption kernels (accumulate_phasors, dot_phasors) are the
// portable ones too: neon_axpy rounds differently from the MAC the
// portable phasor kernels pair with.
#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>

#include "common/rng.h"
#include "common/types.h"
#include "dsp/backend.h"
#include "dsp/backend_kernels.h"

namespace mmr::dsp::detail {

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
    t.phasor_ramp = &portable_phasor_ramp;
    t.dot_phasor_ramp = &portable_dot_phasor_ramp;
    t.axpy = &neon_axpy;
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
