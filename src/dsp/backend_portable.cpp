// Portable fast backend: plain C++ restructurings that compile everywhere.
//
// Two ideas carry all the speedup:
//
//  * Anchor+delta phasor evaluation. exp(-j step i) is taken from libm
//    only every kRampBlock-th element (the anchor); the elements in
//    between are anchor * exp(-j step k) with the kRampBlock delta
//    rotations precomputed once. Cuts sincos calls by kRampBlock x and
//    bounds the per-element error to one complex multiply (~2 eps),
//    independent of n.
//
//  * Raw-formula complex arithmetic with independent accumulators.
//    std::complex operator* routes through __muldc3 (Annex G NaN
//    handling) at -O2; spelling out (ar*br - ai*bi, ar*bi + ai*br) and
//    splitting reductions across 4 accumulators keeps the loop in
//    registers. Reassociation changes rounding, covered by the declared
//    dot tolerance.
#include <cmath>
#include <cstddef>

#include "common/angles.h"
#include "common/rng.h"
#include "common/types.h"
#include "dsp/backend.h"
#include "dsp/backend_kernels.h"

namespace mmr::dsp::detail {

namespace {

constexpr std::size_t kB = kRampBlock;

inline void exact_phasor(double step, std::size_t i, double* re, double* im) {
  const double ang = -step * static_cast<double>(i);
  *re = std::cos(ang);
  *im = std::sin(ang);
}

}  // namespace

void portable_phasor_ramp(double step, std::size_t n, cplx* dst) {
  if (n < 2 * kB) {
    scalar_phasor_ramp(step, n, dst);
    return;
  }
  const RampDeltas d = compute_ramp_deltas(step);
  double* out = reinterpret_cast<double*>(dst);
  std::size_t i = 0;
  for (; i + kB <= n; i += kB) {
    double are;
    double aim;
    exact_phasor(step, i, &are, &aim);
    for (std::size_t k = 0; k < kB; ++k) {
      out[2 * (i + k)] = are * d.re[k] - aim * d.im[k];
      out[2 * (i + k) + 1] = aim * d.re[k] + are * d.im[k];
    }
  }
  for (; i < n; ++i) {
    exact_phasor(step, i, &out[2 * i], &out[2 * i + 1]);
  }
}

cplx portable_dot_phasor_ramp(double step, const cplx* w, std::size_t n) {
  if (n < 2 * kB) return scalar_dot_phasor_ramp(step, w, n);
  const RampDeltas d = compute_ramp_deltas(step);
  const double* wp = reinterpret_cast<const double*>(w);
  double acc_re[4] = {0.0, 0.0, 0.0, 0.0};
  double acc_im[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kB <= n; i += kB) {
    double are;
    double aim;
    exact_phasor(step, i, &are, &aim);
    for (std::size_t k = 0; k < kB; ++k) {
      const double pre = are * d.re[k] - aim * d.im[k];
      const double pim = aim * d.re[k] + are * d.im[k];
      const double wr = wp[2 * (i + k)];
      const double wi = wp[2 * (i + k) + 1];
      acc_re[k & 3] += pre * wr - pim * wi;
      acc_im[k & 3] += pre * wi + pim * wr;
    }
  }
  double re = (acc_re[0] + acc_re[1]) + (acc_re[2] + acc_re[3]);
  double im = (acc_im[0] + acc_im[1]) + (acc_im[2] + acc_im[3]);
  for (; i < n; ++i) {
    double pre;
    double pim;
    exact_phasor(step, i, &pre, &pim);
    const double wr = wp[2 * i];
    const double wi = wp[2 * i + 1];
    re += pre * wr - pim * wi;
    im += pre * wi + pim * wr;
  }
  return cplx(re, im);
}

void portable_axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n) {
  const double ar = alpha.real();
  const double ai = alpha.imag();
  const double* xp = reinterpret_cast<const double*>(x);
  double* yp = reinterpret_cast<double*>(y);
  for (std::size_t i = 0; i < n; ++i) {
    const double xr = xp[2 * i];
    const double xi = xp[2 * i + 1];
    yp[2 * i] += ar * xr - ai * xi;
    yp[2 * i + 1] += ar * xi + ai * xr;
  }
}

cplx portable_dot_phasors(const cplx* ph, const cplx* w, std::size_t n) {
  // portable_dot_phasor_ramp's accumulation over stored phasors.
  if (n < 2 * kB) return scalar_dot_phasors(ph, w, n);
  const double* pp = reinterpret_cast<const double*>(ph);
  const double* wp = reinterpret_cast<const double*>(w);
  double acc_re[4] = {0.0, 0.0, 0.0, 0.0};
  double acc_im[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + kB <= n; i += kB) {
    for (std::size_t k = 0; k < kB; ++k) {
      const double pre = pp[2 * (i + k)];
      const double pim = pp[2 * (i + k) + 1];
      const double wr = wp[2 * (i + k)];
      const double wi = wp[2 * (i + k) + 1];
      acc_re[k & 3] += pre * wr - pim * wi;
      acc_im[k & 3] += pre * wi + pim * wr;
    }
  }
  double re = (acc_re[0] + acc_re[1]) + (acc_re[2] + acc_re[3]);
  double im = (acc_im[0] + acc_im[1]) + (acc_im[2] + acc_im[3]);
  for (; i < n; ++i) {
    const double pre = pp[2 * i];
    const double pim = pp[2 * i + 1];
    const double wr = wp[2 * i];
    const double wi = wp[2 * i + 1];
    re += pre * wr - pim * wi;
    im += pre * wi + pim * wr;
  }
  return cplx(re, im);
}

void portable_delay_phasors(const double* freqs, bool affine, double df,
                            double delay_s, cplx* dst, std::size_t n) {
  if (n < 2 * kB || !affine) {
    scalar_delay_phasors(freqs, affine, df, delay_s, dst, n);
    return;
  }
  // Anchors use the ACTUAL freqs[] value with the scalar association
  // order, so anchor elements match the reference to one complex
  // multiply; interior elements additionally absorb the (tiny, checked)
  // deviation of the grid from perfectly affine.
  double dre[kB];
  double dim[kB];
  for (std::size_t k = 0; k < kB; ++k) {
    const double ang = -2.0 * kPi * (df * static_cast<double>(k)) * delay_s;
    dre[k] = std::cos(ang);
    dim[k] = std::sin(ang);
  }
  double* dp = reinterpret_cast<double*>(dst);
  std::size_t i = 0;
  for (; i + kB <= n; i += kB) {
    const double ang = -2.0 * kPi * freqs[i] * delay_s;
    const double are = std::cos(ang);
    const double aim = std::sin(ang);
    for (std::size_t k = 0; k < kB; ++k) {
      dp[2 * (i + k)] = are * dre[k] - aim * dim[k];
      dp[2 * (i + k) + 1] = aim * dre[k] + are * dim[k];
    }
  }
  for (; i < n; ++i) {
    const double ang = -2.0 * kPi * freqs[i] * delay_s;
    dp[2 * i] = std::cos(ang);
    dp[2 * i + 1] = std::sin(ang);
  }
}

void portable_accumulate_phasors(cplx alpha, bool affine, const cplx* ph,
                                 cplx* dst, std::size_t n) {
  // Short or non-affine grids were formed by the scalar loop, whose MAC
  // is std::complex's; the rotated blocks and the tail paired with the
  // raw formula, which is portable_axpy's.
  if (n < 2 * kB || !affine) {
    scalar_axpy(alpha, ph, dst, n);
  } else {
    portable_axpy(alpha, ph, dst, n);
  }
}

const KernelTable* portable_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.phasor_ramp = &portable_phasor_ramp;
    t.dot_phasor_ramp = &portable_dot_phasor_ramp;
    t.axpy = &portable_axpy;
    t.delay_phasors = &portable_delay_phasors;
    t.accumulate_phasors = &portable_accumulate_phasors;
    t.dot_phasors = &portable_dot_phasors;
    // No portable log/sincos kernels: the scalar reference (libm).
    t.log = &libm_log;
    t.sincos = &libm_sincos;
    return t;
  }();
  return &table;
}

}  // namespace mmr::dsp::detail
