// Internal declarations shared by the backend TUs (backend_*.cpp) and the
// dispatcher (backend.cpp). Not part of the public dsp API -- include
// dsp/backend.h instead.
//
// Naming: <backend>_<kernel>. Every backend must match the semantics of
// the scalar reference within its declared tolerance (dsp/backend.h);
// scalar_* IS the reference and is shared freely by other tables for
// kernels they do not accelerate.
#pragma once

#include <cmath>
#include <cstddef>

#include "common/angles.h"
#include "common/types.h"

namespace mmr::dsp::detail {

// ---------------------------------------------------------------------------
// Scalar reference (backend_scalar.cpp): bit-exact PR-2 loops.
// ---------------------------------------------------------------------------
void scalar_phasor_ramp(double step, std::size_t n, cplx* dst);
cplx scalar_dot_phasor_ramp(double step, const cplx* w, std::size_t n);
void scalar_axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n);
void scalar_delay_phasors(const double* freqs, bool affine, double df,
                          double delay_s, cplx* dst, std::size_t n);
void scalar_accumulate_phasors(cplx alpha, bool affine, const cplx* ph,
                               cplx* dst, std::size_t n);
cplx scalar_dot_phasors(const cplx* ph, const cplx* w, std::size_t n);
void scalar_sinc_taps(double ts, double bandwidth, double tau, std::size_t m,
                      double sin_m, double* out, std::size_t n);

/// Tap i of scalar_sinc_taps (every caller compiles with contraction
/// off): x_i = B (i ts - tau); 1 where |x_i| < 1e-12, else
/// (-1)^(i-m) sin_m / (pi x_i), as i - m and i ^ m share parity.
inline double sinc_tap(double ts, double bandwidth, double tau,
                       std::size_t m, double sin_m, std::size_t i) {
  const double x = bandwidth * (static_cast<double>(i) * ts - tau);
  if (std::abs(x) < 1e-12) return 1.0;
  return (((i ^ m) & 1) != 0 ? -sin_m : sin_m) / (kPi * x);
}

// ---------------------------------------------------------------------------
// Portable FMA-restructured kernels (backend_portable.cpp): plain C++,
// compiled everywhere. Reassociated accumulations (4 independent
// accumulators) and anchor+delta phasor evaluation.
// ---------------------------------------------------------------------------
void portable_phasor_ramp(double step, std::size_t n, cplx* dst);
cplx portable_dot_phasor_ramp(double step, const cplx* w, std::size_t n);
void portable_axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n);
void portable_delay_phasors(const double* freqs, bool affine, double df,
                            double delay_s, cplx* dst, std::size_t n);
void portable_accumulate_phasors(cplx alpha, bool affine, const cplx* ph,
                                 cplx* dst, std::size_t n);
cplx portable_dot_phasors(const cplx* ph, const cplx* w, std::size_t n);

// ---------------------------------------------------------------------------
// AVX2 sampled-sinc taps (backend_avx2_sinc.cpp, x86-64 only): compiled
// apart from backend_avx2.cpp, without FMA and with contraction off, so
// its four-lane quotients are the scalar entry's bits.
// ---------------------------------------------------------------------------
void avx2_sinc_taps(double ts, double bandwidth, double tau, std::size_t m,
                    double sin_m, double* out, std::size_t n);

/// The AVX2 sincos entry (backend_avx2.cpp, x86-64 only; callable only
/// where the CPU has avx2 and fma): sincos4 on every lane of a whole
/// vector that lies in its domain, libm on the other lanes and on the
/// n % 4 tail. The backend's phasor generation runs its padded batches
/// through this entry, so the AVX2 references in tests/dsp reproduce a
/// generated phasor through it too.
void avx2_sincos(const double* x, double* s, double* c, std::size_t n);

// ---------------------------------------------------------------------------
// Shared building blocks.
// ---------------------------------------------------------------------------

/// Anchor block length of the anchor+delta phasor evaluation: phasors are
/// taken exact (a sincos: libm on the portable and NEON backends, the
/// in-house sincos4 on AVX2) every kRampBlock elements and filled in
/// between by one complex rotation each, bounding the per-element error
/// to ~2 rounding steps regardless of n.
inline constexpr std::size_t kRampBlock = 8;

/// exp(-j step k) for k in [0, kRampBlock), evaluated with libm (the
/// portable backend's deltas; delta[0] == (1, 0) exactly).
struct RampDeltas {
  double re[kRampBlock];
  double im[kRampBlock];
};
RampDeltas compute_ramp_deltas(double step);

/// True when freqs[] is an affine grid freqs[k] ~= f0 + k*df (relative
/// deviation <= 1e-9 of the grid span). Production subcarrier grids are;
/// arbitrary inputs fall back to the scalar delay-phasor loop. Run once
/// per grid by dsp::make_phasor_grid, not per path.
bool affine_freqs(const double* freqs, std::size_t n, double* f0, double* df);

}  // namespace mmr::dsp::detail
