// Complex beamforming microkernels: phasor ramps (steering-vector
// innards), fused phasor inner products (array factors), complex axpy,
// and the per-tick phasor generation/consumption pairs -- the primitives
// every beamforming hot loop reduces to.
//
// Bit-compatibility contract: on the SCALAR backend every kernel performs
// the SAME per-element floating-point operations in the SAME order as the
// scalar loops it replaces (array/geometry.cpp, array/pattern.cpp,
// channel/wideband.cpp as of PR-1). Manual unrolling never reassociates
// the accumulation, so a kernel result is reproducible against a naive
// reference to <= 1 ULP (empirically bit-identical; enforced by
// tests/dsp/kernel_differential_test over >= 1e4 randomized cases). This
// is what lets the PatternCache hand one worker's result to every other
// sweep worker without perturbing the golden figures.
//
// Every kernel dispatches through a runtime-selected backend table
// (dsp/backend.h): the scalar reference keeps the contract above
// verbatim, while the portable/AVX2/NEON backends may reassociate sums
// and evaluate phasors by anchor+rotation within a declared,
// test-enforced tolerance (dsp::tolerances()). The goldens' exact pins
// hold on the scalar reference; ctest runs the sweep and engine suites
// under it (sweep_forced_scalar, engine_forced_scalar) as well as on the
// CPU-selected backend, where their tolerances absorb the difference.
//
// Edge/aliasing contract (all backends, enforced by
// tests/dsp/backend_test.cpp):
//  * n == 0 is a no-op (reductions return 0+0j); n == 1 is exact libm.
//  * axpy allows x == y (full aliasing: y[i] += alpha*y[i] element-wise).
//    PARTIALLY overlapping x/y ranges are undefined across all backends.
//  * phasor_ramp/delay_phasors/accumulate_phasors/accumulate_ramp/
//    log/sincos destinations must not overlap their inputs (freqs, ph or
//    x vs dst).
#pragma once

#include <cstddef>

#include "common/rng.h"
#include "common/types.h"

namespace mmr::dsp {

/// Fill dst[i] = exp(-j step i) for i in [0, n).
void phasor_ramp(double step, std::size_t n, cplx* dst);

/// Fused array factor: sum_i exp(-j step i) * w[i], without materializing
/// the phasor ramp. Sequential single-accumulator sum (unrolled by 4, no
/// reassociation) — matches `steering_vector` + sequential dot bit for bit.
cplx dot_phasor_ramp(double step, const cplx* w, std::size_t n);

/// y[i] += alpha * x[i] for i in [0, n).
void axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n);

// ---------------------------------------------------------------------------
// Phasor generation vs consumption. Within one channel tick the traced
// paths are fixed and only the beam weights change, so the phasors a path
// contributes (its TX steering ramp, its per-subcarrier delay rotations)
// are formed once and consumed by every probe. A delay family is formed
// by delay_phasors and consumed by accumulate_phasors; a steering ramp is
// formed by phasor_ramp and consumed by dot_phasors (beam weights) or
// accumulate_ramp (the per-antenna channel). Each consumer is bit for bit
// the fused kernel it replaces, on every backend.
// ---------------------------------------------------------------------------

/// A subcarrier frequency grid as the delay-phasor kernels see it: the
/// frequencies (borrowed, not copied) plus the result of the affine-grid
/// check, which make_phasor_grid runs once per grid.
struct PhasorGrid {
  const double* freqs = nullptr;
  std::size_t size = 0;
  /// freqs[k] ~= freqs[0] + k * df to 1e-9 of the span: the fast
  /// backends then form interior phasors by anchor x delta rotation.
  bool affine = false;
  double df = 0.0;
};

/// Wrap freqs[0..n) and run its affine check.
PhasorGrid make_phasor_grid(const double* freqs, std::size_t n);

/// Per-subcarrier delay rotations (paper Eq. 26 inner loop):
/// dst[k] = exp(j * ((-2 pi) * freqs[k]) * delay_s) for k < grid.size.
/// The phase is evaluated as ((-2 pi) * f) * delay, the association
/// order of the original scalar loop.
void delay_phasors(const PhasorGrid& grid, double delay_s, cplx* dst);

/// dst[k] += alpha * ph[k] for k < grid.size, where ph came from
/// delay_phasors over the same grid: the complex MAC the backend pairs
/// with that generation (std::complex on the scalar path, the backend's
/// vector MAC plus scalar tail on the rotated path).
void accumulate_phasors(cplx alpha, const PhasorGrid& grid, const cplx* ph,
                        cplx* dst);

/// sum_i ph[i] * w[i] where ph holds phasor_ramp(step, n): bit for bit
/// dot_phasor_ramp(step, w, n) on every backend, so a steering ramp
/// formed once serves every weight vector. On the scalar backend it is
/// the sequential single-accumulator sum for any ph.
cplx dot_phasors(const cplx* ph, const cplx* w, std::size_t n);

/// dst[i] += alpha * ph[i] for i < n, where ph holds phasor_ramp(step, n):
/// the MAC each backend pairs with its ramp (accumulate_phasors over an
/// affine grid), so the result is bit for bit the fused steering
/// accumulate dst[i] += alpha * exp(-j step i).
void accumulate_ramp(cplx alpha, const cplx* ph, cplx* dst, std::size_t n);

// ---------------------------------------------------------------------------
// Element-wise transcendentals of the probe impairments. The scalar
// reference is libm; the AVX2 backend evaluates whole vectors in house
// (Cody-Waite reduction plus polynomials) and hands lanes outside its
// domain -- non-finite, zero, subnormal, or beyond the reduction's range
// -- back to libm.
// ---------------------------------------------------------------------------

/// y[i] = log(x[i]) for i in [0, n).
void log(const double* x, double* y, std::size_t n);

/// s[i] = sin(x[i]), c[i] = cos(x[i]) for i in [0, n).
void sincos(const double* x, double* s, double* c, std::size_t n);

/// The active backend's log and sincos as the transform of a batched
/// Box-Muller draw (Rng::normals). On the scalar backend the batch is
/// bit for bit the sequence of Rng::normal() calls it replaces.
NormalMath normal_math();

}  // namespace mmr::dsp
