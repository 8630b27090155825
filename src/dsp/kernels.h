// Batched complex microkernels: phasor ramps (steering-vector innards),
// fused phasor inner products (array factors), and complex axpy — the
// primitives every beamforming hot loop reduces to.
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
// Since PR-6 every batched kernel dispatches through a runtime-selected
// backend table (dsp/backend.h): the scalar reference keeps the contract
// above verbatim, while the portable/AVX2/NEON backends may reassociate
// sums and evaluate phasors by anchor+rotation within a declared,
// test-enforced tolerance (dsp::tolerances()). Goldens and journal
// byte-identity always run against the scalar reference.
//
// Edge/aliasing contract (all backends, enforced by
// tests/dsp/backend_test.cpp):
//  * n == 0 is a no-op (reductions return 0+0j); n == 1 is exact libm.
//  * axpy allows x == y (full aliasing: y[i] += alpha*y[i] element-wise).
//    PARTIALLY overlapping x/y ranges are undefined across all backends.
//  * phasor_ramp/axpy_phasor_ramp/delay_phasors/accumulate_phasors
//    destinations must not overlap their inputs (freqs or ph vs dst).
#pragma once

#include <cstddef>

#include "common/types.h"

namespace mmr::dsp {

/// SoA batch of `rows` complex vectors of length `cols` in ONE contiguous
/// allocation. Row r's layout is [re x cols][im x cols], so a row's two
/// planes are adjacent in memory and a row can be processed without
/// touching any other row's cache lines.
class CplxBatch {
 public:
  CplxBatch() = default;
  CplxBatch(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(2 * rows * cols, 0.0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double* row_re(std::size_t r) { return data_.data() + 2 * r * cols_; }
  double* row_im(std::size_t r) { return row_re(r) + cols_; }
  const double* row_re(std::size_t r) const {
    return data_.data() + 2 * r * cols_;
  }
  const double* row_im(std::size_t r) const { return row_re(r) + cols_; }

  cplx at(std::size_t r, std::size_t c) const {
    return cplx(row_re(r)[c], row_im(r)[c]);
  }

  /// Materialize row r as an interleaved complex vector. Bounds-checked
  /// (throws std::logic_error on r >= rows); the pointer accessors above
  /// stay unchecked -- they are the hot path.
  CVec row(std::size_t r) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  RVec data_;
};

/// Unit phasor exp(-j step i): the per-element op of a steering vector
/// with electrical phase step `step` between adjacent elements.
cplx unit_phasor(double step, std::size_t i);

/// Fill dst[i] = exp(-j step i) for i in [0, n) (interleaved complex).
void phasor_ramp(double step, std::size_t n, cplx* dst);

/// SoA variant: dst_re[i] = cos(-step i), dst_im[i] = sin(-step i).
void phasor_ramp(double step, std::size_t n, double* dst_re, double* dst_im);

/// Fused array factor: sum_i exp(-j step i) * w[i], without materializing
/// the phasor ramp. Sequential single-accumulator sum (unrolled by 4, no
/// reassociation) — matches `steering_vector` + sequential dot bit for bit.
cplx dot_phasor_ramp(double step, const cplx* w, std::size_t n);

/// Unconjugated complex inner product sum_i a[i] * b[i], sequential
/// single-accumulator order (unrolled by 4, no reassociation).
cplx cdot(const cplx* a, const cplx* b, std::size_t n);

/// y[i] += alpha * x[i] for i in [0, n).
void axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n);

/// Fused steering accumulate: y[i] += alpha * exp(-j step i). Replaces
/// "build steering vector, then scale-add" without the temporary.
void axpy_phasor_ramp(cplx alpha, double step, cplx* y, std::size_t n);

// ---------------------------------------------------------------------------
// Phasor generation vs consumption. Within one channel tick the traced
// paths are fixed and only the beam weights change, so the phasors a path
// contributes (its TX steering ramp, its per-subcarrier delay rotations)
// are formed once and consumed by every probe. Each pair below is bit for
// bit the fused kernel it splits, on every backend.
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
/// formed once serves every weight vector.
cplx dot_phasors(const cplx* ph, const cplx* w, std::size_t n);

}  // namespace mmr::dsp
