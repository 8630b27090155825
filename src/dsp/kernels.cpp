#include "dsp/kernels.h"

#include "dsp/backend.h"
#include "dsp/backend_kernels.h"

namespace mmr::dsp {

// Every kernel below routes through the active backend's dispatch table
// (dsp/backend.h). The scalar reference implementations live in
// backend_scalar.cpp, bit-for-bit the loops that used to sit here.

void phasor_ramp(double step, std::size_t n, cplx* dst) {
  active_table().phasor_ramp(step, n, dst);
}

cplx dot_phasor_ramp(double step, const cplx* w, std::size_t n) {
  return active_table().dot_phasor_ramp(step, w, n);
}

void axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n) {
  active_table().axpy(alpha, x, y, n);
}

PhasorGrid make_phasor_grid(const double* freqs, std::size_t n) {
  PhasorGrid grid;
  grid.freqs = freqs;
  grid.size = n;
  double f0 = 0.0;
  grid.affine = detail::affine_freqs(freqs, n, &f0, &grid.df);
  return grid;
}

void delay_phasors(const PhasorGrid& grid, double delay_s, cplx* dst) {
  active_table().delay_phasors(grid.freqs, grid.affine, grid.df, delay_s, dst,
                               grid.size);
}

void accumulate_phasors(cplx alpha, const PhasorGrid& grid, const cplx* ph,
                        cplx* dst) {
  active_table().accumulate_phasors(alpha, grid.affine, ph, dst, grid.size);
}

cplx dot_phasors(const cplx* ph, const cplx* w, std::size_t n) {
  return active_table().dot_phasors(ph, w, n);
}

void accumulate_ramp(cplx alpha, const cplx* ph, cplx* dst, std::size_t n) {
  // The fast backends form a ramp past 2 * kRampBlock elements by anchor
  // x delta blocks, as they form an affine delay family, so it takes the
  // affine grid's MAC.
  active_table().accumulate_phasors(alpha, /*affine=*/true, ph, dst, n);
}

void log(const double* x, double* y, std::size_t n) {
  active_table().log(x, y, n);
}

void sincos(const double* x, double* s, double* c, std::size_t n) {
  active_table().sincos(x, s, c, n);
}

NormalMath normal_math() {
  const KernelTable& t = active_table();
  return NormalMath{t.log, t.sincos};
}

}  // namespace mmr::dsp
