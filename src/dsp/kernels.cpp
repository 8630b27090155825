#include "dsp/kernels.h"

#include <cmath>

#include "common/error.h"
#include "dsp/backend.h"
#include "dsp/backend_kernels.h"

namespace mmr::dsp {

CVec CplxBatch::row(std::size_t r) const {
  MMR_EXPECTS(r < rows_);
  CVec out(cols_);
  const double* re = row_re(r);
  const double* im = row_im(r);
  for (std::size_t c = 0; c < cols_; ++c) out[c] = cplx(re[c], im[c]);
  return out;
}

cplx unit_phasor(double step, std::size_t i) {
  const double ang = -step * static_cast<double>(i);
  return cplx(std::cos(ang), std::sin(ang));
}

// Every batched kernel below routes through the active backend's
// dispatch table (dsp/backend.h). The scalar reference implementations
// live in backend_scalar.cpp, bit-for-bit the loops that used to sit
// here.

void phasor_ramp(double step, std::size_t n, cplx* dst) {
  active_table().phasor_ramp_interleaved(step, n, dst);
}

void phasor_ramp(double step, std::size_t n, double* dst_re, double* dst_im) {
  active_table().phasor_ramp_soa(step, n, dst_re, dst_im);
}

cplx dot_phasor_ramp(double step, const cplx* w, std::size_t n) {
  return active_table().dot_phasor_ramp(step, w, n);
}

cplx cdot(const cplx* a, const cplx* b, std::size_t n) {
  return active_table().cdot(a, b, n);
}

void axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n) {
  active_table().axpy(alpha, x, y, n);
}

void axpy_phasor_ramp(cplx alpha, double step, cplx* y, std::size_t n) {
  active_table().axpy_phasor_ramp(alpha, step, y, n);
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
