// Scalar reference backend: the PR-2 kernel loops, verbatim. This is the
// golden path -- figure goldens, journal byte-identity and every %.17g pin
// in the test tree assume these exact operations in this exact order.
// DO NOT restructure these loops; put fast variants in another backend TU.
#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/angles.h"
#include "common/rng.h"
#include "common/types.h"
#include "dsp/backend.h"
#include "dsp/backend_kernels.h"

namespace mmr::dsp::detail {

namespace {

inline cplx ref_unit_phasor(double step, std::size_t i) {
  const double ang = -step * static_cast<double>(i);
  return cplx(std::cos(ang), std::sin(ang));
}

}  // namespace

void scalar_phasor_ramp(double step, std::size_t n, cplx* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = ref_unit_phasor(step, i);
}

cplx scalar_dot_phasors(const cplx* ph, const cplx* w, std::size_t n) {
  cplx acc{};
  std::size_t i = 0;
  // Unrolled by 4 into ONE accumulator: the additions stay in element
  // order, so the sum rounds exactly like the naive reference loop. With
  // ph = the scalar ramp this is scalar_dot_phasor_ramp's sum, term for
  // term.
  for (; i + 4 <= n; i += 4) {
    acc += ph[i] * w[i];
    acc += ph[i + 1] * w[i + 1];
    acc += ph[i + 2] * w[i + 2];
    acc += ph[i + 3] * w[i + 3];
  }
  for (; i < n; ++i) acc += ph[i] * w[i];
  return acc;
}

cplx scalar_dot_phasor_ramp(double step, const cplx* w, std::size_t n) {
  cplx acc{};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc += ref_unit_phasor(step, i) * w[i];
    acc += ref_unit_phasor(step, i + 1) * w[i + 1];
    acc += ref_unit_phasor(step, i + 2) * w[i + 2];
    acc += ref_unit_phasor(step, i + 3) * w[i + 3];
  }
  for (; i < n; ++i) acc += ref_unit_phasor(step, i) * w[i];
  return acc;
}

void scalar_axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scalar_delay_phasors(const double* freqs, bool /*affine*/,
                          double /*df*/, double delay_s, cplx* dst,
                          std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = -2.0 * kPi * freqs[k] * delay_s;
    dst[k] = cplx(std::cos(ang), std::sin(ang));
  }
}

void scalar_accumulate_phasors(cplx alpha, bool /*affine*/, const cplx* ph,
                               cplx* dst, std::size_t n) {
  scalar_axpy(alpha, ph, dst, n);
}

RampDeltas compute_ramp_deltas(double step) {
  RampDeltas d;
  for (std::size_t k = 0; k < kRampBlock; ++k) {
    const double ang = -step * static_cast<double>(k);
    d.re[k] = std::cos(ang);
    d.im[k] = std::sin(ang);
  }
  return d;
}

bool affine_freqs(const double* freqs, std::size_t n, double* f0, double* df) {
  if (n < 2) {
    *f0 = (n == 1) ? freqs[0] : 0.0;
    *df = 0.0;
    return true;
  }
  const double first = freqs[0];
  const double step = (freqs[n - 1] - first) / static_cast<double>(n - 1);
  const double span = std::abs(freqs[n - 1] - first);
  const double tol =
      1e-9 * std::max({span, std::abs(first), std::abs(freqs[n - 1])});
  for (std::size_t k = 1; k + 1 < n; ++k) {
    const double predicted = first + static_cast<double>(k) * step;
    if (std::abs(freqs[k] - predicted) > tol) return false;
  }
  *f0 = first;
  *df = step;
  return true;
}

}  // namespace mmr::dsp::detail

namespace mmr::dsp::detail {

const KernelTable* scalar_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.phasor_ramp = &scalar_phasor_ramp;
    t.dot_phasor_ramp = &scalar_dot_phasor_ramp;
    t.axpy = &scalar_axpy;
    t.delay_phasors = &scalar_delay_phasors;
    t.accumulate_phasors = &scalar_accumulate_phasors;
    t.dot_phasors = &scalar_dot_phasors;
    t.log = &libm_log;
    t.sincos = &libm_sincos;
    return t;
  }();
  return &table;
}

}  // namespace mmr::dsp::detail
