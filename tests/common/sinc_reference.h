// The per-tap libm form of a sampled sinc pulse (paper Eq. 22): one
// std::sin per tap. dsp::sinc_pulse takes one std::sin per pulse instead;
// this is the reference its declared bound is measured against
// (tests/dsp/sinc_test.cpp), and the CIR synthesis of tests whose inputs
// predate it.
#pragma once

#include <cmath>
#include <cstddef>

#include "common/angles.h"

namespace mmr::testing {

/// sinc(B (n ts - tau)), sinc(x) = sin(pi x) / (pi x), 1 for |x| < 1e-12.
inline double reference_sinc_tap(std::size_t n, double ts, double bandwidth,
                                 double tau) {
  const double x = bandwidth * (static_cast<double>(n) * ts - tau);
  if (std::abs(x) < 1e-12) return 1.0;
  const double px = kPi * x;
  return std::sin(px) / px;
}

}  // namespace mmr::testing
