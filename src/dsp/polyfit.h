// Real least-squares polynomial fitting. The tracking algorithm smooths
// noisy per-beam power measurements by fitting a quadratic (paper
// Section 6.1: "fits a quadratic polynomial to smooth the data").
#pragma once

#include <cstddef>
#include <span>

#include "common/types.h"

namespace mmr::dsp {

/// Fit y ~ c0 + c1 x + ... + cd x^d in the least-squares sense, with
/// d = coeffs.size() - 1, into caller storage: the d+1 coefficients
/// (lowest order first) go to `coeffs`, and `scratch` holds the normal
/// equations, at least (d+1)(d+2) doubles. Allocates nothing.
/// Requires x.size() == y.size() and at least d+1 points.
void polyfit(std::span<const double> x, std::span<const double> y,
             std::span<double> coeffs, std::span<double> scratch);

/// The same fit, returning the degree+1 coefficients.
RVec polyfit(const RVec& x, const RVec& y, std::size_t degree);

/// Evaluate a polynomial (lowest order first) at x.
double polyval(std::span<const double> coeffs, double x);

}  // namespace mmr::dsp
