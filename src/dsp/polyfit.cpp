#include "dsp/polyfit.h"

#include <algorithm>

#include "common/error.h"
#include "dsp/linalg.h"

namespace mmr::dsp {

void polyfit(std::span<const double> x, std::span<const double> y,
             std::span<double> coeffs, std::span<double> scratch) {
  const std::size_t n = coeffs.size();
  MMR_EXPECTS(n >= 1);
  MMR_EXPECTS(x.size() == y.size());
  MMR_EXPECTS(x.size() >= n);
  MMR_EXPECTS(scratch.size() >= n * (n + 1));
  // Normal equations of the Vandermonde design V[i][j] = x_i^j, every
  // entry summed in sample order: gram = V^T V (lower triangle) and
  // coeffs = V^T y, which the solve overwrites with the coefficients.
  const std::span<double> gram = scratch.first(n * n);
  const std::span<double> powers = scratch.subspan(n * n, n);
  std::fill(gram.begin(), gram.end(), 0.0);
  std::fill(coeffs.begin(), coeffs.end(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    double p = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      powers[j] = p;
      p *= x[i];
    }
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t l = 0; l <= j; ++l) {
        gram[j * n + l] += powers[j] * powers[l];
      }
      coeffs[j] += powers[j] * y[i];
    }
  }
  // Tiny ridge for numerical safety; does not noticeably bias the fit.
  ridge_factor(gram, n, 1e-12);
  cholesky_solve(gram, n, coeffs);
}

RVec polyfit(const RVec& x, const RVec& y, std::size_t degree) {
  const std::size_t n = degree + 1;
  RVec coeffs(n);
  RVec scratch(n * (n + 1));
  polyfit(x, y, coeffs, scratch);
  return coeffs;
}

double polyval(std::span<const double> coeffs, double x) {
  double acc = 0.0;
  for (std::size_t j = coeffs.size(); j-- > 0;) acc = acc * x + coeffs[j];
  return acc;
}

}  // namespace mmr::dsp
