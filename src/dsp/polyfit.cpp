#include "dsp/polyfit.h"

#include "common/error.h"
#include "dsp/linalg.h"

namespace mmr::dsp {

RVec polyfit(const RVec& x, const RVec& y, std::size_t degree) {
  MMR_EXPECTS(x.size() == y.size());
  MMR_EXPECTS(x.size() >= degree + 1);
  const std::size_t n = degree + 1;
  // Normal equations of the Vandermonde design V[i][j] = x_i^j, every
  // entry summed in sample order: gram = V^T V (lower triangle) and
  // coeffs = V^T y, which the solve overwrites with the coefficients.
  RVec gram(n * n, 0.0);
  RVec powers(n);
  RVec coeffs(n, 0.0);
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
  return coeffs;
}

double polyval(const RVec& coeffs, double x) {
  double acc = 0.0;
  for (std::size_t j = coeffs.size(); j-- > 0;) acc = acc * x + coeffs[j];
  return acc;
}

}  // namespace mmr::dsp
