#include "dsp/linalg.h"

#include <cmath>
#include <stdexcept>

#include "common/error.h"

namespace mmr::dsp {

void cholesky_factor(std::span<double> a, std::size_t n) {
  MMR_EXPECTS(a.size() == n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) sum -= a[i * n + k] * a[j * n + k];
      if (i == j) {
        if (sum <= 0.0) {
          throw std::runtime_error(
              "cholesky_factor: matrix is not positive definite");
        }
        a[i * n + i] = std::sqrt(sum);
      } else {
        a[i * n + j] = sum / a[j * n + j];
      }
    }
  }
}

void ridge_factor(std::span<double> gram, std::size_t n, double lambda) {
  MMR_EXPECTS(lambda > 0.0);
  MMR_EXPECTS(gram.size() == n * n);
  for (std::size_t i = 0; i < n; ++i) gram[i * n + i] += lambda;
  cholesky_factor(gram, n);
}

void cholesky_solve(std::span<const double> l, std::size_t n,
                    std::span<double> b) {
  MMR_EXPECTS(l.size() == n * n);
  MMR_EXPECTS(b.size() == n);
  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l[i * n + k] * b[k];
    b[i] = sum / l[i * n + i];
  }
  // Back substitution L^T x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l[k * n + ii] * b[k];
    b[ii] = sum / l[ii * n + ii];
  }
}

}  // namespace mmr::dsp
