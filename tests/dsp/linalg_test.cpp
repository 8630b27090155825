#include "dsp/linalg.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.h"
#include "common/types.h"

namespace mmr::dsp {
namespace {

// argmin_x ||b - S x||^2 + lambda ||x||^2 for a row-major rows x cols S,
// through the normal equations (S^T S + lambda I) x = S^T b.
RVec ridge_solve(const RVec& s, std::size_t rows, std::size_t cols,
                 const RVec& b, double lambda) {
  RVec gram(cols * cols, 0.0);
  RVec x(cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < cols; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        gram[i * cols + j] += s[r * cols + i] * s[r * cols + j];
      }
      x[i] += s[r * cols + i] * b[r];
    }
  }
  ridge_factor(gram, cols, lambda);
  cholesky_solve(gram, cols, x);
  return x;
}

TEST(Cholesky, SolvesKnownSystem) {
  // A = [[4, 2], [2, 3]] (SPD), b = [8, 7] -> x = [1.25, 1.5].
  RVec a{4.0, 2.0, 2.0, 3.0};
  RVec b{8.0, 7.0};
  cholesky_factor(a, 2);
  EXPECT_DOUBLE_EQ(a[0], 2.0);  // L = [[2, 0], [1, sqrt(2)]]
  EXPECT_DOUBLE_EQ(a[2], 1.0);
  cholesky_solve(a, 2, b);
  EXPECT_NEAR(b[0], 1.25, 1e-12);
  EXPECT_NEAR(b[1], 1.5, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  RVec a{1.0, 2.0, 2.0, 1.0};  // eigenvalues 3, -1
  EXPECT_THROW(cholesky_factor(a, 2), std::runtime_error);
}

TEST(Cholesky, RejectsMismatchedDimensions) {
  RVec a{4.0, 2.0, 2.0, 3.0};
  RVec b{1.0, 1.0, 1.0};
  EXPECT_THROW(cholesky_factor(a, 3), std::logic_error);
  cholesky_factor(a, 2);
  EXPECT_THROW(cholesky_solve(a, 2, b), std::logic_error);
}

TEST(RidgeLs, RecoversExactSolutionLowLambda) {
  // Overdetermined: S (4x2) with known x, noiseless.
  Rng rng(11);
  RVec s(4 * 2);
  for (double& v : s) v = rng.normal();
  const RVec x_true{1.0, -0.5};
  RVec b(4, 0.0);
  for (std::size_t r = 0; r < 4; ++r) {
    b[r] = s[r * 2] * x_true[0] + s[r * 2 + 1] * x_true[1];
  }
  const RVec x = ridge_solve(s, 4, 2, b, 1e-12);
  EXPECT_NEAR(x[0], x_true[0], 1e-6);
  EXPECT_NEAR(x[1], x_true[1], 1e-6);
}

TEST(RidgeLs, LargeLambdaShrinksTowardZero) {
  const RVec identity{1.0, 0.0, 0.0, 1.0};
  const RVec x = ridge_solve(identity, 2, 2, {1.0, 1.0}, 100.0);
  EXPECT_LT(std::abs(x[0]), 0.05);
}

TEST(RidgeLs, RejectsNonPositiveLambda) {
  RVec gram{1.0, 0.0, 0.0, 1.0};
  EXPECT_THROW(ridge_factor(gram, 2, 0.0), std::logic_error);
}

}  // namespace
}  // namespace mmr::dsp
