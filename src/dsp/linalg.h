// Small real symmetric positive-definite solves: the ridge normal
// equations of the super-resolution fit (paper Eq. 23) and of the
// tracker's quadratic smoother. The systems are tiny (one row per beam,
// or per polynomial coefficient) and always carry a ridge term, so a
// plain Cholesky on the normal equations is both adequate and robust.
//
// Matrices are row-major n x n in caller-owned storage, so nothing here
// allocates. Every loop runs in a fixed order -- factor rows i ascending,
// columns j <= i, inner k ascending; forward then back substitution --
// so a caller that builds its normal equations with fixed-order sums gets
// reproducible bits.
#pragma once

#include <cstddef>
#include <span>

namespace mmr::dsp {

/// Factors A = L L^T in place. `a` holds A row-major (n x n); only its
/// lower triangle is read, and L overwrites it (the strict upper triangle
/// is left as it was). Throws std::runtime_error when a pivot is <= 0.
void cholesky_factor(std::span<double> a, std::size_t n);

/// Ridge step shared by the least-squares callers: adds `lambda` (> 0) to
/// the diagonal of the Gram matrix in `gram`, then factors it in place as
/// cholesky_factor does.
void ridge_factor(std::span<double> gram, std::size_t n, double lambda);

/// Solves L L^T x = b in place (b becomes x) for L from cholesky_factor.
void cholesky_solve(std::span<const double> l, std::size_t n,
                    std::span<double> b);

}  // namespace mmr::dsp
