#include "core/superres.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory_resource>
#include <stdexcept>
#include <utility>

#include "common/error.h"
#include "dsp/sinc.h"

namespace mmr::core {
namespace {

static_assert(kMaxBeams <= 8, "the K loops below unroll at most 8 times");

// One fit problem: the CIR taps (non-finite ones zeroed) as real and
// imaginary parts, the pulse shape and the ridge weight.
struct Problem {
  const double* re;
  const double* im;
  std::size_t taps;
  double ts;
  double bandwidth_hz;
  double lambda;
};

// One candidate fit for K delays: the lower triangle of the Gram matrix
// S^T S of its sampled-sinc dictionary S (taps x K, column-major, in the
// workspace), the right-hand sides S^T Re h and S^T Im h, and the ridge
// solution with its residual.
template <std::size_t K>
struct Fit {
  std::array<double, K> delays{};
  std::array<double, K * K> gram{};  ///< row-major, ridge not yet added
  std::array<double, K> rhs_re{}, rhs_im{};
  std::array<double, K> alpha_re{}, alpha_im{};
  double residual = 0.0;
  double* dict = nullptr;
};

// Ridge fits of one CIR (Eq. 23). The dictionary is real, so the complex
// normal equations (S^H S + lambda I) alpha = S^H h split into one real
// system with two right-hand sides. Every product of the complex solve
// has one operand with a zero imaginary part, and it only divides by
// real pivots, so the same real sums taken in the same order reproduce
// its alphas and residual bit for bit. K is a compile-time constant:
// every loop over the columns unrolls and each tap loop keeps its
// per-column accumulators in registers. Every sum keeps its terms and
// their order: dot products in tap order from 0.0, the loops of
// dsp::ridge_factor and dsp::cholesky_solve, the residual per tap with
// the model summed in column order (tests/core/superres_reference.cpp
// is the runtime-K form these reproduce).

// Adds lambda to the diagonal of the lower triangle in l, factors it as
// L L^T in place (dsp::cholesky_factor's loops) and solves L L^T x = b
// for both right-hand sides (dsp::cholesky_solve's).
template <std::size_t K>
void ridge_solve(std::array<double, K * K>& l, double lambda,
                 std::array<double, K>& re, std::array<double, K>& im) {
#pragma GCC unroll 8
  for (std::size_t i = 0; i < K; ++i) l[i * K + i] += lambda;
#pragma GCC unroll 8
  for (std::size_t i = 0; i < K; ++i) {
#pragma GCC unroll 8
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = l[i * K + j];
#pragma GCC unroll 8
      for (std::size_t k = 0; k < j; ++k) sum -= l[i * K + k] * l[j * K + k];
      if (i == j) {
        if (sum <= 0.0) {
          throw std::runtime_error(
              "cholesky_factor: matrix is not positive definite");
        }
        l[i * K + i] = std::sqrt(sum);
      } else {
        l[i * K + j] = sum / l[j * K + j];
      }
    }
  }
  // Forward substitution L y = b.
#pragma GCC unroll 8
  for (std::size_t i = 0; i < K; ++i) {
    double sr = re[i];
    double si = im[i];
#pragma GCC unroll 8
    for (std::size_t k = 0; k < i; ++k) {
      sr -= l[i * K + k] * re[k];
      si -= l[i * K + k] * im[k];
    }
    re[i] = sr / l[i * K + i];
    im[i] = si / l[i * K + i];
  }
  // Back substitution L^T x = y, rows K-1 down to 0.
#pragma GCC unroll 8
  for (std::size_t r = 0; r < K; ++r) {
    const std::size_t i = K - 1 - r;
    double sr = re[i];
    double si = im[i];
#pragma GCC unroll 8
    for (std::size_t k = i + 1; k < K; ++k) {
      sr -= l[k * K + i] * re[k];
      si -= l[k * K + i] * im[k];
    }
    re[i] = sr / l[i * K + i];
    im[i] = si / l[i * K + i];
  }
}

// ||h - S alpha||: per tap, the model summed in column order.
template <std::size_t K>
double residual(const Problem& p, const std::array<const double*, K>& cols,
                const std::array<double, K>& alpha_re,
                const std::array<double, K>& alpha_im) {
  double acc = 0.0;
  for (std::size_t n = 0; n < p.taps; ++n) {
    double model_re = 0.0;
    double model_im = 0.0;
#pragma GCC unroll 8
    for (std::size_t c = 0; c < K; ++c) {
      const double s = cols[c][n];
      model_re += s * alpha_re[c];
      model_im += s * alpha_im[c];
    }
    const double dr = p.re[n] - model_re;
    const double di = p.im[n] - model_im;
    acc += dr * dr + di * di;
  }
  return std::sqrt(acc);
}

template <std::size_t K>
std::array<const double*, K> columns(const double* dict, std::size_t taps) {
  std::array<const double*, K> cols{};
#pragma GCC unroll 8
  for (std::size_t c = 0; c < K; ++c) cols[c] = dict + c * taps;
  return cols;
}

// Builds every column from fit.delays, then takes the right-hand sides
// and the lower triangle of the Gram matrix in one pass over the taps,
// and solves.
template <std::size_t K>
void fit_all(const Problem& p, Fit<K>& fit) {
#pragma GCC unroll 8
  for (std::size_t c = 0; c < K; ++c) {
    dsp::sinc_pulse(p.ts, p.bandwidth_hz, fit.delays[c],
                    {fit.dict + c * p.taps, p.taps});
  }
  const std::array<const double*, K> cols = columns<K>(fit.dict, p.taps);
  std::array<double, K> re{};
  std::array<double, K> im{};
  std::array<double, K * K> gram{};
  for (std::size_t n = 0; n < p.taps; ++n) {
#pragma GCC unroll 8
    for (std::size_t i = 0; i < K; ++i) {
      const double v = cols[i][n];
      re[i] += v * p.re[n];
      im[i] += v * p.im[n];
#pragma GCC unroll 8
      for (std::size_t j = 0; j <= i; ++j) gram[i * K + j] += v * cols[j][n];
    }
  }
  fit.gram = gram;
  fit.rhs_re = re;
  fit.rhs_im = im;
  fit.alpha_re = re;
  fit.alpha_im = im;
  ridge_solve<K>(gram, p.lambda, fit.alpha_re, fit.alpha_im);
  fit.residual = residual<K>(p, cols, fit.alpha_re, fit.alpha_im);
}

// Moves column c of `best` to `delay` in `column` (taps scratch): builds
// that column, its right-hand sides and its Gram row against best's other
// columns, and solves. Only when the residual beats best's does it write
// what the move changed into best: the column, its delay, Gram row and
// right-hand sides, the alphas and the residual.
template <std::size_t K>
void try_column(const Problem& p, Fit<K>& best, std::size_t c, double delay,
                double* column) {
  dsp::sinc_pulse(p.ts, p.bandwidth_hz, delay, {column, p.taps});
  std::array<const double*, K> cols = columns<K>(best.dict, p.taps);
  cols[c] = column;
  double re = 0.0;
  double im = 0.0;
  std::array<double, K> gram{};
  for (std::size_t n = 0; n < p.taps; ++n) {
    const double v = column[n];
    re += v * p.re[n];
    im += v * p.im[n];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < K; ++j) gram[j] += v * cols[j][n];
  }
  std::array<double, K * K> l = best.gram;
#pragma GCC unroll 8
  for (std::size_t j = 0; j < K; ++j) {
    l[std::max(c, j) * K + std::min(c, j)] = gram[j];
  }
  std::array<double, K> alpha_re = best.rhs_re;
  std::array<double, K> alpha_im = best.rhs_im;
  alpha_re[c] = re;
  alpha_im[c] = im;
  ridge_solve<K>(l, p.lambda, alpha_re, alpha_im);
  const double res = residual<K>(p, cols, alpha_re, alpha_im);
  if (!(res < best.residual)) return;
  std::copy(column, column + p.taps, best.dict + c * p.taps);
  best.delays[c] = delay;
#pragma GCC unroll 8
  for (std::size_t j = 0; j < K; ++j) {
    best.gram[std::max(c, j) * K + std::min(c, j)] = gram[j];
  }
  best.rhs_re[c] = re;
  best.rhs_im[c] = im;
  best.alpha_re = alpha_re;
  best.alpha_im = alpha_im;
  best.residual = res;
}

double grid_offset(std::size_t idx, std::size_t steps, double span) {
  if (steps == 1) return 0.0;
  return (static_cast<double>(idx) / static_cast<double>(steps - 1) - 0.5) *
         2.0 * span;
}

template <std::size_t K>
void fit_k(const Problem& p, const RVec& nominal_delays_s,
           const SuperresConfig& config, SuperresWorkspace& ws) {
  // Stage 1: common shift, relative structure fixed. Coarse grid over the
  // full span, then a fine grid around the best coarse shift. A trial
  // that wins swaps places with the best fit, dictionary included.
  Fit<K> fits[2];
  Fit<K>* best = &fits[0];
  Fit<K>* trial = &fits[1];
  best->dict = ws.best_dict.data();
  trial->dict = ws.trial_dict.data();
#pragma GCC unroll 8
  for (std::size_t c = 0; c < K; ++c) best->delays[c] = nominal_delays_s[c];
  fit_all<K>(p, *best);
  double best_shift = 0.0;
  auto try_shift = [&](double shift) {
#pragma GCC unroll 8
    for (std::size_t c = 0; c < K; ++c) {
      trial->delays[c] = nominal_delays_s[c] + shift;
    }
    fit_all<K>(p, *trial);
    if (trial->residual < best->residual) {
      std::swap(best, trial);
      best_shift = shift;
    }
  };
  if (config.common_shift_steps > 1 && config.common_shift_span_s > 0.0) {
    for (std::size_t si = 0; si < config.common_shift_steps; ++si) {
      const double shift = grid_offset(si, config.common_shift_steps,
                                       config.common_shift_span_s);
      if (shift != 0.0) try_shift(shift);
    }
    if (config.common_shift_fine_steps > 1) {
      const double coarse_step =
          2.0 * config.common_shift_span_s /
          static_cast<double>(config.common_shift_steps - 1);
      const double center = best_shift;
      for (std::size_t si = 0; si < config.common_shift_fine_steps; ++si) {
        const double shift =
            center +
            grid_offset(si, config.common_shift_fine_steps, coarse_step / 2.0);
        if (shift != center) try_shift(shift);
      }
    }
  }

  // Stage 2: small per-path refinement (relative-ToF drift). Each
  // candidate moves one column of the current best fit.
  if (config.relative_steps > 1 && config.relative_span_s > 0.0) {
    for (std::size_t round = 0; round < config.refinement_rounds; ++round) {
      for (std::size_t c = 0; c < K; ++c) {
        const double center = best->delays[c];
        for (std::size_t si = 0; si < config.relative_steps; ++si) {
          const double off =
              grid_offset(si, config.relative_steps, config.relative_span_s);
          if (off == 0.0) continue;
          try_column<K>(p, *best, c, center + off, ws.column.data());
        }
      }
    }
  }

  SuperresResult& result = ws.result;
  result.alphas.resize(K);
  result.delays_s.resize(K);
  for (std::size_t c = 0; c < K; ++c) {
    result.alphas[c] = cplx{best->alpha_re[c], best->alpha_im[c]};
    result.delays_s[c] = best->delays[c];
  }
  result.residual = best->residual;
}

using FitFn = void (*)(const Problem&, const RVec&, const SuperresConfig&,
                       SuperresWorkspace&);

template <std::size_t... I>
constexpr std::array<FitFn, sizeof...(I)> make_fits(
    std::index_sequence<I...>) {
  return {&fit_k<I + 1>...};
}

// kFits[K - 1] fits K beams.
constexpr std::array<FitFn, kMaxBeams> kFits =
    make_fits(std::make_index_sequence<kMaxBeams>{});

}  // namespace

RVec SuperresResult::powers() const {
  RVec p(alphas.size());
  for (std::size_t k = 0; k < alphas.size(); ++k) p[k] = std::norm(alphas[k]);
  return p;
}

const SuperresResult& superres_per_beam(const CVec& cir,
                                        const RVec& nominal_delays_s,
                                        double ts, double bandwidth_hz,
                                        const SuperresConfig& config,
                                        SuperresWorkspace& workspace) {
  MMR_EXPECTS(!cir.empty());
  MMR_EXPECTS(!nominal_delays_s.empty());
  MMR_EXPECTS(nominal_delays_s.size() <= kMaxBeams);
  MMR_EXPECTS(cir.size() >= nominal_delays_s.size());
  MMR_EXPECTS(config.lambda > 0.0);
  MMR_EXPECTS(config.common_shift_steps >= 1);
  MMR_EXPECTS(config.relative_steps >= 1);

  // Corrupted feedback words (NaN/Inf taps) would poison the normal
  // equations and surface as non-finite per-beam amplitudes; zero them so
  // the fit runs on the surviving taps.
  const std::size_t taps = cir.size();
  const std::size_t k = nominal_delays_s.size();
  workspace.taps_re.resize(taps);
  workspace.taps_im.resize(taps);
  for (std::size_t n = 0; n < taps; ++n) {
    const bool finite =
        std::isfinite(cir[n].real()) && std::isfinite(cir[n].imag());
    workspace.taps_re[n] = finite ? cir[n].real() : 0.0;
    workspace.taps_im[n] = finite ? cir[n].imag() : 0.0;
  }
  workspace.best_dict.resize(taps * k);
  workspace.trial_dict.resize(taps * k);
  workspace.column.resize(taps);
  const Problem problem{workspace.taps_re.data(), workspace.taps_im.data(),
                        taps, ts, bandwidth_hz, config.lambda};
  kFits[k - 1](problem, nominal_delays_s, config, workspace);

  // Last line of defense: a degenerate dictionary can still leak NaN out
  // of the solver; a non-finite "amplitude" is a claim of no energy, not
  // infinite energy, so clamp to zero rather than letting callers track
  // garbage powers.
  SuperresResult& result = workspace.result;
  for (cplx& a : result.alphas) {
    if (!std::isfinite(a.real()) || !std::isfinite(a.imag())) a = cplx{};
  }
  if (!std::isfinite(result.residual)) result.residual = 0.0;
  return result;
}

SuperresResult superres_per_beam(const CVec& cir, const RVec& nominal_delays_s,
                                 double ts, double bandwidth_hz,
                                 const SuperresConfig& config) {
  SuperresWorkspace workspace;
  superres_per_beam(cir, nominal_delays_s, ts, bandwidth_hz, config,
                    workspace);
  return std::move(workspace.result);
}

CVec reconstruct_cir(const SuperresResult& fit, std::size_t num_taps,
                     double ts, double bandwidth_hz) {
  MMR_EXPECTS(fit.alphas.size() == fit.delays_s.size());
  // Per tap, the columns summed in column order.
  CVec model(num_taps);
  RVec pulse(num_taps);
  for (std::size_t c = 0; c < fit.alphas.size(); ++c) {
    dsp::sinc_pulse(ts, bandwidth_hz, fit.delays_s[c], pulse);
    for (std::size_t n = 0; n < num_taps; ++n) {
      model[n] += pulse[n] * fit.alphas[c];
    }
  }
  return model;
}

double estimate_peak_delay(const CVec& cir, double ts) {
  MMR_EXPECTS(!cir.empty());
  MMR_EXPECTS(ts > 0.0);
  // Zero corrupted taps up front: they must neither win the coarse peak
  // search nor leak into the band-limited interpolation below (a single
  // Inf tap would otherwise make every interpolated magnitude Inf).
  CVec sanitized;
  const CVec* taps = &cir;
  for (std::size_t n = 0; n < cir.size(); ++n) {
    if (std::isfinite(cir[n].real()) && std::isfinite(cir[n].imag())) continue;
    if (sanitized.empty()) sanitized = cir;
    sanitized[n] = cplx{};
    taps = &sanitized;
  }
  const CVec& h = *taps;
  std::size_t peak = 0;
  double best = 0.0;
  for (std::size_t n = 0; n < h.size(); ++n) {
    const double mag = std::abs(h[n]);
    if (mag > best) {
      best = mag;
      peak = n;
    }
  }
  // Sub-tap refinement by maximizing the band-limited interpolation of
  // the CIR around the peak tap (a parabola over |taps| is biased because
  // the sinc's side lobes are not parabolic).
  const double bandwidth = 1.0 / ts;
  double best_tau = static_cast<double>(peak) * ts;
  double best_mag = best;
  const double lo = (static_cast<double>(peak) - 0.6) * ts;
  const double hi = (static_cast<double>(peak) + 0.6) * ts;
  // Pulse scratch on the stack for CIRs of up to 64 taps.
  std::array<double, 64> stack{};
  std::pmr::monotonic_buffer_resource arena(stack.data(), sizeof(stack));
  std::pmr::vector<double> pulse(h.size(), &arena);
  for (int i = 0; i <= 48; ++i) {
    const double tau = lo + (hi - lo) * static_cast<double>(i) / 48.0;
    if (tau < 0.0) continue;
    const double mag =
        std::abs(dsp::sinc_interpolate(h, ts, bandwidth, tau, pulse));
    if (mag > best_mag) {
      best_mag = mag;
      best_tau = tau;
    }
  }
  return best_tau;
}

}  // namespace mmr::core
