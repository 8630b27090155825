#include "core/superres.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "dsp/linalg.h"
#include "dsp/sinc.h"

namespace mmr::core {
namespace {

// One candidate fit for K delays: the sampled-sinc dictionary S (taps x K),
// the lower triangle of its Gram matrix S^T S, the right-hand sides
// S^T Re h and S^T Im h, and the ridge solution with its residual.
struct Fit {
  Fit(std::size_t taps, std::size_t k)
      : delays(k), dict(taps * k), gram(k * k), rhs_re(k), rhs_im(k),
        alpha_re(k), alpha_im(k) {}

  RVec delays;
  RVec dict;  ///< column-major: column c holds taps [c * taps, (c+1) * taps)
  RVec gram;  ///< row-major K x K, lower triangle, ridge not yet added
  RVec rhs_re, rhs_im;
  RVec alpha_re, alpha_im;
  double residual = 0.0;
};

// Ridge fits of one CIR (Eq. 23). The dictionary is real, so the complex
// normal equations (S^H S + lambda I) alpha = S^H h split into one real
// system with two right-hand sides. Every product of the complex solve
// has one operand with a zero imaginary part, and it only divides by
// real pivots, so the same real sums taken in the same order reproduce
// its alphas and residual bit for bit. All buffers are sized once per
// superres_per_beam call; no solve allocates.
class DelayFitter {
 public:
  DelayFitter(const CVec& h, double ts, double bandwidth_hz, double lambda,
              std::size_t k)
      : h_(h), ts_(ts), bandwidth_hz_(bandwidth_hz), lambda_(lambda), k_(k),
        chol_(k * k) {}

  /// Builds every column from fit.delays and solves.
  void fit_all(Fit& fit) {
    for (std::size_t c = 0; c < k_; ++c) set_column(fit, c);
    for (std::size_t i = 0; i < k_; ++i) {
      for (std::size_t j = 0; j <= i; ++j) set_gram(fit, i, j);
    }
    solve(fit);
  }

  /// Re-solves after only column c's delay moved: the other columns,
  /// their Gram entries and right-hand sides are reused as they are.
  void refit_column(Fit& fit, std::size_t c) {
    set_column(fit, c);
    for (std::size_t j = 0; j < k_; ++j) {
      set_gram(fit, std::max(c, j), std::min(c, j));
    }
    solve(fit);
  }

 private:
  const double* column(const Fit& fit, std::size_t c) const {
    return fit.dict.data() + c * h_.size();
  }

  void set_column(Fit& fit, std::size_t c) const {
    double* col = fit.dict.data() + c * h_.size();
    double re = 0.0;
    double im = 0.0;
    for (std::size_t n = 0; n < h_.size(); ++n) {
      col[n] = dsp::sampled_sinc_tap(n, ts_, bandwidth_hz_, fit.delays[c]);
      re += col[n] * h_[n].real();
      im += col[n] * h_[n].imag();
    }
    fit.rhs_re[c] = re;
    fit.rhs_im[c] = im;
  }

  void set_gram(Fit& fit, std::size_t i, std::size_t j) const {
    const double* ci = column(fit, i);
    const double* cj = column(fit, j);
    double acc = 0.0;
    for (std::size_t n = 0; n < h_.size(); ++n) acc += ci[n] * cj[n];
    fit.gram[i * k_ + j] = acc;
  }

  void solve(Fit& fit) {
    std::copy(fit.gram.begin(), fit.gram.end(), chol_.begin());
    dsp::ridge_factor(chol_, k_, lambda_);
    fit.alpha_re = fit.rhs_re;
    fit.alpha_im = fit.rhs_im;
    dsp::cholesky_solve(chol_, k_, fit.alpha_re);
    dsp::cholesky_solve(chol_, k_, fit.alpha_im);
    // ||h - S alpha||: per tap, the model summed in column order.
    double acc = 0.0;
    for (std::size_t n = 0; n < h_.size(); ++n) {
      double model_re = 0.0;
      double model_im = 0.0;
      for (std::size_t c = 0; c < k_; ++c) {
        const double s = column(fit, c)[n];
        model_re += s * fit.alpha_re[c];
        model_im += s * fit.alpha_im[c];
      }
      const double dr = h_[n].real() - model_re;
      const double di = h_[n].imag() - model_im;
      acc += dr * dr + di * di;
    }
    fit.residual = std::sqrt(acc);
  }

  const CVec& h_;
  double ts_;
  double bandwidth_hz_;
  double lambda_;
  std::size_t k_;
  RVec chol_;  ///< ridge Cholesky factor scratch
};

}  // namespace

RVec SuperresResult::powers() const {
  RVec p(alphas.size());
  for (std::size_t k = 0; k < alphas.size(); ++k) p[k] = std::norm(alphas[k]);
  return p;
}

SuperresResult superres_per_beam(const CVec& cir, const RVec& nominal_delays_s,
                                 double ts, double bandwidth_hz,
                                 const SuperresConfig& config) {
  MMR_EXPECTS(!cir.empty());
  MMR_EXPECTS(!nominal_delays_s.empty());
  MMR_EXPECTS(cir.size() >= nominal_delays_s.size());
  MMR_EXPECTS(config.lambda > 0.0);
  MMR_EXPECTS(config.common_shift_steps >= 1);
  MMR_EXPECTS(config.relative_steps >= 1);

  // Corrupted feedback words (NaN/Inf taps) would poison the normal
  // equations and surface as non-finite per-beam amplitudes; zero them so
  // the fit runs on the surviving taps. A clean CIR takes the fast path
  // untouched.
  CVec sanitized;
  const CVec* taps = &cir;
  for (std::size_t n = 0; n < cir.size(); ++n) {
    if (std::isfinite(cir[n].real()) && std::isfinite(cir[n].imag())) continue;
    if (sanitized.empty()) sanitized = cir;
    sanitized[n] = cplx{};
    taps = &sanitized;
  }
  const CVec& h = *taps;

  auto grid_offset = [](std::size_t idx, std::size_t steps, double span) {
    if (steps == 1) return 0.0;
    return (static_cast<double>(idx) / static_cast<double>(steps - 1) - 0.5) *
           2.0 * span;
  };

  // Stage 1: common shift, relative structure fixed. Coarse grid over the
  // full span, then a fine grid around the best coarse shift.
  const std::size_t k = nominal_delays_s.size();
  DelayFitter fitter(h, ts, bandwidth_hz, config.lambda, k);
  Fit best(h.size(), k);
  Fit trial(h.size(), k);
  best.delays = nominal_delays_s;
  fitter.fit_all(best);
  double best_shift = 0.0;
  auto try_shift = [&](double shift) {
    for (std::size_t c = 0; c < k; ++c) {
      trial.delays[c] = nominal_delays_s[c] + shift;
    }
    fitter.fit_all(trial);
    if (trial.residual < best.residual) {
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

  // Stage 2: small per-path refinement (relative-ToF drift). Each trial
  // moves one column of the current best fit.
  if (config.relative_steps > 1 && config.relative_span_s > 0.0) {
    for (std::size_t round = 0; round < config.refinement_rounds; ++round) {
      for (std::size_t c = 0; c < k; ++c) {
        const double center = best.delays[c];
        for (std::size_t si = 0; si < config.relative_steps; ++si) {
          const double off =
              grid_offset(si, config.relative_steps, config.relative_span_s);
          if (off == 0.0) continue;
          trial = best;
          trial.delays[c] = center + off;
          fitter.refit_column(trial, c);
          if (trial.residual < best.residual) std::swap(best, trial);
        }
      }
    }
  }

  SuperresResult result;
  result.alphas.resize(k);
  for (std::size_t c = 0; c < k; ++c) {
    result.alphas[c] = cplx{best.alpha_re[c], best.alpha_im[c]};
  }
  result.delays_s = std::move(best.delays);
  result.residual = best.residual;
  // Last line of defense: a degenerate dictionary can still leak NaN out
  // of the solver; a non-finite "amplitude" is a claim of no energy, not
  // infinite energy, so clamp to zero rather than letting callers track
  // garbage powers.
  for (cplx& a : result.alphas) {
    if (!std::isfinite(a.real()) || !std::isfinite(a.imag())) a = cplx{};
  }
  if (!std::isfinite(result.residual)) result.residual = 0.0;
  return result;
}

CVec reconstruct_cir(const SuperresResult& fit, std::size_t num_taps,
                     double ts, double bandwidth_hz) {
  MMR_EXPECTS(fit.alphas.size() == fit.delays_s.size());
  CVec model(num_taps);
  for (std::size_t n = 0; n < num_taps; ++n) {
    cplx acc{};
    for (std::size_t c = 0; c < fit.alphas.size(); ++c) {
      acc += dsp::sampled_sinc_tap(n, ts, bandwidth_hz, fit.delays_s[c]) *
             fit.alphas[c];
    }
    model[n] = acc;
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
  for (int i = 0; i <= 48; ++i) {
    const double tau = lo + (hi - lo) * static_cast<double>(i) / 48.0;
    if (tau < 0.0) continue;
    const double mag = std::abs(dsp::sinc_interpolate(h, ts, bandwidth, tau));
    if (mag > best_mag) {
      best_mag = mag;
      best_tau = tau;
    }
  }
  return best_tau;
}

}  // namespace mmr::core
