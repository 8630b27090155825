#include "core/multibeam.h"

#include <cmath>

#include "array/pattern_cache.h"
#include "common/error.h"
#include "dsp/kernels.h"

namespace mmr::core {

MultiBeam synthesize_multibeam(const array::Ula& ula,
                               const std::vector<BeamComponent>& components) {
  MMR_EXPECTS(!components.empty());
  MultiBeam mb;
  mb.components = components;
  mb.weights.assign(ula.num_elements, cplx{});
  // The probing/tracking loops resynthesize multi-beams from the same few
  // trained angles every tick: pull the matched single-beam weights from
  // the shared PatternCache and scale-add them with the axpy kernel.
  array::PatternCache& cache = array::PatternCache::instance();
  for (const BeamComponent& c : components) {
    const std::shared_ptr<const CVec> w =
        cache.beam_weights(ula, c.angle_rad);
    dsp::axpy(c.coefficient, w->data(), mb.weights.data(), w->size());
  }
  double norm2 = 0.0;
  for (const cplx& w : mb.weights) norm2 += std::norm(w);
  MMR_EXPECTS(norm2 > 0.0);
  mb.gain_norm = std::sqrt(norm2);
  const double inv = 1.0 / mb.gain_norm;
  for (cplx& w : mb.weights) w *= inv;
  return mb;
}

std::vector<BeamComponent> constructive_components(
    const std::vector<double>& angles_rad, const std::vector<cplx>& ratios) {
  MMR_EXPECTS(angles_rad.size() == ratios.size());
  MMR_EXPECTS(!angles_rad.empty());
  std::vector<BeamComponent> out;
  out.reserve(angles_rad.size());
  for (std::size_t k = 0; k < angles_rad.size(); ++k) {
    BeamComponent c;
    c.angle_rad = angles_rad[k];
    // MRC: coefficient conj(h_k/h_0) = delta_k e^{-j sigma_k} (Eq. 10).
    c.coefficient = std::conj(ratios[k]);
    out.push_back(c);
  }
  return out;
}

double ideal_multibeam_gain(const std::vector<double>& deltas) {
  MMR_EXPECTS(!deltas.empty());
  double gain = 0.0;
  for (double d : deltas) {
    MMR_EXPECTS(d >= 0.0);
    gain += d * d;
  }
  return gain;
}

double two_beam_gain(double delta_true, double sigma_true_rad,
                     double delta_hat, double sigma_hat_rad) {
  MMR_EXPECTS(delta_true >= 0.0);
  MMR_EXPECTS(delta_hat >= 0.0);
  // Received amplitude with coefficient c = d_hat e^{-j s_hat} on the
  // second beam, channel ratio r = d e^{j s}, unit-power normalization
  // 1 + d_hat^2 in the denominator; single beam on path 0 yields 1.
  const cplx c = std::polar(delta_hat, -sigma_hat_rad);
  const cplx r = std::polar(delta_true, sigma_true_rad);
  const double num = std::norm(cplx{1.0, 0.0} + c * r);
  const double den = 1.0 + delta_hat * delta_hat;
  return num / den;
}

}  // namespace mmr::core
