#include "phy/estimator.h"

#include <algorithm>
#include <cmath>

#include "common/angles.h"
#include "common/error.h"
#include "dsp/kernels.h"

namespace mmr::phy {

double noise_reference(const LinkBudget& budget) {
  return budget.gain_for_snr(0.0);
}

ChannelEstimator::ChannelEstimator(EstimatorConfig config, Rng rng)
    : config_(config), rng_(rng) {
  MMR_EXPECTS(config_.noise_gain_0db > 0.0);
  MMR_EXPECTS(config_.pilot_averaging_gain >= 1.0);
}

CVec ChannelEstimator::estimate(CVec true_csi) {
  MMR_EXPECTS(!true_csi.empty());
  // CFO: per-probe carrier phase.
  if (config_.random_cfo_phase) {
    cfo_phase_ = rng_.uniform(0.0, 2.0 * kPi);
  } else {
    cfo_phase_ = wrap_2pi(cfo_phase_ +
                          rng_.normal(0.0, config_.cfo_walk_std_rad));
  }
  // SFO: linear phase ramp across subcarriers, fresh slope per probe.
  const double slope = rng_.normal(0.0, config_.sfo_slope_std_rad);
  // AWGN in channel-gain units. |H|^2 / noise_var == estimation SNR.
  const double noise_var =
      config_.noise_gain_0db / config_.pilot_averaging_gain;

  // Per subcarrier k: (H(k) + complex_normal(noise_var)) * exp(j phase_k),
  // a chunk of subcarriers at a time. The noise draws keep their order
  // (complex_normals), and the composition stays plain C++.
  const NormalMath math = dsp::normal_math();
  constexpr std::size_t kChunk = 64;
  cplx noise[kChunk];
  double phase[kChunk];
  double sin_p[kChunk];
  double cos_p[kChunk];
  for (std::size_t k0 = 0; k0 < true_csi.size(); k0 += kChunk) {
    const std::size_t m = std::min(kChunk, true_csi.size() - k0);
    for (std::size_t i = 0; i < m; ++i) {
      phase[i] = cfo_phase_ + slope * static_cast<double>(k0 + i);
    }
    math.sincos(phase, sin_p, cos_p, m);
    rng_.complex_normals(noise, m, noise_var, math);
    for (std::size_t i = 0; i < m; ++i) {
      cplx& h = true_csi[k0 + i];
      h = (h + noise[i]) * cplx(cos_p[i], sin_p[i]);
    }
  }
  return true_csi;
}

double ChannelEstimator::estimate_power(const CVec& true_csi) {
  const CVec est = estimate(true_csi);
  return true_power(est);
}

double ChannelEstimator::true_power(const CVec& csi) {
  MMR_EXPECTS(!csi.empty());
  double acc = 0.0;
  for (const cplx& h : csi) acc += std::norm(h);
  return acc / static_cast<double>(csi.size());
}

}  // namespace mmr::phy
