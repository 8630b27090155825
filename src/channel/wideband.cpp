#include "channel/wideband.h"

#include <algorithm>
#include <cmath>

#include "array/pattern.h"
#include "common/angles.h"
#include "common/error.h"
#include "dsp/kernels.h"
#include "dsp/sinc.h"

namespace mmr::channel {
namespace {

double min_delay(const std::vector<Path>& paths) {
  MMR_EXPECTS(!paths.empty());
  double d = paths.front().delay_s;
  for (const Path& p : paths) d = std::min(d, p.delay_s);
  return d;
}

RVec freq_grid(const WidebandSpec& spec) {
  RVec freqs(spec.num_subcarriers);
  fill_freq_grid(spec, freqs.data());
  return freqs;
}

}  // namespace

void fill_freq_grid(const WidebandSpec& spec, double* freqs) {
  for (std::size_t k = 0; k < spec.num_subcarriers; ++k) {
    freqs[k] = spec.freq_offset(k);
  }
}

cplx RxFrontend::response(double aoa_rad) const {
  if (!directional) return cplx{omni_gain, 0.0};
  return array::array_factor(ula, weights, aoa_rad);
}

RxFrontend RxFrontend::omni(double gain) {
  RxFrontend rx;
  rx.directional = false;
  rx.omni_gain = gain;
  return rx;
}

RxFrontend RxFrontend::beam(const array::Ula& ula, const CVec& weights) {
  MMR_EXPECTS(weights.size() == ula.num_elements);
  RxFrontend rx;
  rx.directional = true;
  rx.ula = ula;
  rx.weights = weights;
  return rx;
}

cplx path_amplitude(const Path& path, const array::Ula& tx_ula,
                    const CVec& tx_weights, const RxFrontend& rx) {
  return path.effective_gain() *
         array::array_factor(tx_ula, tx_weights, path.aod_rad) *
         rx.response(path.aoa_rad);
}

void PathResponse::fill(const std::vector<Path>& paths,
                        const array::Ula& tx_ula) {
  const double t0 = min_delay(paths);
  const std::size_t n = tx_ula.num_elements;
  num_elements_ = n;
  has_delays_ = false;
  terms_.resize(paths.size());
  steering_.resize(paths.size() * n);
  for (std::size_t l = 0; l < paths.size(); ++l) {
    const Path& p = paths[l];
    terms_[l] = Terms{p.effective_gain(), p.aoa_rad, p.delay_s - t0};
    dsp::phasor_ramp(array::steering_phase_step(tx_ula, p.aod_rad), n,
                     steering_.data() + l * n);
  }
}

void PathResponse::fill_delays(const dsp::PhasorGrid& grid) {
  grid_ = grid;
  delays_.resize(terms_.size() * grid.size);
  for (std::size_t l = 0; l < terms_.size(); ++l) {
    dsp::delay_phasors(grid, terms_[l].excess_s,
                       delays_.data() + l * grid.size);
  }
  has_delays_ = true;
}

cplx PathResponse::amplitude(std::size_t l, const CVec& tx_weights,
                             const RxFrontend& rx) const {
  MMR_EXPECTS(tx_weights.size() == num_elements_);
  const cplx af = dsp::dot_phasors(steering_.data() + l * num_elements_,
                                   tx_weights.data(), num_elements_);
  return terms_[l].gain * af * rx.response(terms_[l].aoa_rad);
}

void PathResponse::csi(const CVec& tx_weights, const RxFrontend& rx,
                       cplx* csi) const {
  MMR_EXPECTS(has_delays_);
  const std::size_t k = grid_.size;
  for (std::size_t i = 0; i < k; ++i) csi[i] = cplx{};
  for (std::size_t l = 0; l < terms_.size(); ++l) {
    dsp::accumulate_phasors(amplitude(l, tx_weights, rx), grid_,
                            delays_.data() + l * k, csi);
  }
}

double PathResponse::received_power(const CVec& tx_weights,
                                    const RxFrontend& rx, cplx* csi) const {
  this->csi(tx_weights, rx, csi);
  return mean_power(csi, grid_.size);
}

void PathResponse::cir(const CVec& tx_weights, const RxFrontend& rx,
                       const WidebandSpec& spec, std::size_t num_taps,
                       double timing_offset_s, cplx* cir,
                       double* pulse) const {
  MMR_EXPECTS(num_taps >= 1);
  const double ts = spec.sample_period();
  for (std::size_t n = 0; n < num_taps; ++n) cir[n] = cplx{};
  for (std::size_t l = 0; l < terms_.size(); ++l) {
    const cplx alpha = amplitude(l, tx_weights, rx);
    dsp::sinc_pulse(ts, spec.bandwidth_hz,
                    terms_[l].excess_s + timing_offset_s, {pulse, num_taps});
    for (std::size_t n = 0; n < num_taps; ++n) cir[n] += alpha * pulse[n];
  }
}

void PathResponse::per_antenna(const RxFrontend& rx, cplx* h) const {
  for (std::size_t i = 0; i < num_elements_; ++i) h[i] = cplx{};
  for (std::size_t l = 0; l < terms_.size(); ++l) {
    dsp::accumulate_ramp(terms_[l].gain * rx.response(terms_[l].aoa_rad),
                         steering_.data() + l * num_elements_, h,
                         num_elements_);
  }
}

CVec effective_csi(const std::vector<Path>& paths, const array::Ula& tx_ula,
                   const CVec& tx_weights, const WidebandSpec& spec,
                   const RxFrontend& rx) {
  const RVec freqs = freq_grid(spec);
  PathResponse response;
  response.fill(paths, tx_ula);
  response.fill_delays(dsp::make_phasor_grid(freqs.data(), freqs.size()));
  CVec csi(spec.num_subcarriers);
  response.csi(tx_weights, rx, csi.data());
  return csi;
}

CVec effective_csi_freq_weights(
    const std::vector<Path>& paths, const array::Ula& tx_ula,
    const std::function<CVec(double)>& weights_at, const WidebandSpec& spec,
    const RxFrontend& rx) {
  MMR_EXPECTS(!paths.empty());
  const double t0 = min_delay(paths);
  CVec csi(spec.num_subcarriers, cplx{});
  const RVec freqs = freq_grid(spec);
  for (std::size_t k = 0; k < spec.num_subcarriers; ++k) {
    const double f = freqs[k];
    const CVec w = weights_at(f);
    cplx acc{};
    for (const Path& p : paths) {
      const cplx alpha = p.effective_gain() *
                         array::array_factor(tx_ula, w, p.aod_rad) *
                         rx.response(p.aoa_rad);
      const double ang = -2.0 * kPi * f * (p.delay_s - t0);
      acc += alpha * cplx(std::cos(ang), std::sin(ang));
    }
    csi[k] = acc;
  }
  return csi;
}

CVec effective_cir(const std::vector<Path>& paths, const array::Ula& tx_ula,
                   const CVec& tx_weights, const WidebandSpec& spec,
                   std::size_t num_taps, const RxFrontend& rx,
                   double timing_offset_s) {
  PathResponse response;
  response.fill(paths, tx_ula);
  CVec cir(num_taps);
  RVec pulse(num_taps);
  response.cir(tx_weights, rx, spec, num_taps, timing_offset_s, cir.data(),
               pulse.data());
  return cir;
}

double received_power(const std::vector<Path>& paths,
                      const array::Ula& tx_ula, const CVec& tx_weights,
                      const WidebandSpec& spec, const RxFrontend& rx) {
  const CVec csi = effective_csi(paths, tx_ula, tx_weights, spec, rx);
  return mean_power(csi.data(), csi.size());
}

double mean_power(const cplx* csi, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += std::norm(csi[i]);
  return acc / static_cast<double>(n);
}

CVec per_antenna_channel(const std::vector<Path>& paths,
                         const array::Ula& tx_ula, const RxFrontend& rx) {
  CVec h(tx_ula.num_elements, cplx{});
  if (paths.empty()) return h;
  PathResponse response;
  response.fill(paths, tx_ula);
  response.per_antenna(rx, h.data());
  return h;
}

}  // namespace mmr::channel
