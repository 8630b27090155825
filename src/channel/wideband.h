// Wideband channel synthesis: from traced paths + beam weights to the
// observable quantities every algorithm consumes — per-subcarrier CSI
// (paper Eq. 26 projected through the beamformer) and sampled CIR
// (paper Eq. 22).
#pragma once

#include <functional>
#include <vector>

#include "array/geometry.h"
#include "channel/path.h"
#include "common/types.h"
#include "dsp/kernels.h"

namespace mmr::channel {

/// OFDM-style frequency grid for channel evaluation.
struct WidebandSpec {
  double carrier_hz = 28.0e9;
  double bandwidth_hz = 400.0e6;
  std::size_t num_subcarriers = 64;

  double subcarrier_spacing() const {
    return bandwidth_hz / static_cast<double>(num_subcarriers);
  }
  /// Baseband frequency of subcarrier k, centered on the carrier.
  double freq_offset(std::size_t k) const {
    return (static_cast<double>(k) -
            (static_cast<double>(num_subcarriers) - 1.0) / 2.0) *
           subcarrier_spacing();
  }
  /// Nyquist sample period of the baseband (1/B).
  double sample_period() const { return 1.0 / bandwidth_hz; }
};

/// Receive front end: quasi-omni (paper Sections 3-6.1) or directional
/// ULA (Section 4.4).
struct RxFrontend {
  bool directional = false;
  array::Ula ula{};
  CVec weights{};        ///< used when directional
  double omni_gain = 1.0;

  /// Complex response toward arrival angle theta.
  cplx response(double aoa_rad) const;

  static RxFrontend omni(double gain = 1.0);
  static RxFrontend beam(const array::Ula& ula, const CVec& weights);
};

/// Complex amplitude of one path as seen through the TX beamformer and RX
/// front end at the carrier: alpha_l = g_l * AF_tx(phi_l) * AF_rx(theta_l).
cplx path_amplitude(const Path& path, const array::Ula& tx_ula,
                    const CVec& tx_weights, const RxFrontend& rx);

/// Per-subcarrier effective scalar channel H(k). Delays are referenced to
/// the earliest path (receiver timing lock), so H carries only the excess
/// delay structure.
CVec effective_csi(const std::vector<Path>& paths, const array::Ula& tx_ula,
                   const CVec& tx_weights, const WidebandSpec& spec,
                   const RxFrontend& rx);

/// Same, but with frequency-dependent TX weights (delay phased array):
/// weights_at(freq_offset_hz) -> per-element weights.
CVec effective_csi_freq_weights(
    const std::vector<Path>& paths, const array::Ula& tx_ula,
    const std::function<CVec(double)>& weights_at, const WidebandSpec& spec,
    const RxFrontend& rx);

/// Sampled channel impulse response (paper Eq. 22): num_taps taps at the
/// Nyquist period, each path contributing alpha_l * sinc(B(n Ts - tau_l)),
/// delays referenced to the earliest path. `timing_offset_s` shifts every
/// arrival (receiver SFO/timing error).
CVec effective_cir(const std::vector<Path>& paths, const array::Ula& tx_ula,
                   const CVec& tx_weights, const WidebandSpec& spec,
                   std::size_t num_taps, const RxFrontend& rx,
                   double timing_offset_s = 0.0);

/// Write spec.freq_offset(k) for k in [0, num_subcarriers) into `freqs`.
void fill_freq_grid(const WidebandSpec& spec, double* freqs);

/// Mean received power across subcarriers (linear) for given weights.
double received_power(const std::vector<Path>& paths,
                      const array::Ula& tx_ula, const CVec& tx_weights,
                      const WidebandSpec& spec, const RxFrontend& rx);

/// Mean |csi[k]|^2 over k in [0, n), n >= 1, summed in k order: the one
/// power rule of received_power, PathResponse::received_power and the CSI
/// probe's record in sim::LinkWorld, so all three give the same bits for
/// the same CSI.
double mean_power(const cplx* csi, std::size_t n);

/// The beam-independent half of the channel synthesis above: per traced
/// path its effective gain (blockage applied), AoA, excess delay over the
/// earliest path, TX steering phasors and per-subcarrier delay phasors.
/// Within one tick the paths stay put and only the beam weights change,
/// so one table serves every CSI probe, CIR probe, power score and
/// oracle channel of the tick. Each evaluation is bit for bit its free
/// function (which builds a table per call): the phasors come from the
/// dsp generation kernels and are consumed by their paired MACs
/// (dsp/kernels.h).
///
/// Filled in two stages: fill() sets everything but the delay phasors,
/// which only CSI and power evaluations read and fill_delays() adds.
/// Storage is reused across refills.
class PathResponse {
 public:
  /// Stage 1 for `paths` (non-empty) seen through `tx_ula`. Drops any
  /// delay phasors of a previous fill.
  void fill(const std::vector<Path>& paths, const array::Ula& tx_ula);
  /// Stage 2: delay phasors over `grid` (whose frequencies are read only
  /// here). Requires fill().
  void fill_delays(const dsp::PhasorGrid& grid);
  bool has_delays() const { return has_delays_; }

  /// effective_csi into csi[0..grid.size). Requires fill_delays().
  void csi(const CVec& tx_weights, const RxFrontend& rx, cplx* csi) const;
  /// received_power; `csi` is grid.size scratch. Requires fill_delays().
  double received_power(const CVec& tx_weights, const RxFrontend& rx,
                        cplx* csi) const;
  /// effective_cir into cir[0..num_taps), num_taps >= 1; `pulse` is
  /// num_taps scratch.
  void cir(const CVec& tx_weights, const RxFrontend& rx,
           const WidebandSpec& spec, std::size_t num_taps,
           double timing_offset_s, cplx* cir, double* pulse) const;
  /// per_antenna_channel into h[0..num_elements): each path's steering
  /// ramp, scaled by its gain through `rx`, accumulated in path order.
  void per_antenna(const RxFrontend& rx, cplx* h) const;

 private:
  /// path_amplitude of path `l`: g_l * AF_tx(phi_l) * AF_rx(theta_l).
  cplx amplitude(std::size_t l, const CVec& tx_weights,
                 const RxFrontend& rx) const;

  struct Terms {
    cplx gain;            ///< Path::effective_gain()
    double aoa_rad = 0.0;
    double excess_s = 0.0;  ///< delay over the earliest path
  };
  std::vector<Terms> terms_;
  CVec steering_;  ///< num_paths x num_elements
  CVec delays_;    ///< num_paths x grid.size
  std::size_t num_elements_ = 0;
  dsp::PhasorGrid grid_;  ///< size and affine check; freqs not read again
  bool has_delays_ = false;
};

/// Narrowband per-antenna channel vector h[n] at the carrier (paper
/// Eq. 7 / Eq. 25): what the oracle beamformer conjugates.
CVec per_antenna_channel(const std::vector<Path>& paths,
                         const array::Ula& tx_ula, const RxFrontend& rx);

}  // namespace mmr::channel
