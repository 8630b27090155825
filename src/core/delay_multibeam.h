// Delay-optimized multi-beam construction (paper Section 3.4).
//
// Combines the delay-phased-array architecture (array/delay_array.h) with
// mmReliable's estimated per-path parameters: each subarray is steered at
// one path, carries the constructive-combining coefficient, and is given a
// true-time delay that cancels the channel's inter-path delay difference,
// yielding a frequency-flat multi-beam response over the full band
// (Figs. 7-8).
#pragma once

#include <vector>

#include "array/codebook.h"
#include "array/delay_array.h"
#include "common/types.h"
#include "core/beam_training.h"
#include "core/controller_base.h"

namespace mmr::core {

/// Build a delay phased array for paths at `angles_rad` with relative
/// channel ratios `ratios` (h_k/h_0; ratios[0] == 1) and path delays
/// `delays_s`. If `compensate_delays` is false the delay lines are left at
/// zero -- the "conventional phased array" baseline of Fig. 8.
array::DelayPhasedArray build_delay_multibeam(
    const array::Ula& ula, const std::vector<double>& angles_rad,
    const std::vector<cplx>& ratios, const std::vector<double>& delays_s,
    bool compensate_delays = true);

struct DelayMultibeamConfig {
  /// Carrier the delay lines are tuned against (weights are reported at
  /// the carrier's center frequency).
  double carrier_hz = 28.0e9;
  /// Link bandwidth; sets the CIR tap period (1/B) for delay estimation.
  double bandwidth_hz = 400.0e6;
  std::size_t cir_taps = 24;
  /// Beams/subarrays in the delay phased array.
  std::size_t max_beams = 2;
  TrainingConfig training;
};

/// BeamController wrapper around the delay phased array: trains once at
/// start() (exhaustive sweep -> top-K directions), estimates the relative
/// per-path channels and per-beam delays from single-beam CIR peaks, and
/// holds the resulting delay-compensated multi-beam for the rest of the
/// run (the static architecture of Figs. 7-8; no maintenance loop).
class DelayMultibeamController final : public BeamController {
 public:
  DelayMultibeamController(const array::Ula& ula, array::Codebook codebook,
                           DelayMultibeamConfig config);

  void start(double t_s, const LinkProbeInterface& link) override;
  void step(double t_s, const LinkProbeInterface& link) override;
  const CVec& tx_weights() const override { return weights_; }
  bool link_available(double /*t_s*/) const override { return started_; }
  const char* name() const override { return "delay-multibeam"; }

  std::size_t num_beams() const { return angles_.size(); }

 private:
  array::Ula ula_;
  array::Codebook codebook_;
  DelayMultibeamConfig config_;
  std::vector<double> angles_;
  std::vector<double> delays_;
  CVec weights_;
  bool started_ = false;
};

}  // namespace mmr::core
