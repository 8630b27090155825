// Terragraph-style single-beam link controller (SNIPPETS.md snippet 1):
// the link state machine IS the controller. Acquisition runs an
// exhaustive SSB sweep and remembers the ranked path candidates; Up
// monitors the serving beam on every CSI-RS; an error burst (monitored
// power under the outage threshold) moves to Unstable, where recovery
// escalates through the Terragraph ladder:
//
//   1. beam refinement  -- probe the codebook neighbors of the serving
//      beam (+/-1..refine_radius) and move to the best, for up to
//      refine_attempts rounds;
//   2. beam switching   -- jump to the next-strongest direction from the
//      last training sweep;
//   3. recovery timeout -- LinkDown, full reacquisition (the link pays
//      the SSB-burst airtime again).
//
// Baseline positioning: one serving beam at a time, so a blocked LOS
// costs the full switch-and-retrain dance that mmReliable's standing
// multi-beam avoids -- the comparison bench_network draws.
#pragma once

#include <cstddef>
#include <vector>

#include "array/codebook.h"
#include "array/geometry.h"
#include "core/beam_training.h"
#include "core/controller_base.h"
#include "core/link_state.h"
#include "phy/reference_signals.h"

namespace mmr::net {

struct TerragraphConfig {
  /// Mean |H|^2 below which the monitor declares an error burst; derive
  /// from LinkBudget::gain_for_snr(outage SNR).
  double outage_power_linear = 1e-12;
  /// A recovery action must clear outage by this margin to declare the
  /// link recovered (re-entry hysteresis) [dB].
  double recover_margin_db = 3.0;
  /// Refinement rounds before escalating to beam switching.
  std::size_t refine_attempts = 2;
  /// Codebook neighbors probed on each side during refinement.
  std::size_t refine_radius = 2;
  /// Ranked candidate directions remembered from each training sweep
  /// (switch targets).
  core::TrainingConfig training{.top_k = 4};
  /// Dwell/deadline knobs of the embedded state machine.
  core::LinkStateConfig link_state;
  phy::ReferenceSignalConfig rs;

  void validate() const;
};

class TerragraphController final : public core::BeamController {
 public:
  TerragraphController(const array::Ula& ula, array::Codebook codebook,
                       TerragraphConfig config);

  void start(double t_s, const core::LinkProbeInterface& link) override;
  void step(double t_s, const core::LinkProbeInterface& link) override;

  const CVec& tx_weights() const override { return weights_; }
  bool link_available(double t_s) const override {
    return t_s >= unavailable_until_;
  }
  const char* name() const override { return "terragraph"; }
  core::LinkState link_state(double t_s) const override;

  // Recovery-ladder observability for the test tier.
  int trainings() const { return trainings_; }
  int refinements() const { return refinements_; }
  int beam_switches() const { return switches_; }
  const core::LinkStateMachine& machine() const { return sm_; }
  /// Airtime the link has spent unavailable to data so far [s].
  double training_airtime_s() const;

 private:
  void reacquire(double t_s, const core::LinkProbeInterface& link);
  void serve_index(std::size_t index);
  /// Monitored mean |H|^2 on `weights`; false when the probe is unusable.
  bool probe_power(const core::LinkProbeInterface& link, const CVec& weights,
                   double& power) const;
  bool refine(double t_s, const core::LinkProbeInterface& link);
  bool switch_beam(double t_s, const core::LinkProbeInterface& link);
  std::size_t nearest_codebook_index(double angle_rad) const;
  double recover_threshold() const;

  array::Ula ula_;
  array::Codebook codebook_;
  TerragraphConfig config_;
  core::LinkStateMachine sm_;

  CVec weights_;
  std::size_t serving_index_ = 0;
  /// Ranked switch candidates from the last sweep (codebook indices,
  /// strongest first; [0] is the serving beam's home).
  std::vector<std::size_t> candidates_;
  std::size_t next_candidate_ = 1;
  std::size_t refines_this_burst_ = 0;

  double unavailable_until_ = 0.0;
  bool started_ = false;

  int trainings_ = 0;
  int refinements_ = 0;
  int switches_ = 0;
};

}  // namespace mmr::net
