// mmReliable's end-to-end beam management controller (paper Fig. 9).
//
// Lifecycle per link:
//   1. initial beam training (SSB sweep) -> top-K path angles
//   2. constructive multi-beam establishment (two probes per extra beam)
//   3. continuous maintenance:
//        - superres monitoring of per-beam power on every CSI-RS
//        - fast drop  -> blockage: zero that beam's coefficient (power
//          reallocation) and watch for recovery
//        - slow drift -> mobility: invert the beam pattern for the offset,
//          disambiguate +/- with one probe, realign
//        - periodic constructive-combining refresh (2(K-1) probes)
//        - sustained total outage -> full retraining (link unavailable for
//          the SSB-burst airtime)
//        - failed probes (empty / fully non-finite reports) -> keep the
//          last-good weights, back off monitoring after repeated failures,
//          retrain once the probe outage budget is spent -- every
//          degradation reported through the FaultListener
//
// The controller only observes the world through LinkProbeInterface; all
// measurements carry estimator noise and CFO/SFO impairments.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "array/codebook.h"
#include "array/geometry.h"
#include "array/weights.h"
#include "core/beam_training.h"
#include "core/controller_base.h"
#include "core/link_interface.h"
#include "core/multibeam.h"
#include "core/probing.h"
#include "core/superres.h"
#include "core/tracking.h"
#include "phy/reference_signals.h"

namespace mmr::core {

struct MaintenanceConfig {
  /// Beams in the multi-beam (paper: 3 beams reach 92% of oracle).
  std::size_t max_beams = 2;
  /// Link bandwidth; sets the CIR tap period (1/B).
  double bandwidth_hz = 400.0e6;
  /// Taps in the monitoring CIR.
  std::size_t cir_taps = 24;
  /// Period of refinement passes (realignment + CC refresh).
  double refine_period_s = 20.0e-3;
  /// Mean |H|^2 (channel power gain) below which the link is in outage;
  /// derive from LinkBudget::gain_for_snr(6 dB).
  double outage_power_linear = 1e-12;
  /// Sustained outage longer than this triggers full retraining [s].
  double retrain_timeout_s = 25.0e-3;
  /// Recovery margin when re-probing blocked beams [dB].
  double recover_margin_db = 5.0;
  /// Ablations (Fig. 17c): disable mobility realignment and/or the
  /// periodic constructive-combining refresh. Blockage reallocation and
  /// monitoring stay on either way.
  bool enable_tracking = true;
  bool enable_cc_refresh = true;
  /// Degraded-mode handling of failed monitor probes (empty or fully
  /// non-finite CIR reports): after probe_retry_limit consecutive
  /// failures, monitoring backs off exponentially from
  /// probe_backoff_initial_s up to probe_backoff_max_s (the controller
  /// keeps transmitting on its last-good weights throughout), and a probe
  /// outage lasting probe_outage_budget_s triggers full retraining.
  std::size_t probe_retry_limit = 3;
  double probe_backoff_initial_s = 5.0e-3;
  double probe_backoff_max_s = 20.0e-3;
  double probe_outage_budget_s = 50.0e-3;
  /// Hardware weight resolution applied to every transmitted pattern
  /// (paper Section 5.1: 6-bit phase, 0.5 dB gain steps).
  array::QuantizationSpec quantization = array::QuantizationSpec::paper_testbed();
  phy::ReferenceSignalConfig rs;
  SuperresConfig superres;
  TrackerConfig tracker;
  TrainingConfig training;
};

class MmReliableController final : public BeamController {
 public:
  MmReliableController(const array::Ula& ula, array::Codebook codebook,
                       MaintenanceConfig config);

  /// Run initial beam training + multi-beam establishment at time t.
  /// The link is unavailable for the training airtime.
  void start(double t_s, const LinkProbeInterface& link) override;

  /// One maintenance tick; call at the CSI-RS cadence.
  void step(double t_s, const LinkProbeInterface& link) override;

  /// Current transmit weights (unit norm).
  const CVec& tx_weights() const override { return multibeam_.weights; }

  /// False while (re)training occupies the link.
  bool link_available(double t_s) const override {
    return t_s >= unavailable_until_;
  }

  const char* name() const override { return "mmReliable"; }

  /// Faithful mapping of the maintenance lifecycle onto the link state
  /// machine: (re)training in flight = Acquisition, a declared outage or
  /// a failed-probe streak = Unstable, otherwise Up. Pure observation --
  /// the controller's behavior is unchanged.
  LinkState link_state(double t_s) const override {
    if (!started_) return LinkState::kDown;
    if (t_s < unavailable_until_ || pending_training_) {
      return LinkState::kAcquisition;
    }
    if (outage_since_ >= 0.0 || probe_outage_since_ >= 0.0 ||
        probe_failures_ > 0) {
      return LinkState::kUnstable;
    }
    return LinkState::kUp;
  }

  /// Degraded-mode event reporting (kProbeFailure, kFallbackLastGood,
  /// kBackoff, kEstimateRejected, kSanitizedReport, kRetrainTriggered).
  void set_fault_listener(FaultListener listener) override {
    listener_ = std::move(listener);
  }

  std::size_t num_active_beams() const;
  const std::vector<double>& beam_angles() const { return angles_; }
  const std::vector<bool>& blocked() const { return blocked_; }
  /// Last superres per-beam powers (linear |alpha|^2).
  const RVec& last_beam_powers() const { return last_powers_; }
  /// Last measured total channel power (mean |H|^2).
  double last_total_power() const { return last_total_power_; }

  // Overhead accounting.
  int monitor_probes() const { return monitor_probes_; }
  int refinement_probes() const { return refinement_probes_; }
  int trainings() const { return trainings_; }
  /// Consecutive failed monitor probes in the current streak.
  std::size_t consecutive_probe_failures() const { return probe_failures_; }
  /// Total airtime spent on beam management so far [s].
  double management_airtime_s() const;

 private:
  void do_training(double t_s, const LinkProbeInterface& link);
  void establish_multibeam(double t_s, const LinkProbeInterface& link,
                           const TrainingResult& training);
  void monitor(double t_s, const LinkProbeInterface& link);
  void refine(double t_s, const LinkProbeInterface& link);
  void resynthesize();
  /// Super-resolution fit of a sanitized monitoring CIR in the
  /// controller's workspace; stores the per-beam powers in last_powers_.
  const SuperresResult& fit_beams(const CVec& cir);
  void emit(double t_s, FaultEventKind kind, std::size_t beam = kNoBeam,
            double value = 0.0);
  /// Zero non-finite taps in place (reporting kSanitizedReport); false if
  /// the report is unusable (empty or no finite taps).
  bool sanitize_report(double t_s, CVec& report);
  /// Bookkeeping for one failed monitor probe: last-good fallback,
  /// bounded retry/backoff, outage-budget retraining.
  void on_probe_failure(double t_s);
  /// Active (unblocked) beam indices.
  std::vector<std::size_t> active_indices() const;
  double bandwidth() const { return config_.bandwidth_hz; }
  double sample_period() const { return 1.0 / config_.bandwidth_hz; }

  array::Ula ula_;
  array::Codebook codebook_;
  MaintenanceConfig config_;

  // Per-TRAINED-beam state. The superres dictionary tracks EVERY trained
  // direction (otherwise unmodeled paths contaminate the fitted per-beam
  // powers); only the first max_beams ("in_multibeam_") carry data.
  std::vector<double> angles_;
  std::vector<cplx> ratios_;        ///< h_k/h_0 estimates, [0] == 1
  std::vector<bool> in_multibeam_;
  std::vector<bool> blocked_;
  std::vector<double> single_power_db_;  ///< single-beam reference powers
  RVec nominal_delays_;
  std::vector<PerBeamTracker> trackers_;
  std::vector<double> misalign_;
  MultiBeam multibeam_;

  double unavailable_until_ = 0.0;
  bool pending_training_ = false;
  double outage_since_ = -1.0;
  double last_refine_ = 0.0;
  /// The monitoring fit's scratch and result, reused by every tick.
  SuperresWorkspace superres_workspace_;
  RVec last_powers_;
  double last_total_power_ = 0.0;
  bool started_ = false;

  // Degraded-mode state: consecutive failed monitor probes, the backoff
  // horizon while monitoring is suspended, and when the probe outage
  // began (-1 = not in one).
  FaultListener listener_;
  std::size_t probe_failures_ = 0;
  double monitor_backoff_until_ = 0.0;
  double probe_outage_since_ = -1.0;

  int monitor_probes_ = 0;
  int refinement_probes_ = 0;
  int trainings_ = 0;
};

}  // namespace mmr::core
