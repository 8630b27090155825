// LinkWorld: one gNB-UE link inside an environment, advanced over time.
//
// This is the software stand-in for the paper's testbed: it owns the
// traced multipath state, moves the UE along its trajectory, runs blockers
// through the scene, and exposes exactly two faces:
//   * the IMPAIRED face (LinkProbeInterface) that controllers see -- CSI
//     and CIR estimates with AWGN, CFO, SFO, and timing jitter; and
//   * the TRUE face the experiment harness uses to score links (exact SNR
//     for any weights, exact per-antenna channel for the oracle).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "array/geometry.h"
#include "channel/blockage.h"
#include "channel/environment.h"
#include "channel/irs.h"
#include "channel/mobility.h"
#include "channel/wideband.h"
#include "common/rng.h"
#include "core/link_interface.h"
#include "phy/estimator.h"
#include "phy/link_budget.h"

namespace mmr::sim {

class TrialWorkspace;

struct WorldConfig {
  channel::WidebandSpec spec;
  phy::LinkBudget budget = phy::LinkBudget::paper_indoor();
  array::Ula tx_ula{8, 0.5};
  channel::RxFrontend rx = channel::RxFrontend::omni();
  /// Pilot averaging gain of the channel estimator.
  double pilot_averaging_gain = 20.0;
  /// Std of the receiver timing error applied to CIR reports [s].
  double timing_jitter_std_s = 0.15e-9;
  /// SFO-induced phase slope std [rad/subcarrier].
  double sfo_slope_std_rad = 0.005;
};

class LinkWorld {
 public:
  LinkWorld(channel::Environment env, channel::Pose tx_pose,
            std::shared_ptr<const channel::Trajectory> ue_trajectory,
            WorldConfig config, Rng rng);

  void add_blocker(channel::GeometricBlocker blocker);
  /// Deploy an intelligent reflecting surface (Section 8 future work):
  /// adds an engineered TX->panel->RX path on every trace.
  void add_irs(channel::IrsPanel panel);

  /// Bind per-trial scratch for the hot path (probes, true_power /
  /// true_snr_db, the oracle channel). The frequency grid, the CSI / pulse
  /// scratch and the per-tick path-response table
  /// (channel::PathResponse) keep their capacity in the workspace, so the
  /// steady-state scoring loop allocates nothing, and every probe, score
  /// and oracle channel of one tick reads one table instead of re-forming
  /// the paths' phasors. The table is valid only for the tick id the last
  /// set_time took from a process-wide counter; any other world sharing
  /// the workspace, or a later tick, refills it. An unbound world takes a
  /// fresh call-local workspace per evaluation. Results are bit-identical
  /// with or without a workspace. Pass nullptr to unbind. The workspace
  /// must outlive this world (or the unbind).
  void bind_workspace(TrialWorkspace* ws) { ws_ = ws; }

  /// Advance the world: re-trace paths for the UE pose at t and apply the
  /// blockers.
  void set_time(double t_s);

  double time() const { return t_s_; }
  const std::vector<channel::Path>& paths() const { return paths_; }
  const WorldConfig& config() const { return config_; }

  /// Impaired probe interface for controllers. The returned lambdas
  /// reference this world; keep it alive while they are used.
  core::LinkProbeInterface probe_interface();

  /// True mean channel power gain for given TX weights (linear). On the
  /// tick of a CSI probe with bitwise these weights it is that probe's
  /// recorded noiseless power (see ProbeRecord), else it is computed from
  /// the tick's path-response table: the same bits either way.
  double true_power(const CVec& tx_weights) const;
  /// True SNR [dB] through the link budget: snr_db_for_power(true_power).
  double true_snr_db(const CVec& tx_weights) const;
  /// SNR [dB] of a true channel power gain through the link budget;
  /// -300 for a link with no signal (power <= 0).
  double snr_db_for_power(double power) const;
  /// True per-antenna channel (oracle access).
  CVec true_per_antenna_channel() const;
  /// Channel power gain corresponding to a target SNR (outage thresholds).
  double power_for_snr(double snr_db) const;

 private:
  /// Scratch for one evaluation: the bound workspace, or else a fresh
  /// one emplaced in `local`.
  TrialWorkspace& scratch(std::optional<TrialWorkspace>& local) const;
  /// This tick's path-response table in `ws`, with delay phasors when
  /// `delays`, refilled only if another tick or world filled it last.
  const channel::PathResponse& response(TrialWorkspace& ws,
                                        bool delays) const;
  /// The noiseless CIR of one probe into cir (paths non-empty): every
  /// arrival shifted by this probe's timing jitter.
  void synthesize_cir(const CVec& tx_weights, CVec& cir);
  /// CSI probe of a link with no traced path: estimation noise only.
  CVec noise_csi();
  /// CIR probe impairments, in place: one CFO rotation, then AWGN per
  /// tap. Both noise draws run through the active dsp backend's
  /// log/sincos (Rng::complex_normals).
  void impair_cir(CVec& cir);

  /// The mean |CSI|^2 (channel::mean_power) of the noiseless CSI that this
  /// world's last CSI probe synthesized, taken before the estimator adds
  /// noise. A controller's probes and its score share a tick and usually
  /// its weights, while a network's sessions overwrite one shared table
  /// between them; true_power returns the record instead of refilling
  /// that table when the tick matches and the weights match bitwise (a
  /// -0.0 lane or another NaN payload is a miss).
  struct ProbeRecord {
    std::uint64_t tick = 0;  ///< tick_ of the probe; 0 is never issued
    CVec weights;            ///< reserved at construction: no allocation
    double power = 0.0;
  };

  channel::Environment env_;
  channel::Pose tx_pose_;
  /// env_.tx_images(tx_pose_): neither the walls nor the gNB move, so
  /// every set_time traces from these.
  std::vector<channel::Vec2> tx_images_;
  std::shared_ptr<const channel::Trajectory> ue_trajectory_;
  WorldConfig config_;
  Rng rng_;
  phy::ChannelEstimator estimator_;
  std::vector<channel::GeometricBlocker> blockers_;
  std::vector<channel::IrsPanel> irs_panels_;
  std::vector<channel::Path> paths_;
  TrialWorkspace* ws_ = nullptr;  ///< not owned; see bind_workspace
  double t_s_ = 0.0;
  std::uint64_t tick_ = 0;  ///< id of the current set_time; keys the table
  ProbeRecord probe_;
};

}  // namespace mmr::sim
