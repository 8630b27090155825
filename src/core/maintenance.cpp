#include "core/maintenance.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "common/units.h"

namespace mmr::core {
namespace {

double cir_power(const CVec& cir) {
  // Parseval: tap energy equals mean subcarrier power for a Nyquist CIR
  // long enough to hold the full response.
  double acc = 0.0;
  for (const cplx& h : cir) acc += std::norm(h);
  return acc;
}

}  // namespace

MmReliableController::MmReliableController(const array::Ula& ula,
                                           array::Codebook codebook,
                                           MaintenanceConfig config)
    : ula_(ula), codebook_(std::move(codebook)), config_(config) {
  MMR_EXPECTS(config_.max_beams >= 1);
  // Training keeps this many directions, and every one of them is a
  // column of the monitoring fit's dictionary.
  MMR_EXPECTS(std::max<std::size_t>(config_.max_beams + 1, 3) <= kMaxBeams);
  MMR_EXPECTS(config_.cir_taps >= 4);
  MMR_EXPECTS(config_.probe_retry_limit >= 1);
  MMR_EXPECTS(config_.probe_backoff_initial_s > 0.0);
  MMR_EXPECTS(config_.probe_backoff_max_s >= config_.probe_backoff_initial_s);
  MMR_EXPECTS(config_.probe_outage_budget_s > 0.0);
}

void MmReliableController::start(double t_s, const LinkProbeInterface& link) {
  do_training(t_s, link);
  started_ = true;
}

void MmReliableController::emit(double t_s, FaultEventKind kind,
                                std::size_t beam, double value) {
  if (!listener_) return;
  FaultEvent ev;
  ev.t_s = t_s;
  ev.kind = kind;
  ev.beam = beam;
  ev.value = value;
  listener_(ev);
}

bool MmReliableController::sanitize_report(double t_s, CVec& report) {
  if (report.empty()) return false;
  std::size_t bad = 0;
  for (cplx& h : report) {
    if (std::isfinite(h.real()) && std::isfinite(h.imag())) continue;
    h = cplx{};
    ++bad;
  }
  if (bad == report.size()) return false;
  if (bad > 0) {
    emit(t_s, FaultEventKind::kSanitizedReport, kNoBeam,
         static_cast<double>(bad));
  }
  return true;
}

void MmReliableController::on_probe_failure(double t_s) {
  ++probe_failures_;
  emit(t_s, FaultEventKind::kProbeFailure, kNoBeam,
       static_cast<double>(probe_failures_));
  if (probe_failures_ == 1) {
    // First failure of a streak: the controller transmits on whatever
    // weights it last trusted and starts the probe outage clock.
    probe_outage_since_ = t_s;
    emit(t_s, FaultEventKind::kFallbackLastGood);
  }
  if (probe_outage_since_ >= 0.0 &&
      t_s - probe_outage_since_ >= config_.probe_outage_budget_s) {
    // The probe path has been dark longer than the budget: the stored
    // channel knowledge is stale beyond trusting -- retrain from scratch.
    pending_training_ = true;
    emit(t_s, FaultEventKind::kRetrainTriggered, kNoBeam,
         t_s - probe_outage_since_);
    probe_outage_since_ = -1.0;
    probe_failures_ = 0;
    monitor_backoff_until_ = 0.0;
    return;
  }
  if (probe_failures_ >= config_.probe_retry_limit) {
    // Bounded retry exhausted: exponential backoff (capped) before the
    // next monitoring attempt, so a dead feedback path is not hammered.
    double backoff = config_.probe_backoff_initial_s;
    for (std::size_t i = config_.probe_retry_limit; i < probe_failures_ &&
         backoff < config_.probe_backoff_max_s; ++i) {
      backoff *= 2.0;
    }
    backoff = std::min(backoff, config_.probe_backoff_max_s);
    monitor_backoff_until_ = t_s + backoff;
    emit(t_s, FaultEventKind::kBackoff, kNoBeam, backoff);
  }
}

std::vector<std::size_t> MmReliableController::active_indices() const {
  std::vector<std::size_t> idx;
  for (std::size_t k = 0; k < angles_.size(); ++k) {
    if (in_multibeam_[k] && !blocked_[k]) idx.push_back(k);
  }
  return idx;
}

void MmReliableController::do_training(double t_s,
                                       const LinkProbeInterface& link) {
  ++trainings_;
  TrainingConfig tc = config_.training;
  // Train a couple of spare directions beyond the communication beams:
  // every significant path must be in the superres dictionary or its
  // energy contaminates the per-beam power estimates.
  tc.top_k = std::max<std::size_t>(config_.max_beams + 1, 3);
  const TrainingResult training =
      exhaustive_training(codebook_, link.csi, tc);
  MMR_EXPECTS(!training.beams.empty());
  establish_multibeam(t_s, link, training);
  // Link is consumed by the SSB burst.
  unavailable_until_ =
      t_s + phy::ssb_burst_airtime_s(config_.rs, codebook_.size());
  outage_since_ = -1.0;
  last_refine_ = t_s;
  // Fresh training resets the degraded-mode streak.
  probe_failures_ = 0;
  probe_outage_since_ = -1.0;
  monitor_backoff_until_ = 0.0;
}

void MmReliableController::establish_multibeam(double t_s,
                                               const LinkProbeInterface& link,
                                               const TrainingResult& training) {
  const std::size_t num_trained = training.beams.size();
  const std::size_t num_active = std::min(config_.max_beams, num_trained);
  angles_.clear();
  single_power_db_.clear();
  for (const TrainedBeam& b : training.beams) {
    angles_.push_back(b.angle_rad);
    single_power_db_.push_back(to_db(b.mean_power));
  }
  blocked_.assign(num_trained, false);
  misalign_.assign(num_trained, 0.0);
  in_multibeam_.assign(num_trained, false);
  for (std::size_t b = 0; b < num_active; ++b) in_multibeam_[b] = true;

  // Constructive combining over the ACTIVE beams: two probes per extra
  // beam (Eqs. 11-12), reusing the training-phase single-beam powers.
  ratios_.assign(num_trained, cplx{});
  ratios_[0] = cplx{1.0, 0.0};
  if (num_active >= 2) {
    std::vector<double> act_angles(angles_.begin(),
                                   angles_.begin() + num_active);
    std::vector<RVec> trained_powers = training.powers();
    trained_powers.resize(num_active);
    ProbeBudget budget;
    const std::vector<RelativeChannel> rel = estimate_relative_channels(
        ula_, act_angles, link.csi, &trained_powers, &budget);
    refinement_probes_ += budget.refinement_probes;
    for (std::size_t b = 0; b < num_active; ++b) ratios_[b] = rel[b].ratio;
  }
  resynthesize();

  // Nominal per-beam delays from single-beam CIR peaks (part of the
  // training budget: reuses the per-direction reference signals). ALL
  // trained directions enter the superres dictionary.
  const std::size_t k = num_trained;
  nominal_delays_.assign(k, 0.0);
  for (std::size_t b = 0; b < k; ++b) {
    const MultiBeam single =
        synthesize_multibeam(ula_, {{angles_[b], cplx{1.0, 0.0}}});
    const CVec cir = link.cir(single.weights, config_.cir_taps);
    ++refinement_probes_;
    // A dropped delay probe leaves this beam at the reference delay; the
    // monitor's common-shift search absorbs the residual error.
    nominal_delays_[b] =
        cir.empty() ? 0.0 : estimate_peak_delay(cir, sample_period());
  }
  // Reference everything to the earliest beam.
  const double t0 =
      *std::min_element(nominal_delays_.begin(), nominal_delays_.end());
  for (double& d : nominal_delays_) d -= t0;

  // Prime the trackers with a fresh monitoring snapshot.
  trackers_.assign(k, PerBeamTracker(config_.tracker, ula_.num_elements,
                                     ula_.spacing_wavelengths));
  CVec cir = link.cir(multibeam_.weights, config_.cir_taps);
  ++monitor_probes_;
  if (sanitize_report(t_s, cir)) {
    fit_beams(cir);
    last_total_power_ = cir_power(cir);
  } else {
    // Priming probe failed: seed the trackers from the training-phase
    // single-beam powers instead of garbage.
    emit(t_s, FaultEventKind::kProbeFailure);
    last_powers_.assign(k, 0.0);
    for (std::size_t b = 0; b < k; ++b) {
      last_powers_[b] = from_db(single_power_db_[b]);
    }
    last_total_power_ = 0.0;
  }
  for (std::size_t b = 0; b < k; ++b) {
    trackers_[b].reset_reference(to_db(last_powers_[b]));
  }
}

void MmReliableController::resynthesize() {
  std::vector<BeamComponent> components;
  for (std::size_t k = 0; k < angles_.size(); ++k) {
    if (!in_multibeam_[k] || blocked_[k]) continue;
    BeamComponent c;
    c.angle_rad = angles_[k];
    c.coefficient = std::conj(ratios_[k]);
    components.push_back(c);
  }
  if (components.empty()) {
    // Everything blocked: keep radiating on the strongest trained beam so
    // recovery can be observed.
    components.push_back({angles_.front(), cplx{1.0, 0.0}});
  }
  multibeam_ = synthesize_multibeam(ula_, components);
  // The hardware applies finite-resolution phase shifters and attenuators.
  multibeam_.weights =
      array::quantize(multibeam_.weights, config_.quantization);
}

const SuperresResult& MmReliableController::fit_beams(const CVec& cir) {
  const SuperresResult& fit =
      superres_per_beam(cir, nominal_delays_, sample_period(), bandwidth(),
                        config_.superres, superres_workspace_);
  last_powers_.resize(fit.alphas.size());
  for (std::size_t k = 0; k < fit.alphas.size(); ++k) {
    last_powers_[k] = std::norm(fit.alphas[k]);
  }
  return fit;
}

void MmReliableController::step(double t_s, const LinkProbeInterface& link) {
  MMR_EXPECTS(started_);
  if (pending_training_) {
    pending_training_ = false;
    do_training(t_s, link);
    return;
  }
  monitor(t_s, link);
  if (t_s - last_refine_ >= config_.refine_period_s) {
    refine(t_s, link);
    last_refine_ = t_s;
  }
}

void MmReliableController::monitor(double t_s,
                                   const LinkProbeInterface& link) {
  if (t_s < monitor_backoff_until_) return;
  CVec cir = link.cir(multibeam_.weights, config_.cir_taps);
  ++monitor_probes_;
  if (!sanitize_report(t_s, cir)) {
    // Unusable report: keep the last-good beam weights and beam state
    // untouched; retry with bounded backoff, retrain once the probe
    // outage budget is spent.
    on_probe_failure(t_s);
    return;
  }
  if (probe_failures_ > 0) {
    probe_failures_ = 0;
    probe_outage_since_ = -1.0;
    monitor_backoff_until_ = 0.0;
  }
  last_total_power_ = cir_power(cir);

  const SuperresResult& fit = fit_beams(cir);
  // Relative ToF drifts slowly with motion; adopt only the RELATIVE part
  // of the refined delays (the common shift is this probe's timing
  // jitter), and slowly, so one noisy fit cannot corrupt the prior.
  if (!fit.delays_s.empty()) {
    constexpr double kDelayEwma = 0.9;
    const double fit_base = fit.delays_s.front();
    const double nom_base = nominal_delays_.front();
    for (std::size_t k = 1; k < nominal_delays_.size(); ++k) {
      const double fit_rel = fit.delays_s[k] - fit_base;
      const double nom_rel = nominal_delays_[k] - nom_base;
      nominal_delays_[k] =
          nom_base + kDelayEwma * nom_rel + (1.0 - kDelayEwma) * fit_rel;
    }
  }

  bool topology_changed = false;
  for (std::size_t k = 0; k < angles_.size(); ++k) {
    if (!in_multibeam_[k]) continue;
    if (blocked_[k]) continue;  // recovery is handled by refine() probes
    const double pdb = to_db(std::max(last_powers_[k], 1e-30));
    const PerBeamTracker::Update up = trackers_[k].update(t_s, pdb);
    if (up.state == BeamState::kBlocked) {
      // The superres power split between closely-delayed beams is
      // ill-conditioned, so a detected drop can be an estimation artifact.
      // Verify with ONE single-beam probe before sacrificing the beam:
      // zeroing a healthy beam's coefficient takes the link down harder
      // than any blockage would.
      const MultiBeam single =
          synthesize_multibeam(ula_, {{angles_[k], cplx{1.0, 0.0}}});
      // A failed verify probe reads as zero power (-inf dB) and confirms
      // the blockage -- the conservative call when nothing comes back.
      double verify_power = 0.0;
      mean_probe_power(link.csi(single.weights), verify_power);
      const double verify_db = to_db(verify_power);
      ++refinement_probes_;
      if (verify_db >= single_power_db_[k] - config_.recover_margin_db) {
        // False alarm: beam is healthy on its own.
        trackers_[k].reset_reference(pdb);
      } else {
        blocked_[k] = true;
        misalign_[k] = 0.0;
        topology_changed = true;
      }
    } else {
      misalign_[k] = up.misalign_rad;
    }
  }
  if (topology_changed) resynthesize();  // reallocate power off blocked beams

  // Sustained total outage -> schedule full retraining.
  if (last_total_power_ < config_.outage_power_linear) {
    if (outage_since_ < 0.0) {
      outage_since_ = t_s;
    } else if (t_s - outage_since_ >= config_.retrain_timeout_s) {
      pending_training_ = true;
      outage_since_ = -1.0;
    }
  } else {
    outage_since_ = -1.0;
  }
}

void MmReliableController::refine(double t_s, const LinkProbeInterface& link) {
  // 1. Blocked-beam recovery: one cheap single-beam probe each.
  bool recovered_any = false;
  for (std::size_t k = 0; k < angles_.size(); ++k) {
    if (!in_multibeam_[k] || !blocked_[k]) continue;
    const MultiBeam single =
        synthesize_multibeam(ula_, {{angles_[k], cplx{1.0, 0.0}}});
    double p = 0.0;
    const bool usable = mean_probe_power(link.csi(single.weights), p);
    ++refinement_probes_;
    if (!usable) continue;  // no evidence of recovery from a dead probe
    const double p_db = to_db(p);
    if (p_db >= single_power_db_[k] - config_.recover_margin_db) {
      blocked_[k] = false;
      single_power_db_[k] = p_db;
      recovered_any = true;
    }
  }

  // 1b. When every communication beam is down, try promoting a spare
  // trained direction (they are already in the superres dictionary)
  // before resorting to a full, link-killing retrain.
  if (active_indices().empty()) {
    for (std::size_t k = 0; k < angles_.size(); ++k) {
      if (in_multibeam_[k]) continue;
      const MultiBeam single =
          synthesize_multibeam(ula_, {{angles_[k], cplx{1.0, 0.0}}});
      double p = 0.0;
      const bool usable = mean_probe_power(link.csi(single.weights), p);
      ++refinement_probes_;
      if (!usable) continue;
      const double p_db = to_db(p);
      if (p_db >= single_power_db_[k] - config_.recover_margin_db) {
        in_multibeam_[k] = true;
        blocked_[k] = false;
        ratios_[k] = cplx{1.0, 0.0};
        single_power_db_[k] = p_db;
        trackers_[k].reset_reference(p_db);
        recovered_any = true;
        break;
      }
    }
  }

  // 2. Mobility realignment with one disambiguation probe per moved beam:
  // try +offset; if total power does not improve, the offset was -.
  bool moved_any = false;
  auto separation_ok = [&](std::size_t k, double candidate) {
    for (std::size_t j = 0; j < angles_.size(); ++j) {
      if (j == k || !in_multibeam_[j]) continue;
      if (std::abs(candidate - angles_[j]) <
          config_.training.min_separation_rad) {
        return false;
      }
    }
    return true;
  };
  for (std::size_t k = 0; k < angles_.size(); ++k) {
    if (!config_.enable_tracking) break;
    if (!in_multibeam_[k] || blocked_[k] || misalign_[k] <= 0.0) continue;
    const double offset = misalign_[k];
    const double saved_angle = angles_[k];
    // Beams must stay angularly distinct: two beams on one path is a
    // wasted diversity branch and makes the superres columns collide.
    if (!separation_ok(k, saved_angle + offset) ||
        !separation_ok(k, saved_angle - offset)) {
      misalign_[k] = 0.0;
      continue;
    }
    // Resolve the pattern's sign ambiguity by probing the three
    // candidates (stay, +offset, -offset) and keeping the best. The paper
    // spends one probe by comparing against the pre-move measurement; a
    // fresh baseline costs one more CSI-RS but cannot be fooled by the
    // monitoring estimate's noise into walking the beam off its path.
    const std::array<double, 3> candidates{saved_angle, saved_angle + offset,
                                           saved_angle - offset};
    double best_power = -1.0;
    double best_angle = saved_angle;
    for (double cand : candidates) {
      angles_[k] = cand;
      resynthesize();
      // A failed candidate probe scores zero: never preferred over a
      // candidate that actually measured something.
      double p = 0.0;
      mean_probe_power(link.csi(multibeam_.weights), p);
      ++refinement_probes_;
      if (p > best_power) {
        best_power = p;
        best_angle = cand;
      }
    }
    angles_[k] = best_angle;
    misalign_[k] = 0.0;
    moved_any = true;
  }
  if (moved_any) resynthesize();

  // 3. Constructive-combining refresh (2(K-1) probes) whenever the beam
  // set or pointing changed, and periodically regardless (phase drifts).
  const std::vector<std::size_t> active = active_indices();
  if (config_.enable_cc_refresh && active.size() >= 2) {
    std::vector<double> act_angles;
    for (std::size_t k : active) act_angles.push_back(angles_[k]);
    ProbeBudget budget;
    std::vector<RVec> single_powers;
    const std::vector<RelativeChannel> rel = estimate_relative_channels(
        ula_, act_angles, link.csi, nullptr, &budget, &single_powers);
    // Count only the 2(K-1) two-beam probes against the refinement budget;
    // the single-beam powers ride the CSI-RS the monitor already sends
    // (the paper reuses training-phase powers the same way).
    refinement_probes_ += budget.refinement_probes;
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (!rel[i].valid) {
        // Unusable two-probe estimate (dropped/corrupted probes): keep
        // the previous ratio -- a stale phase beats a fabricated one.
        emit(t_s, FaultEventKind::kEstimateRejected, active[i]);
      } else {
        // Blend with the previous estimate unless the beam set just
        // changed: each two-probe estimate carries noise, and the
        // channel's relative phase drifts slowly compared to the
        // refinement cadence.
        const cplx fresh = rel[i].ratio;
        const cplx old = ratios_[active[i]];
        const bool reuse_old = !recovered_any && !moved_any &&
                               std::abs(old) > 1e-9 && i != 0;
        ratios_[active[i]] = reuse_old ? 0.5 * old + 0.5 * fresh : fresh;
      }
      // Refresh the stored single-beam reference powers for recovery
      // detection; only finite measurements vote, and a fully failed
      // probe keeps the previous reference.
      double mp = 0.0;
      std::size_t finite = 0;
      for (double p : single_powers[i]) {
        if (!std::isfinite(p)) continue;
        mp += p;
        ++finite;
      }
      if (finite > 0) {
        mp /= static_cast<double>(finite);
        single_power_db_[active[i]] = to_db(std::max(mp, 1e-30));
      }
    }
  }
  resynthesize();

  // 4. Refresh monitoring references after any change. A failed refresh
  // probe keeps the previous references (last-good state).
  if (recovered_any || moved_any || active.size() >= 2) {
    CVec cir = link.cir(multibeam_.weights, config_.cir_taps);
    ++monitor_probes_;
    if (sanitize_report(t_s, cir)) {
      fit_beams(cir);
      last_total_power_ = cir_power(cir);
      for (std::size_t k = 0; k < angles_.size(); ++k) {
        if (!blocked_[k] && k < last_powers_.size()) {
          trackers_[k].reset_reference(
              to_db(std::max(last_powers_[k], 1e-30)));
        }
      }
    } else {
      emit(t_s, FaultEventKind::kProbeFailure);
    }
  }
}

std::size_t MmReliableController::num_active_beams() const {
  return active_indices().size();
}

double MmReliableController::management_airtime_s() const {
  const double train = static_cast<double>(trainings_) *
                       phy::ssb_burst_airtime_s(config_.rs, codebook_.size());
  const double probes =
      static_cast<double>(refinement_probes_) *
      phy::csi_rs_duration_s(config_.rs, /*slot_granular=*/true);
  return train + probes;
}

}  // namespace mmr::core
