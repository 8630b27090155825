#include "core/ue_session.h"

#include <algorithm>
#include <numeric>
#include <cmath>

#include "array/codebook.h"
#include "array/pattern_cache.h"
#include "array/weights.h"
#include "common/error.h"
#include "common/units.h"
#include "core/beam_training.h"

namespace mmr::core {
namespace {

double mean_power(const CVec& csi) {
  double acc = 0.0;
  for (const cplx& h : csi) acc += std::norm(h);
  return acc / static_cast<double>(csi.size());
}

// Quasi-omni UE weights: single active element (widest pattern the array
// can make), TRP normalized.
CVec ue_wide_weights(const array::Ula& ue_ula) {
  CVec w(ue_ula.num_elements, cplx{});
  w[0] = cplx{1.0, 0.0};
  return w;
}

}  // namespace

DirectionalUeSession::DirectionalUeSession(UeSessionConfig config)
    : config_(config) {
  MMR_EXPECTS(config_.max_beams >= 1);
  // Every trained beam is a column of the per-beam power fit.
  MMR_EXPECTS(config_.max_beams <= kMaxBeams);
}

void DirectionalUeSession::resynthesize() {
  std::vector<BeamComponent> tx_comps, rx_comps;
  for (std::size_t k = 0; k < gnb_angles_.size(); ++k) {
    tx_comps.push_back({gnb_angles_[k], cplx{1.0, 0.0}});
    rx_comps.push_back({ue_angles_[k], cplx{1.0, 0.0}});
  }
  tx_beam_ = synthesize_multibeam(config_.gnb_ula, tx_comps);
  rx_beam_ = synthesize_multibeam(config_.ue_ula, rx_comps);
}

double DirectionalUeSession::measure_power(const JointProbeFns& link) {
  ++probes_;
  return mean_power(link.csi(tx_beam_.weights, rx_beam_.weights));
}

RVec DirectionalUeSession::per_beam_powers(const JointProbeFns& link) {
  ++probes_;
  const CVec cir =
      link.cir(tx_beam_.weights, rx_beam_.weights, config_.cir_taps);
  const SuperresResult fit =
      superres_per_beam(cir, nominal_delays_, 1.0 / config_.bandwidth_hz,
                        config_.bandwidth_hz);
  return fit.powers();
}

void DirectionalUeSession::train(const JointProbeFns& link) {
  // 1. gNB sweep under the wide UE beam.
  const array::Codebook gnb_cb(config_.gnb_ula, config_.sector_lo_rad,
                               config_.sector_hi_rad,
                               config_.gnb_codebook_size);
  const CVec ue_wide = ue_wide_weights(config_.ue_ula);
  TrainingConfig tc;
  tc.top_k = config_.max_beams;
  const TrainingResult gnb_training = exhaustive_training(
      gnb_cb, [&](const CVec& w) { ++probes_; return link.csi(w, ue_wide); },
      tc);
  MMR_EXPECTS(!gnb_training.beams.empty());
  gnb_angles_ = gnb_training.angles();

  // 2. Per gNB beam, sweep the UE codebook: best arrival direction AND
  //    implicit beam association.
  const array::Codebook ue_cb(config_.ue_ula, config_.sector_lo_rad,
                              config_.sector_hi_rad, config_.ue_codebook_size);
  ue_angles_.clear();
  array::PatternCache& cache = array::PatternCache::instance();
  for (double gnb_angle : gnb_angles_) {
    const auto tx_w = cache.beam_weights(config_.gnb_ula, gnb_angle);
    const CVec& tx = *tx_w;
    double best_p = -1.0;
    double best_angle = 0.0;
    for (std::size_t i = 0; i < ue_cb.size(); ++i) {
      ++probes_;
      const double p = mean_power(link.csi(tx, ue_cb.weights(i)));
      if (p > best_p) {
        best_p = p;
        best_angle = ue_cb.angle(i);
      }
    }
    ue_angles_.push_back(best_angle);
  }
  resynthesize();

  // 3. Per-beam nominal delays for the superres dictionary.
  nominal_delays_.clear();
  for (std::size_t k = 0; k < gnb_angles_.size(); ++k) {
    const auto tx_w = cache.beam_weights(config_.gnb_ula, gnb_angles_[k]);
    const auto rx_w = cache.beam_weights(config_.ue_ula, ue_angles_[k]);
    ++probes_;
    const CVec cir = link.cir(*tx_w, *rx_w, config_.cir_taps);
    nominal_delays_.push_back(
        estimate_peak_delay(cir, 1.0 / config_.bandwidth_hz));
  }
  const double t0 =
      *std::min_element(nominal_delays_.begin(), nominal_delays_.end());
  for (double& d : nominal_delays_) d -= t0;

  // 4. Reference per-beam powers.
  const RVec p = per_beam_powers(link);
  reference_power_db_.clear();
  for (double v : p) reference_power_db_.push_back(to_db(std::max(v, 1e-30)));
  trained_ = true;
}

void DirectionalUeSession::step(double /*t_s*/, const JointProbeFns& link) {
  MMR_EXPECTS(trained_);
  const RVec p = per_beam_powers(link);
  RVec drops(p.size());
  double min_drop = 1e9, max_drop = -1e9;
  for (std::size_t k = 0; k < p.size(); ++k) {
    drops[k] = reference_power_db_[k] - to_db(std::max(p[k], 1e-30));
    min_drop = std::min(min_drop, drops[k]);
    max_drop = std::max(max_drop, drops[k]);
  }
  if (max_drop < config_.min_drop_db) {
    last_motion_ = MotionKind::kNone;
    return;
  }

  const double p_base = measure_power(link);
  const std::vector<double> saved_gnb = gnb_angles_;
  const std::vector<double> saved_ue = ue_angles_;

  const bool rigid_rotation =
      (max_drop - min_drop) <= config_.rotation_spread_db &&
      min_drop >= config_.min_drop_db / 2.0;
  last_motion_ =
      rigid_rotation ? MotionKind::kRotation : MotionKind::kTranslation;

  double best_power = p_base;
  std::vector<double> best_gnb = saved_gnb;
  std::vector<double> best_ue = saved_ue;

  auto try_candidate = [&](const std::vector<double>& gnb,
                           const std::vector<double>& ue) {
    gnb_angles_ = gnb;
    ue_angles_ = ue;
    resynthesize();
    const double pw = measure_power(link);
    if (pw > best_power) {
      best_power = pw;
      best_gnb = gnb;
      best_ue = ue;
    }
  };

  if (rigid_rotation) {
    // One common UE rotation angle from the mean drop.
    const double mean_drop =
        std::accumulate(drops.begin(), drops.end(), 0.0) /
        static_cast<double>(drops.size());
    const double psi = estimate_rotation_rad(
        config_.ue_ula.num_elements, config_.ue_ula.spacing_wavelengths,
        std::max(0.0, mean_drop));
    for (double sign : {+1.0, -1.0}) {
      std::vector<double> ue = saved_ue;
      for (double& a : ue) a += sign * psi;
      try_candidate(saved_gnb, ue);
    }
  } else {
    // Translation: per-beam offset, gNB and UE turn in opposite senses
    // (paper Fig. 12). Two sign hypotheses probed.
    std::vector<double> offsets(drops.size(), 0.0);
    for (std::size_t k = 0; k < drops.size(); ++k) {
      if (drops[k] < config_.min_drop_db) continue;
      offsets[k] = estimate_translation_offset_rad(
          config_.gnb_ula.num_elements, config_.ue_ula.num_elements,
          config_.gnb_ula.spacing_wavelengths, drops[k]);
    }
    for (double sign : {+1.0, -1.0}) {
      std::vector<double> gnb = saved_gnb;
      std::vector<double> ue = saved_ue;
      for (std::size_t k = 0; k < offsets.size(); ++k) {
        const Realignment r = prescribe_realignment(MotionKind::kTranslation,
                                                    sign * offsets[k]);
        gnb[k] += r.gnb_delta_rad;
        ue[k] += r.ue_delta_rad;
      }
      try_candidate(gnb, ue);
    }
  }

  gnb_angles_ = best_gnb;
  ue_angles_ = best_ue;
  resynthesize();
  // Refresh references after any accepted move.
  if (best_power > p_base) {
    const RVec pp = per_beam_powers(link);
    for (std::size_t k = 0; k < pp.size(); ++k) {
      reference_power_db_[k] = to_db(std::max(pp[k], 1e-30));
    }
  }
}

}  // namespace mmr::core
