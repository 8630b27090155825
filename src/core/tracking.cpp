#include "core/tracking.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "array/pattern.h"
#include "common/error.h"
#include "dsp/polyfit.h"

namespace mmr::core {

double invert_pattern_offset(std::size_t num_elements,
                             double spacing_wavelengths, double drop_db) {
  MMR_EXPECTS(num_elements >= 2);
  MMR_EXPECTS(drop_db >= 0.0);
  if (drop_db == 0.0) return 0.0;
  const double target = std::pow(10.0, -drop_db / 10.0);
  // The pattern is monotone from 1 down to 0 between beam center and the
  // first null; bisect there. Drops beyond the first-null depth saturate.
  const double first_null = std::asin(
      std::min(1.0, 1.0 / (spacing_wavelengths *
                           static_cast<double>(num_elements))));
  double lo = 0.0;
  double hi = first_null * 0.999;
  if (array::ula_relative_gain(num_elements, spacing_wavelengths, hi) >=
      target) {
    return hi;  // saturated: deeper than the main lobe can explain
  }
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (array::ula_relative_gain(num_elements, spacing_wavelengths, mid) >
        target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

PerBeamTracker::PerBeamTracker(const TrackerConfig& config,
                               std::size_t num_elements,
                               double spacing_wavelengths)
    : config_(config), num_elements_(num_elements),
      spacing_(spacing_wavelengths), history_(config.fit_history),
      fit_x_(config.fit_history), fit_y_(config.fit_history) {
  MMR_EXPECTS(num_elements >= 2);
  MMR_EXPECTS(config.fit_history >= 3);
}

void PerBeamTracker::reset_reference(double power_db) {
  reference_db_ = power_db;
  has_reference_ = true;
  ewma_db_ = power_db;
  ewma_primed_ = true;
  history_head_ = 0;
  history_size_ = 0;
  state_ = BeamState::kTracking;
}

double PerBeamTracker::smoothed_power_db(double t_s) {
  // Quadratic fit over the recent history (Section 6.1), evaluated at the
  // window CENTER: endpoint extrapolation would amplify noise ~3x, and
  // half a window of lag is harmless at the realignment cadence.
  if (history_size_ < config_.fit_history) return ewma_db_;
  const double t0 = sample(0).t_s;
  for (std::size_t i = 0; i < history_size_; ++i) {
    fit_x_[i] = sample(i).t_s - t0;
    fit_y_[i] = sample(i).power_db;
  }
  std::array<double, 3> coeffs{};
  std::array<double, 3 * 4> scratch{};
  dsp::polyfit(fit_x_, fit_y_, coeffs, scratch);
  return dsp::polyval(coeffs, 0.5 * (t_s - t0));
}

PerBeamTracker::Update PerBeamTracker::update(double t_s, double power_db) {
  MMR_EXPECTS(has_reference_);
  // A non-finite measurement (failed probe, corrupted estimate) must not
  // reach the EWMA or the fit history -- one NaN would poison both
  // permanently. Report the current state unchanged instead.
  if (!std::isfinite(power_db)) {
    Update up;
    up.state = state_;
    return up;
  }
  // EWMA with forgetting factor.
  ewma_db_ = ewma_primed_
                 ? config_.forgetting_factor * ewma_db_ +
                       (1.0 - config_.forgetting_factor) * power_db
                 : power_db;
  ewma_primed_ = true;
  // Keep the last fit_history samples: a full ring overwrites its oldest.
  if (history_size_ < history_.size()) {
    history_[(history_head_ + history_size_) % history_.size()] = {t_s,
                                                                  power_db};
    ++history_size_;
  } else {
    history_[history_head_] = {t_s, power_db};
    history_head_ = (history_head_ + 1) % history_.size();
  }

  Update up;

  // Blockage: raw drop of blockage_drop_db or more within the window.
  double recent_max = power_db;
  for (std::size_t i = 0; i < history_size_; ++i) {
    const Sample& s = sample(i);
    if (t_s - s.t_s <= config_.blockage_window_s) {
      recent_max = std::max(recent_max, s.power_db);
    }
  }
  const double fast_drop = recent_max - power_db;
  const double ref_drop = reference_db_ - power_db;

  if (state_ == BeamState::kTracking) {
    const bool dropping = fast_drop >= config_.blockage_drop_db ||
                          ref_drop >= config_.blockage_drop_db * 2.0;
    consecutive_drops_ = dropping ? consecutive_drops_ + 1 : 0;
    if (consecutive_drops_ >= config_.blockage_persistence) {
      state_ = BeamState::kBlocked;
      consecutive_drops_ = 0;
    }
  } else {
    if (ref_drop <= config_.recover_margin_db) {
      state_ = BeamState::kTracking;
      ewma_db_ = power_db;
    }
  }

  up.state = state_;
  const double smooth = smoothed_power_db(t_s);
  up.drop_db = reference_db_ - smooth;

  if (state_ == BeamState::kTracking &&
      up.drop_db >= config_.min_drop_for_realign_db) {
    double offset = invert_pattern_offset(num_elements_, spacing_, up.drop_db);
    offset = std::min(offset, config_.max_realign_rad);
    up.misalign_rad = offset >= config_.min_realign_rad ? offset : 0.0;
  }
  return up;
}

}  // namespace mmr::core
