// Proactive per-beam tracking (paper Section 4.1-4.2).
//
// Each beam's power (separated from the superposition by super-resolution)
// is monitored over time. A FAST drop is classified as blockage (measured
// onset: ~10 dB within 10 OFDM symbols); a GRADUAL decline is mobility
// sliding the user off the beam pattern, and the angular offset is
// recovered by inverting the known array pattern (Eqs. 18-20). The
// pattern is symmetric, so inversion yields +/- candidates; the caller
// disambiguates with one probe.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace mmr::core {

struct TrackerConfig {
  /// Forgetting factor of the power EWMA (Section 6.1).
  double forgetting_factor = 0.8;
  /// Drop below the reference power treated as blockage when it happens
  /// faster than blockage_window_s [dB].
  double blockage_drop_db = 10.0;
  /// Window within which a blockage_drop_db fall means "blocked" [s].
  double blockage_window_s = 6.0e-3;
  /// Consecutive samples that must show the drop before declaring
  /// blockage: single-sample spikes are estimation noise, a body in the
  /// path persists.
  std::size_t blockage_persistence = 2;
  /// Smoothed drop below which no realignment is attempted -- the noise
  /// floor of the per-beam power estimate [dB].
  double min_drop_for_realign_db = 3.0;
  /// A blocked beam whose power climbs back within this margin of the
  /// reference is considered recovered [dB].
  double recover_margin_db = 4.0;
  /// History length for the quadratic smoothing fit (Section 6.1).
  std::size_t fit_history = 8;
  /// Misalignment below this is noise; don't bother realigning [rad].
  double min_realign_rad = 0.008;
  /// Cap on a single realignment step [rad]. Large inverted offsets come
  /// from noisy drops (the pattern is steep near the null) and open-loop
  /// jumps that size walk beams off their paths; small capped steps at
  /// the refinement cadence still track fast motion (4 deg / 20 ms =
  /// 200 deg/s).
  double max_realign_rad = 0.07;
};

/// Invert the N-element ULA pattern: the |angular offset| [rad] that
/// produces a relative power drop of `drop_db` >= 0 within the main lobe.
/// Saturates at the -3 dB... first-null edge for very large drops.
double invert_pattern_offset(std::size_t num_elements,
                             double spacing_wavelengths, double drop_db);

enum class BeamState {
  kTracking,  ///< healthy; mobility compensation active
  kBlocked,   ///< fast drop detected; power reallocated away
};

class PerBeamTracker {
 public:
  PerBeamTracker(const TrackerConfig& config, std::size_t num_elements,
                 double spacing_wavelengths);

  /// Set/refresh the aligned reference power (call after (re)alignment).
  void reset_reference(double power_db);

  struct Update {
    BeamState state = BeamState::kTracking;
    /// |angular misalignment| estimate [rad]; 0 when below threshold or
    /// blocked. Sign is ambiguous (pattern symmetry).
    double misalign_rad = 0.0;
    /// Smoothed drop relative to reference [dB] (positive = weaker).
    double drop_db = 0.0;
  };

  /// Feed one per-beam power measurement.
  Update update(double t_s, double power_db);

  BeamState state() const { return state_; }
  double reference_power_db() const { return reference_db_; }
  bool has_reference() const { return has_reference_; }

 private:
  struct Sample {
    double t_s;
    double power_db;
  };

  double smoothed_power_db(double t_s);
  /// i-th retained sample, oldest first (i < history_size_).
  const Sample& sample(std::size_t i) const {
    return history_[(history_head_ + i) % history_.size()];
  }

  TrackerConfig config_;
  std::size_t num_elements_;
  double spacing_;
  double reference_db_ = 0.0;
  bool has_reference_ = false;
  double ewma_db_ = 0.0;
  bool ewma_primed_ = false;
  BeamState state_ = BeamState::kTracking;
  /// The last fit_history samples: a ring of fit_history slots whose
  /// oldest sample is at history_head_.
  std::vector<Sample> history_;
  std::size_t history_head_ = 0;
  std::size_t history_size_ = 0;
  /// The smoother's abscissae and ordinates, fit_history each.
  RVec fit_x_, fit_y_;
  std::size_t consecutive_drops_ = 0;
};

}  // namespace mmr::core
