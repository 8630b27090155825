// Super-resolution per-beam channel extraction (paper Section 4.3,
// Eqs. 21-23).
//
// With a single RF chain the receiver only ever sees the SUM of all beams.
// The beams are separated in the delay domain instead: each contributes a
// sinc pulse at its path's ToF to the sampled CIR. Because the relative
// ToFs are known from training and drift slowly, the solver fits only K
// complex amplitudes (ridge-regularized least squares on a K-column sinc
// dictionary) and refines the delays over a small local search -- which is
// how it resolves paths closer than the 1/B Fourier limit (2.5 ns at
// 400 MHz).
#pragma once

#include <cstddef>

#include "common/types.h"

namespace mmr::core {

struct SuperresConfig {
  /// L2 (ridge) regularization weight of Eq. 23.
  double lambda = 1e-3;
  /// COMMON timing-shift search (+/- span): absorbs receiver timing
  /// jitter while PRESERVING the relative-ToF structure from training --
  /// the paper's key prior ("shift h_CIR so the strongest path is at zero
  /// delay; relative ToF changes slowly"). Searching each delay
  /// independently instead makes closely-spaced (sub-resolution) paths
  /// ambiguous and the per-beam powers unstable.
  double common_shift_span_s = 1.0e-9;
  std::size_t common_shift_steps = 9;
  /// Fine second pass around the best coarse shift (span = one coarse
  /// step). Residual timing mismatch redistributes power between
  /// closely-spaced dictionary columns, so sub-grid accuracy matters.
  std::size_t common_shift_fine_steps = 5;
  /// Small per-path refinement around the shifted delays ("small
  /// variations in relative-ToF", Section 4.3).
  double relative_span_s = 0.15e-9;
  std::size_t relative_steps = 3;
  /// Greedy coordinate-descent rounds of the per-path refinement.
  std::size_t refinement_rounds = 1;
};

struct SuperresResult {
  CVec alphas;          ///< fitted complex per-beam amplitude
  RVec delays_s;        ///< refined per-beam delays
  double residual = 0;  ///< ||cir - S alpha|| at the solution
  RVec powers() const;  ///< |alpha_k|^2
};

/// Largest beam count K (dictionary columns) a fit takes. The fit is
/// compiled once for each K in 1..kMaxBeams, so that its per-tap loops run
/// over K with their accumulators in registers; a larger K throws
/// std::logic_error.
inline constexpr std::size_t kMaxBeams = 8;

/// Caller-owned scratch of superres_per_beam and the fit it last made.
/// The buffers grow to the largest fit seen and keep their capacity, so
/// a warm workspace fits without allocating.
struct SuperresWorkspace {
  /// The last fit; overwritten by the next call with this workspace.
  SuperresResult result;
  /// Scratch: the CIR with non-finite taps zeroed, as real and imaginary
  /// parts; the dictionaries of the best and of a stage-1 trial fit
  /// (taps x K, column-major); a stage-2 candidate column.
  RVec taps_re, taps_im, best_dict, trial_dict, column;
};

/// Fit per-beam amplitudes to a measured CIR. `nominal_delays_s` come from
/// training (relative to the earliest path, which the receiver's timing
/// lock pins to tap 0), one per beam, at most kMaxBeams. `ts` is the CIR
/// sample period, `bandwidth_hz` the sinc bandwidth B; ts must be 1/B
/// (dsp::sinc_pulse's precondition).
///
/// Non-finite CIR taps (corrupted feedback) are zeroed before the fit and
/// any non-finite fitted amplitude is clamped to zero, so the returned
/// powers are always finite.
///
/// Returns workspace.result.
const SuperresResult& superres_per_beam(const CVec& cir,
                                        const RVec& nominal_delays_s,
                                        double ts, double bandwidth_hz,
                                        const SuperresConfig& config,
                                        SuperresWorkspace& workspace);

/// The same fit in a workspace of its own.
SuperresResult superres_per_beam(const CVec& cir, const RVec& nominal_delays_s,
                                 double ts, double bandwidth_hz,
                                 const SuperresConfig& config = {});

/// Reconstruct the model CIR from a fit (for residual checks and Fig. 11b).
CVec reconstruct_cir(const SuperresResult& fit, std::size_t num_taps,
                     double ts, double bandwidth_hz);

/// Delay of the strongest arrival in a sampled CIR. The strongest tap is
/// refined to sub-tap accuracy by maximising the band-limited (sinc)
/// interpolation of the CIR on a 49-point grid spanning +/-0.6 taps
/// around it. Used to seed the superres dictionary with each beam's
/// nominal ToF after training.
double estimate_peak_delay(const CVec& cir, double ts);

}  // namespace mmr::core
