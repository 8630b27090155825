// Blockage model: GeometricBlocker, a human-sized moving obstacle whose
// position is checked against each path's ray every step; attenuation
// ramps in dB as the body enters the Fresnel zone (reproduces Fig. 16's
// walk-through traces and the ~10 dB / 10-symbol onset rate of Section
// 4.1). The paper's end-to-end blockage events (Section 6.2: people
// walking through the beams for 100-500 ms) run as crossing blockers too
// (sim::BlockerSpec, drawn per trial by the Fig. 18 bench).
#pragma once

#include "channel/geometry2d.h"

namespace mmr::channel {

/// Human blocker: vertical cylinder walking along a straight line.
class GeometricBlocker {
 public:
  struct Config {
    Vec2 start{0.0, 0.0};
    Vec2 velocity{1.0, 0.0};  ///< [m/s]
    double radius_m = 0.25;   ///< body radius
    /// Extra clearance over which attenuation ramps from 0 to full [m].
    /// Small: mmWave shadowing by a body edge is abrupt (the paper
    /// measures ~10 dB within 10 OFDM symbols).
    double ramp_margin_m = 0.03;
    /// Attenuation when fully in the path [dB] (measurements: 20-30 dB).
    double depth_db = 26.0;
  };

  explicit GeometricBlocker(Config config);

  Vec2 position_at(double t_s) const;

  /// Attenuation [dB] this blocker imposes on a path from tx via an
  /// optional reflection point to rx at time t.
  double attenuation_db(double t_s, Vec2 tx, Vec2 rx,
                        const Vec2* reflection_point) const;

 private:
  Config config_;
};

}  // namespace mmr::channel
