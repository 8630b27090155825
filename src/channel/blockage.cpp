#include "channel/blockage.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mmr::channel {

GeometricBlocker::GeometricBlocker(Config config) : config_(config) {
  MMR_EXPECTS(config_.radius_m > 0.0);
  MMR_EXPECTS(config_.ramp_margin_m >= 0.0);
  MMR_EXPECTS(config_.depth_db >= 0.0);
}

Vec2 GeometricBlocker::position_at(double t_s) const {
  return config_.start + config_.velocity * t_s;
}

double GeometricBlocker::attenuation_db(double t_s, Vec2 tx, Vec2 rx,
                                        const Vec2* reflection_point) const {
  const Vec2 pos = position_at(t_s);
  // Distance from the blocker to the (possibly two-legged) ray.
  double dist;
  if (reflection_point == nullptr) {
    dist = point_segment_distance({tx, rx}, pos);
  } else {
    dist = std::min(point_segment_distance({tx, *reflection_point}, pos),
                    point_segment_distance({*reflection_point, rx}, pos));
  }
  if (dist >= config_.radius_m + config_.ramp_margin_m) return 0.0;
  if (dist <= config_.radius_m) return config_.depth_db;
  // Linear-in-dB ramp across the margin: matches the measured fast but
  // finite onset (~10 dB within 10 OFDM symbols once the edge crosses).
  const double frac = (config_.radius_m + config_.ramp_margin_m - dist) /
                      config_.ramp_margin_m;
  return config_.depth_db * frac;
}

}  // namespace mmr::channel
