#include "channel/mobility.h"

#include "common/angles.h"

namespace mmr::channel {

LinearTranslation::LinearTranslation(Pose start, Vec2 velocity_mps)
    : start_(start), velocity_(velocity_mps) {}

Pose LinearTranslation::at(double t_s) const {
  Pose p = start_;
  p.position = start_.position + velocity_ * t_s;
  return p;
}

TranslateAndRotate::TranslateAndRotate(Pose start, Vec2 velocity_mps,
                                       double rate_rad_per_s)
    : start_(start), velocity_(velocity_mps), rate_(rate_rad_per_s) {}

Pose TranslateAndRotate::at(double t_s) const {
  Pose p;
  p.position = start_.position + velocity_ * t_s;
  p.orientation_rad = wrap_pi(start_.orientation_rad + rate_ * t_s);
  return p;
}

}  // namespace mmr::channel
