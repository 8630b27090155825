// UE mobility trajectories. The paper's gantry provides controlled
// translation (up to 1.5 m/s) and rotation (24 deg/s, typical VR headset
// speed); these trajectory classes are the simulation equivalents, and
// they double as exact ground truth for tracking-accuracy experiments.
#pragma once

#include "channel/environment.h"

namespace mmr::channel {

class Trajectory {
 public:
  virtual ~Trajectory() = default;
  virtual Pose at(double t_s) const = 0;
};

/// Stationary UE.
class StaticPose final : public Trajectory {
 public:
  explicit StaticPose(Pose pose) : pose_(pose) {}
  Pose at(double) const override { return pose_; }

 private:
  Pose pose_;
};

/// Constant-velocity translation, fixed orientation.
class LinearTranslation final : public Trajectory {
 public:
  LinearTranslation(Pose start, Vec2 velocity_mps);
  Pose at(double t_s) const override;

 private:
  Pose start_;
  Vec2 velocity_;
};

/// Translation and rotation combined.
class TranslateAndRotate final : public Trajectory {
 public:
  TranslateAndRotate(Pose start, Vec2 velocity_mps, double rate_rad_per_s);
  Pose at(double t_s) const override;

 private:
  Pose start_;
  Vec2 velocity_;
  double rate_;
};

}  // namespace mmr::channel
