// Environment description and image-method ray tracer.
//
// This replaces both the authors' physical rooms/streets and the Wireless
// Insite commercial ray tracer used in Appendix B. Walls are 2-D segments
// with materials; paths are the LOS ray plus one specular bounce per wall
// (mmWave reflection clusters are sparse -- Section 3.2 -- and the paper's
// algorithms only ever use the 2-3 strongest paths, so single-bounce
// tracing reproduces the relevant structure).
#pragma once

#include <span>
#include <vector>

#include "channel/geometry2d.h"
#include "channel/path.h"
#include "channel/pathloss.h"

namespace mmr::channel {

struct Wall {
  Segment segment;
  Material material;
  /// Set for walls that only reflect and never occlude (e.g. low furniture
  /// modeled as reflectors below the antenna plane).
  bool occludes = true;
};

struct Pose {
  Vec2 position{0.0, 0.0};
  /// Boresight direction of the antenna array [rad from +x axis].
  double orientation_rad = 0.0;
};

class Environment {
 public:
  explicit Environment(double carrier_hz);

  void add_wall(Wall wall);
  const std::vector<Wall>& walls() const { return walls_; }
  double carrier_hz() const { return carrier_hz_; }

  /// Trace LOS + specular bounce paths from tx to rx. Angles in the
  /// returned paths are relative to each terminal's boresight. Occluded
  /// rays are dropped; paths weaker than `min_rel_power_db` below the
  /// strongest are pruned (beam training would never pick them).
  std::vector<Path> trace(const Pose& tx, const Pose& rx,
                          double min_rel_power_db = 40.0) const;

  /// The image-method sources of `tx`: its mirror image across each
  /// wall, in wall order. They depend only on the TX position and the
  /// walls, so a caller whose TX never moves computes them once.
  std::vector<Vec2> tx_images(const Pose& tx) const;

  /// Allocation-reusing form of trace(): clears `out` and fills it with
  /// exactly the paths (same values, same order) trace(tx, rx) would
  /// return, reusing `out`'s capacity. `images` must be tx_images(tx).
  /// The per-tick re-trace in LinkWorld uses this with the images it
  /// computed once, so the trial hot path neither re-mirrors the gNB nor
  /// allocates once the path count has plateaued. trace() is a thin
  /// wrapper around this.
  void trace_into(std::vector<Path>& out, const Pose& tx,
                  std::span<const Vec2> images, const Pose& rx,
                  double min_rel_power_db = 40.0) const;

  /// Canonical scenarios from the paper's evaluation (Section 6).
  /// 7 m x 10 m conference room: glass walls, whiteboard, metal cabinets.
  static Environment indoor_conference_room();
  /// Same room with only the glass wall as a strong reflector: the
  /// reflected path sits near the single-beam's first null, so a blocked
  /// single-beam link has NO sidelobe fallback and goes into outage --
  /// the regime of the paper's Fig. 16 / Fig. 18 blockage experiments.
  static Environment indoor_sparse();
  /// Outdoor street next to a large glass-walled building, 30-80 m links.
  static Environment outdoor_street();

 private:
  /// True if an occluding wall other than `ignore_wall` (-1: none)
  /// crosses the segment p-q.
  bool occluded(Vec2 p, Vec2 q, int ignore_wall) const;

  double carrier_hz_;
  std::vector<Wall> walls_;
};

}  // namespace mmr::channel
