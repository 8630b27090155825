#include "channel/environment.h"

#include <algorithm>
#include <cmath>

#include "common/angles.h"
#include "common/constants.h"
#include "common/error.h"
#include "common/units.h"

namespace mmr::channel {
namespace {

// Angle of the ray direction `dir` relative to a terminal's boresight.
double relative_angle(const Pose& pose, Vec2 dir) {
  return wrap_pi(heading(dir) - pose.orientation_rad);
}

// Patch-element gain: the array radiates only into the front half-space,
// with the usual ~cosine roll-off. Without this, a ULA's array factor is
// front-back symmetric and rear-wall reflections alias onto forward beams.
double element_gain(double aod_rad) {
  const double g = std::cos(aod_rad);
  return g > 0.0 ? g : 0.0;
}

cplx path_gain(double path_length_m, double extra_loss_db, double carrier_hz) {
  const double loss_db =
      propagation_loss_db(path_length_m, carrier_hz) + extra_loss_db;
  const double amp = from_db_amp(-loss_db);
  const double tau = path_length_m / kSpeedOfLight;
  const double phase = -2.0 * kPi * carrier_hz * tau;
  // Phase wraps of fc*tau exceed double precision comfort for long links;
  // only the wrapped value matters.
  return std::polar(amp, wrap_pi(std::fmod(phase, 2.0 * kPi)));
}

}  // namespace

Environment::Environment(double carrier_hz) : carrier_hz_(carrier_hz) {
  MMR_EXPECTS(carrier_hz > 0.0);
}

void Environment::add_wall(Wall wall) { walls_.push_back(std::move(wall)); }

bool Environment::occluded(Vec2 p, Vec2 q, int ignore_wall) const {
  for (std::size_t i = 0; i < walls_.size(); ++i) {
    if (static_cast<int>(i) == ignore_wall || !walls_[i].occludes) continue;
    const auto hit = intersect(walls_[i].segment, p, q);
    if (!hit) continue;
    // Endpoint touches (ray grazing the wall it starts next to) don't count.
    if (distance(*hit, p) < 1e-6 || distance(*hit, q) < 1e-6) continue;
    return true;
  }
  return false;
}

std::vector<Path> Environment::trace(const Pose& tx, const Pose& rx,
                                     double min_rel_power_db) const {
  std::vector<Path> paths;
  trace_into(paths, tx, tx_images(tx), rx, min_rel_power_db);
  return paths;
}

std::vector<Vec2> Environment::tx_images(const Pose& tx) const {
  std::vector<Vec2> images;
  images.reserve(walls_.size());
  for (const Wall& wall : walls_) {
    images.push_back(mirror_across(wall.segment, tx.position));
  }
  return images;
}

void Environment::trace_into(std::vector<Path>& paths, const Pose& tx,
                             std::span<const Vec2> images, const Pose& rx,
                             double min_rel_power_db) const {
  MMR_EXPECTS(images.size() == walls_.size());
  paths.clear();

  // LOS.
  if (!occluded(tx.position, rx.position, -1)) {
    const double d = distance(tx.position, rx.position);
    if (d > 1e-6) {
      Path p;
      p.is_los = true;
      p.reflector_id = -1;
      p.aod_rad = relative_angle(tx, rx.position - tx.position);
      p.aoa_rad = relative_angle(rx, tx.position - rx.position);
      p.delay_s = d / kSpeedOfLight;
      const double elem = element_gain(p.aod_rad);
      if (elem > 0.0) {
        p.gain = path_gain(d, 0.0, carrier_hz_) * elem;
        paths.push_back(p);
      }
    }
  }

  // Single bounce off each wall (image method).
  for (std::size_t i = 0; i < walls_.size(); ++i) {
    const Wall& wall = walls_[i];
    const auto hit = intersect(wall.segment, images[i], rx.position);
    if (!hit) continue;
    const Vec2 refl = *hit;
    // Degenerate geometry: reflection point coincides with a terminal.
    if (distance(refl, tx.position) < 1e-6 ||
        distance(refl, rx.position) < 1e-6) {
      continue;
    }
    const int wall_id = static_cast<int>(i);
    if (occluded(tx.position, refl, wall_id)) continue;
    if (occluded(refl, rx.position, wall_id)) continue;
    const double d = distance(tx.position, refl) + distance(refl, rx.position);
    Path p;
    p.is_los = false;
    p.reflector_id = wall_id;
    p.reflection_point = refl;
    p.aod_rad = relative_angle(tx, refl - tx.position);
    p.aoa_rad = relative_angle(rx, refl - rx.position);
    p.delay_s = d / kSpeedOfLight;
    const double elem = element_gain(p.aod_rad);
    if (elem <= 0.0) continue;
    p.gain =
        path_gain(d, wall.material.reflection_loss_db, carrier_hz_) * elem;
    paths.push_back(p);
  }

  if (paths.empty()) return;

  // Prune paths far below the strongest one. sorted_by_power takes the
  // vector by value and sorts in place, so the move round-trip preserves
  // capacity and allocates nothing.
  paths = sorted_by_power(std::move(paths));
  const double best = paths.front().effective_power();
  const double floor = best * from_db(-min_rel_power_db);
  paths.erase(std::remove_if(paths.begin(), paths.end(),
                             [floor](const Path& p) {
                               return p.effective_power() < floor;
                             }),
              paths.end());
}

Environment Environment::indoor_conference_room() {
  // 7 m x 10 m room (paper Fig. 13b). The link runs parallel to and close
  // to the glass wall and a metal cabinet row, so the dominant reflections
  // detour by well under a meter: the sub-2 ns excess delays the paper
  // measures (Fig. 15c shows per-beam phase stable over 100 MHz, which
  // requires exactly this regime -- constructive combining across a wide
  // band needs B * delta_tau well below 1).
  Environment env(kCarrier28GHz);
  env.add_wall({{{0.0, 0.0}, {10.0, 0.0}}, Material::drywall()});
  env.add_wall({{{0.0, 7.0}, {10.0, 7.0}}, Material::glass()});
  env.add_wall({{{0.0, 0.0}, {0.0, 7.0}}, Material::drywall()});
  env.add_wall({{{10.0, 0.0}, {10.0, 7.0}}, Material::metal()});  // whiteboard
  // Metal filing-cabinet row below the link line; reflects but does not
  // occlude (below the antenna plane).
  env.add_wall({{{2.0, 5.0}, {8.0, 5.0}}, Material::metal(), false});
  return env;
}

Environment Environment::indoor_sparse() {
  Environment env(kCarrier28GHz);
  env.add_wall({{{0.0, 0.0}, {10.0, 0.0}}, Material::wood()});
  env.add_wall({{{0.0, 7.0}, {10.0, 7.0}}, Material::glass()});
  env.add_wall({{{0.0, 0.0}, {0.0, 7.0}}, Material::drywall()});
  env.add_wall({{{10.0, 0.0}, {10.0, 7.0}}, Material::drywall()});
  return env;
}

Environment Environment::outdoor_street() {
  // Long building face with tinted glass along one side of the link
  // (paper Fig. 13c): the link runs parallel to the facade a few meters
  // out, so the wall reflection detours by only a few ns even at 80 m.
  Environment env(kCarrier28GHz);
  env.add_wall({{{-10.0, 6.0}, {100.0, 6.0}}, Material::glass()});
  env.add_wall({{{-10.0, -40.0}, {100.0, -40.0}}, Material::concrete()});
  return env;
}

}  // namespace mmr::channel
