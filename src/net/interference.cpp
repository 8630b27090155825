#include "net/interference.h"

#include <cmath>
#include <complex>

#include "array/pattern.h"
#include "channel/pathloss.h"
#include "common/error.h"
#include "common/units.h"
#include "dsp/kernels.h"

namespace mmr::net {

void InterferenceConfig::validate() const {
  MMR_EXPECTS(std::isfinite(coupling_loss_db));
  MMR_EXPECTS(coupling_loss_db >= 0.0);
}

double interferer_gain(const array::Ula& ula, const CVec& weights,
                       double victim_angle_rad, double distance_m,
                       double carrier_hz, double coupling_loss_db) {
  MMR_EXPECTS(distance_m > 0.0);
  MMR_EXPECTS(carrier_hz > 0.0);
  MMR_EXPECTS(coupling_loss_db >= 0.0);
  // Free-space path-loss models break down inside the near field; clamp
  // to 1 m (the standard reference distance) so a pathological geometry
  // cannot produce gain > 1.
  const double d = distance_m < 1.0 ? 1.0 : distance_m;
  const double loss_db =
      channel::propagation_loss_db(d, carrier_hz) + coupling_loss_db;
  return array::power_gain(ula, weights, victim_angle_rad) *
         from_db(-loss_db);
}

void InterferenceFold::begin_tick(std::span<const channel::Vec2> gnbs,
                                  const array::Ula& ula, double carrier_hz,
                                  double coupling_loss_db,
                                  std::size_t num_slots) {
  MMR_EXPECTS(carrier_hz > 0.0);
  MMR_EXPECTS(coupling_loss_db >= 0.0);
  gnbs_ = gnbs;
  ula_ = ula;
  carrier_hz_ = carrier_hz;
  coupling_loss_db_ = coupling_loss_db;
  num_slots_ = num_slots;
  victim_pos_.resize(num_slots);
  victim_live_.assign(num_slots, 0);
  totals_.assign(num_slots, 0.0);
  queue_.clear();
  queue_.reserve(num_slots);
  measured_.assign(gnbs.size(), 0);
  cell_reach_.resize(gnbs.size());
  dist_.resize(gnbs.size() * num_slots);
  reach_.resize(gnbs.size() * num_slots);
  pair_victim_.assign(gnbs.size(), 0);
  pair_loss_.resize(gnbs.size());
  pair_phasors_.resize(gnbs.size() * ula.num_elements);
}

void InterferenceFold::set_victim(std::size_t slot, channel::Vec2 pos) {
  MMR_EXPECTS(slot < num_slots_);
  victim_pos_[slot] = pos;
  victim_live_[slot] = 1;
}

void InterferenceFold::measure_cell(std::size_t cell) {
  const channel::Vec2 gnb = gnbs_[cell];
  std::size_t reached = 0;
  for (std::size_t v = 0; v < num_slots_; ++v) {
    const std::size_t e = cell * num_slots_ + v;
    reach_[e] = 0;
    if (victim_live_[v] == 0) continue;
    const double d = std::hypot(victim_pos_[v].x - gnb.x,
                                victim_pos_[v].y - gnb.y);
    if (d <= 0.0) continue;
    dist_[e] = d;
    reach_[e] = 1;
    ++reached;
  }
  measured_[cell] = 1;
  cell_reach_[cell] = reached;
}

void InterferenceFold::build_pair(std::size_t cell, std::size_t victim) {
  const channel::Vec2 gnb = gnbs_[cell];
  const channel::Vec2 delta{victim_pos_[victim].x - gnb.x,
                            victim_pos_[victim].y - gnb.y};
  // All cells share one array orientation (boresight +x), so the
  // victim's angle in the interferer's frame is the global bearing.
  // From here on, interferer_gain's expressions, term for term.
  const double angle = std::atan2(delta.y, delta.x);
  const double d = dist_[cell * num_slots_ + victim];
  const double clamped = d < 1.0 ? 1.0 : d;
  const double loss_db =
      channel::propagation_loss_db(clamped, carrier_hz_) + coupling_loss_db_;
  pair_loss_[cell] = from_db(-loss_db);
  const std::size_t n = ula_.num_elements;
  dsp::phasor_ramp(array::steering_phase_step(ula_, angle), n,
                   pair_phasors_.data() + cell * n);
  pair_victim_[cell] = victim + 1;
}

bool InterferenceFold::reaches_victim(std::size_t cell, std::size_t slot) {
  MMR_EXPECTS(cell < gnbs_.size() && slot < num_slots_);
  if (measured_[cell] == 0) measure_cell(cell);
  return cell_reach_[cell] > reach_[cell * num_slots_ + slot];
}

void InterferenceFold::add(std::size_t cell, std::size_t slot,
                           const CVec& weights) {
  MMR_EXPECTS(cell < gnbs_.size() && slot < num_slots_);
  MMR_EXPECTS(measured_[cell] != 0);
  MMR_EXPECTS(weights.size() == ula_.num_elements);
  queue_.push_back({cell, slot, &weights});
}

void InterferenceFold::fold() {
  const std::size_t n = ula_.num_elements;
  for (std::size_t v = 0; v < num_slots_; ++v) {
    for (const Interferer& it : queue_) {
      if (it.slot == v || reach_[it.cell * num_slots_ + v] == 0) continue;
      if (pair_victim_[it.cell] != v + 1) build_pair(it.cell, v);
      totals_[v] += std::norm(dsp::dot_phasors(
                        pair_phasors_.data() + it.cell * n,
                        it.weights->data(), n)) *
                    pair_loss_[it.cell];
    }
  }
}

}  // namespace mmr::net
