// Cross-link interference from the array-factor/sidelobe model.
//
// A neighbor link's transmit beam leaks into my receiver through its
// array pattern evaluated at MY direction (in the interferer's frame)
// attenuated by the propagation loss over the interferer-to-victim
// distance. The same expression covers co-cell co-scheduled sessions
// (src/core/multi_user.h's concern, promoted network-wide) and
// neighbor-cell leakage; the victim folds the summed interference into
// its SINR as SINR_dB = SNR_dB - 10 log10(1 + INR) (sim::sinr_db).
//
// interferer_gain is the scalar reference; the network folds whole ticks
// through InterferenceFold, which shares each (cell, victim) geometry
// among the cell's interferers and stays bitwise equal to the per-pair
// reference on every backend (pinned by the net tier, which runs once per
// kernel backend). Both are allocation-free in steady state, inside the
// per-tick zero-alloc contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "array/geometry.h"
#include "channel/geometry2d.h"
#include "common/types.h"

namespace mmr::net {

struct InterferenceConfig {
  bool enabled = true;
  /// Extra coupling loss between interferer and victim [dB] (walls,
  /// cross-polarization between deployments). 0 = co-polarized.
  double coupling_loss_db = 0.0;
  /// MMR_EXPECTS: coupling loss finite and non-negative.
  void validate() const;
};

/// Linear channel power gain leaked from an interfering transmitter
/// running `weights` toward a victim at `victim_angle_rad` (interferer's
/// frame), `distance_m` away: |AF(w, phi)|^2 * pathloss(d) * coupling.
/// Allocation-free.
double interferer_gain(const array::Ula& ula, const CVec& weights,
                       double victim_angle_rad, double distance_m,
                       double carrier_hz, double coupling_loss_db = 0.0);

/// The network's per-tick interference fold. Within a tick the geometry
/// of every (serving cell, victim) pair is fixed -- bearing, distance,
/// loss factor and the N steering phasors toward the victim -- and all
/// interferers served by one cell share it. The fold queues the tick's
/// transmitting interferers, then walks the victims: a pair's geometry
/// is built the first time one of the cell's interferers reaches that
/// victim, and every queued interferer then costs one dsp::dot_phasors.
/// Every addend is bit for bit interferer_gain of the same pair (on every
/// kernel backend), and each victim adds its interferers in the order
/// they were queued.
///
/// Cost per tick: transcendentals O(cells x sessions), MACs
/// O(sessions^2 x N). Scratch: O(cells x (slots + N)), allocated only
/// when the cell count, slot count or array size grows.
class InterferenceFold {
 public:
  /// Start a tick: cell c's gNB sits at `gnbs[c]` (borrowed until the
  /// next begin_tick), every interferer transmits through `ula` at
  /// `carrier_hz` (a network builds every session from one scenario),
  /// every one of `num_slots` slots is dead until set_victim(), no
  /// interferer is queued and every total is 0.
  void begin_tick(std::span<const channel::Vec2> gnbs, const array::Ula& ula,
                  double carrier_hz, double coupling_loss_db,
                  std::size_t num_slots);
  /// Mark slot `slot` live with its UE at `pos`. Call before the first
  /// reaches_victim() of the tick.
  void set_victim(std::size_t slot, channel::Vec2 pos);

  /// Whether an interferer in `slot` served by `cell` reaches any victim:
  /// another live slot at a distance > 0 from the gNB.
  bool reaches_victim(std::size_t cell, std::size_t slot);
  /// Queue the interferer in `slot`, served by `cell` and transmitting
  /// `weights` (borrowed until fold()). Requires reaches_victim() for
  /// `cell` this tick.
  void add(std::size_t cell, std::size_t slot, const CVec& weights);
  /// Add every queued interferer's leaked gain into each victim it
  /// reaches.
  void fold();

  /// Folded interference gain (linear) per slot, after fold().
  std::span<const double> totals() const { return totals_; }

 private:
  struct Interferer {
    std::size_t cell = 0;
    std::size_t slot = 0;
    const CVec* weights = nullptr;
  };
  /// Distances from `cell`'s gNB to every live victim.
  void measure_cell(std::size_t cell);
  /// Loss factor and steering phasors of (cell, victim) into the cell's
  /// pair scratch.
  void build_pair(std::size_t cell, std::size_t victim);

  std::span<const channel::Vec2> gnbs_;
  array::Ula ula_;
  double carrier_hz_ = 0.0;
  double coupling_loss_db_ = 0.0;
  std::size_t num_slots_ = 0;
  std::vector<channel::Vec2> victim_pos_;
  std::vector<std::uint8_t> victim_live_;
  std::vector<double> totals_;
  std::vector<Interferer> queue_;
  // Per cell: distances measured this tick, victims reached. Per (cell,
  // slot): distance and reached flag.
  std::vector<std::uint8_t> measured_;
  std::vector<std::size_t> cell_reach_;
  std::vector<double> dist_;
  std::vector<std::uint8_t> reach_;
  // Per cell, for one victim at a time: the victim it holds (slot + 1,
  // 0 = none), loss factor and ula_.num_elements steering phasors.
  std::vector<std::size_t> pair_victim_;
  std::vector<double> pair_loss_;
  std::vector<cplx> pair_phasors_;
};

}  // namespace mmr::net
