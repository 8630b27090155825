#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "channel/pathloss.h"
#include "common/angles.h"
#include "common/constants.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/terragraph.h"
#include "sim/scenario.h"
#include "sim/workspace.h"
#include "sim/world.h"

namespace mmr::net {
namespace {

inline constexpr std::size_t kNoCell = std::numeric_limits<std::size_t>::max();
/// Sub-stream for the crowd scenarios' walker draws.
inline constexpr std::uint64_t kCrowdSeedStream = 0xC20D;

bool is_outdoor(const sim::ScenarioSpec& s) {
  return s.name.rfind("outdoor", 0) == 0;
}

/// gNB position inside its cell's local frame (where the world factories
/// put it).
channel::Vec2 scenario_tx_local(const sim::ScenarioSpec& s) {
  return is_outdoor(s) ? channel::Vec2{0.0, 0.0} : sim::kIndoorGnbPosition;
}

channel::Vec2 scenario_ue_local(const sim::ScenarioSpec& s) {
  return is_outdoor(s) ? channel::Vec2{s.link_distance_m, 0.0} : s.ue_start;
}

channel::Vec2 rotate(channel::Vec2 v, double angle_rad) {
  const double c = std::cos(angle_rad), s = std::sin(angle_rad);
  return {v.x * c - v.y * s, v.x * s + v.y * c};
}

double norm(channel::Vec2 v) { return std::hypot(v.x, v.y); }

/// Crowd-blockage scenario: the registered sparse indoor room (authored
/// spec.blockers included) plus a seed-derived crowd of walkers crossing
/// the link line at random times/speeds/depths, so a crowd scenario
/// composes with explicit blockage scripts.
sim::LinkWorld make_crowd(const sim::ScenarioSpec& spec, std::size_t min_crowd,
                          std::size_t max_crowd) {
  sim::ScenarioSpec room = spec;
  room.name = "indoor_sparse";
  sim::LinkWorld world = sim::ScenarioRegistry::instance().make(room);
  Rng rng(Rng::derive_stream_seed(spec.config.seed, kCrowdSeedStream));
  const std::size_t n =
      min_crowd + static_cast<std::size_t>(
                      rng.uniform_index(max_crowd - min_crowd + 1));
  for (std::size_t k = 0; k < n; ++k) {
    const double crossing_time_s = rng.uniform(0.1, 0.9);
    const double speed_mps = rng.uniform(0.8, 1.8);
    const double depth_db = rng.uniform(25.0, 35.0);
    world.add_blocker(sim::crossing_blocker(sim::kIndoorGnbPosition,
                                            spec.ue_start, crossing_time_s,
                                            speed_mps, depth_db));
  }
  return world;
}

}  // namespace

void HandoverConfig::validate() const {
  MMR_EXPECTS(std::isfinite(hysteresis_db) && hysteresis_db >= 0.0);
  MMR_EXPECTS(std::isfinite(time_to_trigger_s) && time_to_trigger_s >= 0.0);
  MMR_EXPECTS(std::isfinite(min_interval_s) && min_interval_s >= 0.0);
}

void NetworkLayout::validate() const {
  MMR_EXPECTS(num_cells >= 1);
  MMR_EXPECTS(ues_per_cell >= 1);
  MMR_EXPECTS(std::isfinite(cell_spacing_m) && cell_spacing_m > 0.0);
  MMR_EXPECTS(std::isfinite(ue_placement_jitter_m) &&
              ue_placement_jitter_m >= 0.0);
  link_state.validate();
  handover.validate();
  interference.validate();
}

void NetworkSpec::validate() const {
  NetworkLayout::validate();
  run.validate();
}

struct Network::Session {
  std::size_t link = 0;
  std::size_t home_cell = 0;
  std::size_t serving_cell = 0;
  std::uint64_t link_seed = 0;
  /// Base fault seed (handover rebuilds derive per-rebuild streams).
  std::uint64_t fault_seed = 0;
  sim::ScenarioSpec scenario;
  std::unique_ptr<sim::LinkWorld> world;
  std::unique_ptr<core::BeamController> controller;
  /// Borrows world and controller: declared after them so it is destroyed
  /// (detaching the fault listener) first.
  std::unique_ptr<sim::LinkStepper> stepper;
  core::LinkStateMachine sm;
  // Global kinematics (macro layer): position = start + velocity * t,
  // independent of which cell currently serves.
  channel::Vec2 global_start{0.0, 0.0};
  channel::Vec2 velocity{0.0, 0.0};
  // Streaming-table state: slot occupancy and local-timeline offset.
  // Batch tables keep birth_s = 0, so local time t - 0.0 is bitwise the
  // shared time and the historical behavior is unchanged.
  bool live = true;
  double birth_s = 0.0;
  // Handover bookkeeping.
  std::size_t ttt_candidate = kNoCell;
  double ttt_since = 0.0;
  double last_handover_s = -1.0e18;
  std::size_t handovers = 0;
  core::LinkTally tally;
  std::vector<core::FaultEvent> faults;

  explicit Session(const core::LinkStateConfig& sm_config) : sm(sm_config) {}

  channel::Vec2 global_pos(double t_s) const {
    return global_start + velocity * t_s;
  }
  double local_time(double t_s) const { return t_s - birth_s; }
};

Network::Network(const NetworkSpec& spec, std::uint64_t stream_seed,
                 sim::TrialWorkspace* workspace, bool populate_sessions)
    : spec_(spec), stream_seed_(stream_seed), workspace_(workspace) {
  spec_.validate();
  const channel::Vec2 tx_local = scenario_tx_local(spec_.link_scenario);
  gnbs_.reserve(spec_.num_cells);
  for (std::size_t c = 0; c < spec_.num_cells; ++c) {
    gnbs_.push_back(
        channel::Vec2{static_cast<double>(c) * spec_.cell_spacing_m, 0.0} +
        tx_local);
  }
  if (!populate_sessions) return;
  sessions_.reserve(spec_.num_links());
  for (std::size_t link = 0; link < spec_.num_links(); ++link) {
    sessions_.push_back(std::make_unique<Session>(spec_.link_state));
    build_session(*sessions_.back(), link);
    ++live_count_;
  }
  tick_samples_.resize(sessions_.size());
}

Network::~Network() = default;

bool Network::slot_live(std::size_t slot) const {
  return slot < sessions_.size() && sessions_[slot]->live;
}

std::size_t Network::join(std::uint64_t session_id, double birth_s) {
  MMR_EXPECTS(std::isfinite(birth_s) && birth_s >= 0.0);
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = sessions_.size();
    sessions_.push_back(std::make_unique<Session>(spec_.link_state));
    size_slot_scratch();
  }
  Session& s = *sessions_[slot];
  // Reset the recycled slot to a fresh Session, then seed it from the
  // session id exactly like link `session_id` of a batch table.
  s = Session(spec_.link_state);
  build_session(s, session_id);
  s.birth_s = birth_s;
  s.live = true;
  ++live_count_;
  return slot;
}

void Network::leave(std::size_t slot) {
  MMR_EXPECTS(slot_live(slot));
  Session& s = *sessions_[slot];
  s.stepper.reset();
  s.controller.reset();
  s.world.reset();
  s.tally = {};
  s.faults.clear();
  s.faults.shrink_to_fit();
  s.live = false;
  --live_count_;
  free_slots_.push_back(slot);
}

void Network::build_session(Session& s, std::uint64_t session_id) {
  const auto link = static_cast<std::size_t>(session_id);
  s.link = link;
  // Batch tables fill cell 0 first (link / ues_per_cell); streaming ids
  // beyond the table wrap around the cells with the same formula.
  s.home_cell = (link / spec_.ues_per_cell) % spec_.num_cells;
  s.serving_cell = s.home_cell;
  // Link 0 takes the trial's stream seed VERBATIM -- the single-link
  // collapse depends on it (the engine sets scenario.config.seed =
  // ctx.stream_seed). Other links fork their own streams.
  s.link_seed = link == 0 ? stream_seed_
                          : Rng::derive_stream_seed(stream_seed_, link);
  s.scenario = spec_.link_scenario;
  s.scenario.config.seed = s.link_seed;
  if (link > 0 && spec_.ue_placement_jitter_m > 0.0) {
    Rng place(Rng::derive_stream_seed(s.link_seed, kPlacementSeedStream));
    const double j = spec_.ue_placement_jitter_m;
    if (is_outdoor(s.scenario)) {
      s.scenario.link_distance_m = std::max(
          1.0, s.scenario.link_distance_m + place.uniform(-j, j));
    } else {
      s.scenario.ue_start.x += place.uniform(-j, j);
      s.scenario.ue_start.y += place.uniform(-j, j);
    }
    if (s.scenario.ue_velocity.x != 0.0 || s.scenario.ue_velocity.y != 0.0) {
      // Spread the crowd: same speed, random heading per session.
      s.scenario.ue_velocity =
          rotate(s.scenario.ue_velocity, place.uniform(0.0, 2.0 * kPi));
    }
  }
  s.velocity = s.scenario.ue_velocity;
  const channel::Vec2 origin{static_cast<double>(s.home_cell) *
                                 spec_.cell_spacing_m,
                             0.0};
  s.global_start = origin + scenario_ue_local(s.scenario);

  // Mirror the engine's fault seeding bit-exactly on link 0: a plan with
  // seed 0 gets derive(stream_seed, kFaultSeedStream). Other links
  // decorrelate through their own link seed.
  s.fault_seed = spec_.run.faults.seed;
  if (s.fault_seed == 0) {
    s.fault_seed = Rng::derive_stream_seed(s.link_seed, sim::kFaultSeedStream);
  } else if (link > 0) {
    s.fault_seed = Rng::derive_stream_seed(s.fault_seed, link);
  }
  rebuild_link(s, s.fault_seed);
}

void Network::rebuild_link(Session& s, std::uint64_t fault_seed) {
  s.stepper.reset();
  s.world = std::make_unique<sim::LinkWorld>(
      sim::ScenarioRegistry::instance().make(s.scenario));
  if (workspace_ != nullptr) s.world->bind_workspace(workspace_);
  s.controller = sim::ControllerRegistry::instance().make(
      *s.world, s.scenario.config, spec_.controller);
  sim::FaultPlan plan = spec_.run.faults;
  plan.seed = fault_seed;
  Session* sp = &s;
  s.stepper = std::make_unique<sim::LinkStepper>(
      *s.world, *s.controller, plan,
      [sp](const core::FaultEvent& ev) { sp->faults.push_back(ev); });
}

void Network::accumulate_interference(double t_s) {
  // The beam-independent geometry of each (serving cell, victim) pair is
  // built once per tick inside the fold; each transmitting interferer
  // then adds one phasor dot per victim. Interferers are queued in slot
  // order, so every victim sums the same addends in the same order as
  // the per-pair interferer_gain reference. Dead slots are skipped before
  // their (released) world is touched. Every session is built from the
  // network's one scenario, so the first live session's array and
  // carrier are every interferer's (the caller folds only with more than
  // one session live).
  std::size_t first = 0;
  while (!sessions_[first]->live) ++first;
  const sim::WorldConfig& config = sessions_[first]->world->config();
  fold_.begin_tick(gnbs_, config.tx_ula, config.spec.carrier_hz,
                   spec_.interference.coupling_loss_db, sessions_.size());
  for (std::size_t v = 0; v < sessions_.size(); ++v) {
    const Session& s = *sessions_[v];
    if (s.live) fold_.set_victim(v, s.global_pos(s.local_time(t_s)));
  }
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    const Session& o = *sessions_[i];
    if (!o.live) continue;
    // Only links currently serving data transmit; a training sweep's
    // SSBs are discounted as protocol overhead, not interference.
    if (!o.controller->link_available(o.local_time(t_s))) continue;
    if (!fold_.reaches_victim(o.serving_cell, i)) continue;
    fold_.add(o.serving_cell, i, o.controller->tx_weights());
  }
  fold_.fold();
}

void Network::drive_state(Session& s, double t_s, double sinr_db_value) {
  s.sm.poll(t_s);
  core::LinkState desired = s.controller->link_state(t_s);
  if (desired == core::LinkState::kUp &&
      sinr_db_value < spec_.run.outage_snr_db) {
    desired = core::LinkState::kUnstable;
  }
  // Walk the unique legal event path toward `desired`; at most three
  // hops (Down -> Acquisition -> Up -> Unstable). The up-dwell
  // hysteresis may legitimately suppress the final error burst.
  for (int hop = 0; hop < 3 && s.sm.state() != desired; ++hop) {
    switch (s.sm.state()) {
      case core::LinkState::kDown:
        s.sm.apply(t_s, core::LinkEvent::kAcquire);
        break;
      case core::LinkState::kAcquisition:
        if (desired == core::LinkState::kDown) {
          s.sm.apply(t_s, core::LinkEvent::kAcquisitionFailure);
        } else {
          s.sm.apply(t_s, core::LinkEvent::kAcquisitionSuccess);
        }
        break;
      case core::LinkState::kUp:
        if (desired == core::LinkState::kUnstable) {
          if (!s.sm.apply(t_s, core::LinkEvent::kErrorBurst)) return;
        } else {
          // Controller fell back to (re)training or tore down.
          s.sm.apply(t_s, core::LinkEvent::kLinkLost);
        }
        break;
      case core::LinkState::kUnstable:
        if (desired == core::LinkState::kUp) {
          s.sm.apply(t_s, core::LinkEvent::kRecovered);
        } else {
          s.sm.apply(t_s, core::LinkEvent::kRecoveryTimeout);
        }
        break;
    }
  }
}

void Network::evaluate_handover(Session& s, double t_s) {
  if (t_s - s.last_handover_s < spec_.handover.min_interval_s) return;
  // Sync-beam RSRP of each cell at the session's position [dB rel. unit
  // gain]. A boresight sync beam matched over N elements yields
  // |a^H w|^2 = N for unit-norm weights; that gain, the position and the
  // carrier are the same for every candidate cell.
  const channel::Vec2 pos = s.global_pos(t_s);
  const double carrier = s.world->config().spec.carrier_hz;
  const double sync_gain_db =
      to_db(static_cast<double>(s.world->config().tx_ula.num_elements));
  const auto rsrp_db = [&](std::size_t cell) {
    const double d = std::max(1.0, norm(pos - gnbs_[cell]));
    return sync_gain_db - channel::propagation_loss_db(d, carrier);
  };
  const double serving = rsrp_db(s.serving_cell);
  std::size_t best_cell = kNoCell;
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < spec_.num_cells; ++c) {
    if (c == s.serving_cell) continue;
    const double rsrp = rsrp_db(c);
    if (rsrp > best) {
      best = rsrp;
      best_cell = c;
    }
  }
  if (best_cell == kNoCell || best < serving + spec_.handover.hysteresis_db) {
    s.ttt_candidate = kNoCell;
    return;
  }
  if (s.ttt_candidate != best_cell) {
    s.ttt_candidate = best_cell;
    s.ttt_since = t_s;
  }
  if (t_s - s.ttt_since >= spec_.handover.time_to_trigger_s) {
    execute_handover(s, t_s, best_cell, serving, best);
  }
}

void Network::execute_handover(Session& s, double t_s, std::size_t to_cell,
                               double rsrp_from_db, double rsrp_to_db) {
  ++s.handovers;
  s.last_handover_s = t_s;
  s.ttt_candidate = kNoCell;
  s.sm.apply(t_s, core::LinkEvent::kLinkLost);
  const std::size_t from_cell = s.serving_cell;
  s.serving_cell = to_cell;

  // Rebuild the cell-local world around the UE's current global position.
  // The factories' trajectories are absolute-time (start + v * t), so the
  // new local start is back-propagated to t = 0.
  const channel::Vec2 origin{static_cast<double>(to_cell) *
                                 spec_.cell_spacing_m,
                             0.0};
  const channel::Vec2 local_now = s.global_pos(t_s) - origin;
  if (is_outdoor(s.scenario)) {
    // The outdoor factory only knows a boresight distance; project.
    s.scenario.link_distance_m =
        std::max(1.0, norm(local_now - s.velocity * t_s));
  } else {
    s.scenario.ue_start = local_now - s.velocity * t_s;
  }
  s.scenario.config.seed = Rng::derive_stream_seed(
      Rng::derive_stream_seed(s.link_seed, kHandoverSeedStream), s.handovers);
  rebuild_link(s, Rng::derive_stream_seed(s.fault_seed, s.handovers));

  core::HandoverEvent ev;
  ev.t_s = t_s;
  ev.link = s.link;
  ev.from_cell = from_cell;
  ev.to_cell = to_cell;
  ev.rsrp_from_db = rsrp_from_db;
  ev.rsrp_to_db = rsrp_to_db;
  handover_events_.push_back(ev);
}

void Network::size_slot_scratch() {
  const std::size_t n = sessions_.size();
  tick_samples_.resize(n);
}

void Network::begin() {
  handover_events_.clear();
  for (auto& s : sessions_) s->tally = {};
  size_slot_scratch();
}

void Network::advance_pass(double t_s) {
  for (auto& sp : sessions_) {
    if (sp->live) sp->stepper->advance(sp->local_time(t_s));
  }
}

void Network::scoring_pass(double t_s) {
  const bool interference_on = spec_.interference.enabled && live_count_ > 1;
  if (interference_on) accumulate_interference(t_s);
  // Every link scored against the TRUE channel with the other links'
  // current beams folded in as interference.
  for (std::size_t slot = 0; slot < sessions_.size(); ++slot) {
    Session& s = *sessions_[slot];
    if (!s.live) continue;
    const double t = s.local_time(t_s);
    const double inr =
        interference_on ? fold_.totals()[slot] / s.world->power_for_snr(0.0)
                        : 0.0;
    const core::LinkSample sample =
        s.stepper->score(t, inr, spec_.run.protocol_overhead);
    tick_samples_[slot] = sample;
    s.tally.add(sample, spec_.run.outage_snr_db);
    drive_state(s, t, sample.snr_db);
  }
}

void Network::handover_pass(double t_s) {
  for (auto& sp : sessions_) {
    if (sp->live) evaluate_handover(*sp, sp->local_time(t_s));
  }
}

void Network::step_tick(double t_s) {
  advance_pass(t_s);
  scoring_pass(t_s);
  if (spec_.handover.enabled && spec_.num_cells > 1) handover_pass(t_s);
}

NetworkResult Network::run() {
  begin();
  const sim::RunConfig& rc = spec_.run;
  const auto num_ticks = static_cast<std::size_t>(rc.duration_s / rc.tick_s);
  for (std::size_t i = 0; i < num_ticks; ++i) {
    step_tick(static_cast<double>(i) * rc.tick_s);
  }
  return finish();
}

NetworkResult Network::finish() {
  const sim::RunConfig& rc = spec_.run;
  NetworkResult result;
  result.links.reserve(live_count_);
  for (auto& sp : sessions_) {
    Session& s = *sp;
    if (!s.live) continue;
    // Close the availability ledger at the nominal end of the run (this
    // may legitimately fire a final deadline transition).
    s.sm.poll(rc.duration_s);
    const double bandwidth = s.world->config().spec.bandwidth_hz;
    LinkReport report;
    report.link = s.link;
    report.serving_cell = s.serving_cell;
    report.summary = s.tally.summary(bandwidth);
    report.handovers = s.handovers;
    report.time_down_s = s.sm.time_in(core::LinkState::kDown);
    report.time_acquisition_s = s.sm.time_in(core::LinkState::kAcquisition);
    report.time_up_s = s.sm.time_in(core::LinkState::kUp);
    report.time_unstable_s = s.sm.time_in(core::LinkState::kUnstable);
    report.final_state = s.sm.state();
    report.faults = s.faults;
    result.links.push_back(std::move(report));
  }
  result.handovers = handover_events_;
  std::stable_sort(result.handovers.begin(), result.handovers.end(),
                   [](const core::HandoverEvent& a,
                      const core::HandoverEvent& b) { return a.t_s < b.t_s; });

  if (result.links.size() == 1) {
    // Single-link collapse: the network IS the link, bit for bit.
    result.network = result.links.front().summary;
  } else {
    core::LinkSummary agg;
    const double n = static_cast<double>(result.links.size());
    for (const LinkReport& r : result.links) {
      agg.reliability += r.summary.reliability / n;
      agg.mean_throughput_bps += r.summary.mean_throughput_bps / n;
      agg.mean_spectral_efficiency += r.summary.mean_spectral_efficiency / n;
      agg.throughput_reliability_product +=
          r.summary.throughput_reliability_product / n;
      agg.num_samples += r.summary.num_samples;
    }
    result.network = agg;
  }
  return result;
}

void register_net_builtins() {
  static const bool once = [] {
    auto& scenarios = sim::ScenarioRegistry::instance();
    if (!scenarios.contains("indoor_crowd")) {
      scenarios.add("indoor_crowd", [](const sim::ScenarioSpec& s) {
        return make_crowd(s, 2, 4);
      });
      scenarios.add("indoor_crowd_dense", [](const sim::ScenarioSpec& s) {
        return make_crowd(s, 5, 8);
      });
    }
    auto& controllers = sim::ControllerRegistry::instance();
    if (!controllers.contains("terragraph")) {
      controllers.add(
          "terragraph",
          [](const sim::LinkWorld& w, const sim::ScenarioConfig& c,
             const sim::ControllerSpec&)
              -> std::unique_ptr<core::BeamController> {
            const array::Ula ula = w.config().tx_ula;
            TerragraphConfig tc;
            tc.outage_power_linear = w.power_for_snr(kOutageSnrDb);
            return std::make_unique<TerragraphController>(
                ula, sim::sector_codebook(ula, c.codebook_size), tc);
          });
    }
    return true;
  }();
  (void)once;
}

}  // namespace mmr::net
