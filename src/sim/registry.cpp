#include "sim/registry.h"

#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "baselines/oracle.h"
#include "common/constants.h"
#include "common/error.h"
#include "core/delay_multibeam.h"

namespace mmr::sim {
namespace {

[[noreturn]] void throw_unknown(const char* kind, const std::string& name,
                                const std::vector<std::string>& registered) {
  std::ostringstream msg;
  msg << "unknown " << kind << " '" << name << "'; registered " << kind
      << "s: ";
  for (std::size_t i = 0; i < registered.size(); ++i) {
    if (i > 0) msg << ", ";
    msg << registered[i];
  }
  throw std::invalid_argument(msg.str());
}

void add_link_blockers(LinkWorld& world, channel::Vec2 link_tx,
                       channel::Vec2 link_ue,
                       const std::vector<BlockerSpec>& blockers) {
  for (const BlockerSpec& b : blockers) {
    world.add_blocker(crossing_blocker(link_tx, link_ue, b.crossing_time_s,
                                       b.speed_mps, b.depth_db));
  }
}

LinkWorld make_indoor(const ScenarioSpec& spec, bool force_sparse) {
  ScenarioConfig config = spec.config;
  if (force_sparse) config.sparse_room = true;
  LinkWorld world = make_indoor_world(config, spec.ue_velocity,
                                      spec.ue_rotation_rate_rad_s,
                                      spec.ue_start);
  add_link_blockers(world, kIndoorGnbPosition, spec.ue_start, spec.blockers);
  return world;
}

// Reflection-poor space (Section 8 / IRS future work): the only surface is
// a distant wooden wall whose reflection arrives too weak for training, so
// the link is effectively single-path until an IRS panel is deployed.
LinkWorld make_indoor_poor(const ScenarioSpec& spec) {
  channel::Environment env(kCarrier28GHz);
  env.add_wall({{{0.0, 0.0}, {10.0, 0.0}}, channel::Material::wood()});
  const channel::Pose tx{kIndoorGnbPosition, 0.0};
  auto traj = std::make_shared<channel::StaticPose>(
      channel::Pose{spec.ue_start, kPi});
  WorldConfig wc;
  wc.spec = {kCarrier28GHz, kBandwidth400MHz, 64};
  wc.budget = phy::LinkBudget::paper_indoor();
  wc.budget.tx_power_dbm = spec.config.tx_power_dbm;
  wc.tx_ula = {spec.config.tx_elements, 0.5};
  LinkWorld world(std::move(env), tx, std::move(traj), wc,
                  Rng(spec.config.seed));
  if (spec.irs_gain_db > 0.0) {
    channel::IrsPanel panel;
    panel.position = spec.irs_position;
    panel.gain_db = spec.irs_gain_db;
    world.add_irs(panel);
  }
  add_link_blockers(world, kIndoorGnbPosition, spec.ue_start, spec.blockers);
  return world;
}

LinkWorld make_outdoor(const ScenarioSpec& spec) {
  LinkWorld world =
      make_outdoor_world(spec.config, spec.link_distance_m, spec.ue_velocity);
  add_link_blockers(world, {0.0, 0.0}, {spec.link_distance_m, 0.0},
                    spec.blockers);
  return world;
}

void register_builtin_scenarios(ScenarioRegistry& reg) {
  reg.add("indoor",
          [](const ScenarioSpec& s) { return make_indoor(s, false); });
  reg.add("indoor_sparse",
          [](const ScenarioSpec& s) { return make_indoor(s, true); });
  reg.add("indoor_poor",
          [](const ScenarioSpec& s) { return make_indoor_poor(s); });
  reg.add("outdoor",
          [](const ScenarioSpec& s) { return make_outdoor(s); });
}

void register_builtin_controllers(ControllerRegistry& reg) {
  using Ptr = std::unique_ptr<core::BeamController>;
  reg.add("mmreliable", [](const LinkWorld& w, const ScenarioConfig& c,
                           const ControllerSpec& s) -> Ptr {
    return make_mmreliable(w, c, s.max_beams);
  });
  // Fig. 17c's ablated controller: default maintenance training (not the
  // scenario factory's widened separation) with the tracking and
  // constructive-combining stages individually toggleable.
  reg.add("mmreliable_ablation",
          [](const LinkWorld& w, const ScenarioConfig& /*c*/,
             const ControllerSpec& s) -> Ptr {
            const array::Ula ula = w.config().tx_ula;
            core::MaintenanceConfig mc;
            mc.max_beams = s.max_beams;
            mc.bandwidth_hz = w.config().spec.bandwidth_hz;
            mc.outage_power_linear = w.power_for_snr(kOutageSnrDb);
            mc.enable_tracking = s.enable_tracking;
            mc.enable_cc_refresh = s.enable_cc_refresh;
            return std::make_unique<core::MmReliableController>(
                ula, sector_codebook(ula), mc);
          });
  reg.add("delay_multibeam", [](const LinkWorld& w, const ScenarioConfig& c,
                                const ControllerSpec& s) -> Ptr {
    const array::Ula ula = w.config().tx_ula;
    core::DelayMultibeamConfig dc;
    dc.carrier_hz = w.config().spec.carrier_hz;
    dc.bandwidth_hz = w.config().spec.bandwidth_hz;
    dc.max_beams = s.max_beams;
    return std::make_unique<core::DelayMultibeamController>(
        ula, sector_codebook(ula, c.codebook_size), dc);
  });
  reg.add("reactive", [](const LinkWorld& w, const ScenarioConfig& c,
                         const ControllerSpec& /*s*/) -> Ptr {
    return make_reactive(w, c);
  });
  // The paper's frozen single-beam comparison (Fig. 16): trains once and
  // never reacts (outage threshold 0 disables retraining).
  reg.add("single_frozen", [](const LinkWorld& w, const ScenarioConfig& /*c*/,
                              const ControllerSpec& /*s*/) -> Ptr {
    const array::Ula ula = w.config().tx_ula;
    baselines::ReactiveConfig rc;
    rc.outage_power_linear = 0.0;
    return std::make_unique<baselines::ReactiveSingleBeam>(
        ula, sector_codebook(ula), rc);
  });
  reg.add("beamspy", [](const LinkWorld& w, const ScenarioConfig& c,
                        const ControllerSpec& /*s*/) -> Ptr {
    return make_beamspy(w, c);
  });
  reg.add("widebeam", [](const LinkWorld& w, const ScenarioConfig& c,
                         const ControllerSpec& /*s*/) -> Ptr {
    return make_widebeam(w, c);
  });
  reg.add("oracle", [](const LinkWorld& w, const ScenarioConfig& /*c*/,
                       const ControllerSpec& /*s*/) -> Ptr {
    return std::make_unique<baselines::Oracle>(
        [&w] { return w.true_per_antenna_channel(); });
  });
}

}  // namespace

template <>
ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry* reg = [] {
    auto* r = new ScenarioRegistry("scenario");
    register_builtin_scenarios(*r);
    return r;
  }();
  return *reg;
}

template <>
ControllerRegistry& ControllerRegistry::instance() {
  static ControllerRegistry* reg = [] {
    auto* r = new ControllerRegistry("controller");
    register_builtin_controllers(*r);
    return r;
  }();
  return *reg;
}

template <typename Product, typename Spec, typename... Context>
void Registry<Product, Spec, Context...>::add(const std::string& name,
                                              Factory factory) {
  MMR_EXPECTS(!name.empty());
  MMR_EXPECTS(factory != nullptr);
  factories_[name] = std::move(factory);
}

template <typename Product, typename Spec, typename... Context>
bool Registry<Product, Spec, Context...>::contains(
    const std::string& name) const {
  return factories_.count(name) != 0;
}

template <typename Product, typename Spec, typename... Context>
std::vector<std::string> Registry<Product, Spec, Context...>::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

template <typename Product, typename Spec, typename... Context>
auto Registry<Product, Spec, Context...>::at(const std::string& name) const
    -> const Factory& {
  const auto it = factories_.find(name);
  if (it == factories_.end()) throw_unknown(kind_, name, names());
  return it->second;
}

template class Registry<LinkWorld, ScenarioSpec>;
template class Registry<std::unique_ptr<core::BeamController>, ControllerSpec,
                        LinkWorld, ScenarioConfig>;

}  // namespace mmr::sim
