// Scenario and controller registries: the declarative names a campaign
// builds its links from.
//
//   * ScenarioRegistry maps a name ("indoor", "indoor_sparse", "outdoor",
//     "indoor_poor") + a ScenarioSpec to a LinkWorld;
//   * ControllerRegistry maps a name ("mmreliable", "delay_multibeam",
//     "reactive", "single_frozen", "beamspy", "widebeam", "oracle",
//     "mmreliable_ablation") + a ControllerSpec to a BeamController.
//
// They sit in the link layer, so the network builds its sessions from the
// names the engine validates (net::register_net_builtins adds its own).
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/controller_base.h"
#include "sim/scenario.h"
#include "sim/world.h"

namespace mmr::sim {

/// A walking blocker crossing the scenario's link line.
struct BlockerSpec {
  double crossing_time_s = 0.5;
  double speed_mps = 1.0;
  double depth_db = 26.0;
};

/// Declarative scenario: a registered name plus every knob the built-in
/// world factories expose. Fields a given scenario does not use are
/// ignored (e.g. link_distance_m indoors, ue_rotation outdoors).
struct ScenarioSpec {
  std::string name = "indoor";
  ScenarioConfig config;

  // Indoor knobs (make_indoor_world).
  channel::Vec2 ue_velocity{0.0, 0.0};
  double ue_rotation_rate_rad_s = 0.0;
  channel::Vec2 ue_start{7.0, 6.2};

  // Outdoor knobs (make_outdoor_world).
  double link_distance_m = 40.0;

  // indoor_poor knobs: a reflection-poor wooden room; an IRS panel is
  // deployed when irs_gain_db > 0 (Section 8 future work).
  double irs_gain_db = 0.0;
  channel::Vec2 irs_position{3.75, 5.0};

  /// Crossing blockers added after world construction, in order.
  std::vector<BlockerSpec> blockers;
};

/// Declarative controller: a registered name plus the shared knobs the
/// built-in factories consume.
struct ControllerSpec {
  std::string name = "mmreliable";
  std::size_t max_beams = 2;
  // mmreliable_ablation only (Fig. 17c): stage toggles.
  bool enable_tracking = true;
  bool enable_cc_refresh = true;
};

/// String-keyed factory registry: make() builds a Product from the
/// factory registered under spec.name, passing it the Context arguments
/// and the spec. Unknown names throw std::invalid_argument whose message
/// lists every registered name.
template <typename Product, typename Spec, typename... Context>
class Registry {
 public:
  using Factory = std::function<Product(const Context&..., const Spec&)>;

  /// Process-wide registry, pre-populated with the built-in factories.
  static Registry& instance();

  void add(const std::string& name, Factory factory);
  bool contains(const std::string& name) const;
  /// Registered names in lexicographic order.
  std::vector<std::string> names() const;
  /// The factory registered under `name` (throws if there is none).
  const Factory& at(const std::string& name) const;
  Product make(const Context&... context, const Spec& spec) const {
    return at(spec.name)(context..., spec);
  }

 private:
  /// What the registry builds ("scenario", "controller"): the error text.
  explicit Registry(const char* kind) : kind_(kind) {}

  const char* kind_;
  std::map<std::string, Factory> factories_;
};

/// Scenario name -> LinkWorld.
using ScenarioRegistry = Registry<LinkWorld, ScenarioSpec>;
/// Controller name -> BeamController. The world reference passed to make()
/// must outlive the returned controller (factories derive outage
/// thresholds from it, and the oracle holds a reference).
using ControllerRegistry =
    Registry<std::unique_ptr<core::BeamController>, ControllerSpec,
             LinkWorld, ScenarioConfig>;

template <>
ScenarioRegistry& ScenarioRegistry::instance();
template <>
ControllerRegistry& ControllerRegistry::instance();

}  // namespace mmr::sim
