// Experiment runner: drives one controller through one world and scores
// the link at every tick, producing the LinkSample series all figures are
// computed from.
#pragma once

#include <memory>
#include <vector>

#include "core/controller_base.h"
#include "core/events.h"
#include "core/metrics.h"
#include "sim/faults.h"
#include "sim/world.h"

namespace mmr::sim {

class TelemetrySink;

struct RunConfig {
  double duration_s = 1.0;     ///< paper: 1 s experiments
  double tick_s = 2.5e-3;      ///< CSI-RS cadence driving the controller
  double outage_snr_db = 6.0;  ///< decode floor
  /// Fixed protocol overhead discounted from throughput (reference
  /// signals etc.; paper Section 5.2: ~0.5%).
  double protocol_overhead = 0.005;
  /// Fault model applied to the probe/CSI path the controller sees. The
  /// default (all-zero) plan is inert: no injector is constructed and the
  /// run is byte-identical to one without the field.
  FaultPlan faults;

  /// MMR_EXPECTS (std::logic_error): positive finite duration and tick,
  /// finite outage threshold, protocol_overhead in [0, 1), valid faults.
  void validate() const;
};

struct RunResult {
  std::vector<core::LinkSample> samples;
  core::LinkSummary summary;
  /// Injected faults and controller degradations, in emission order.
  /// Empty unless the run's FaultPlan is enabled.
  std::vector<core::FaultEvent> fault_events;
};

/// Fold an interference-to-noise ratio into a serving-link SNR:
/// SINR_dB = SNR_dB - 10 log10(1 + INR). Bitwise identity with the input
/// SNR when inr_linear == 0 (the single-link collapse the byte-identity
/// tests pin), and <= SNR for every INR >= 0.
double sinr_db(double snr_db, double inr_linear);

/// One link's per-tick sequence -- the single implementation behind
/// run_experiment and every net::Network session. The world and the
/// controller are borrowed and must outlive the stepper.
///
/// A live `faults` plan interposes a FaultInjector (seeded from
/// faults.seed) between the world and the controller, and routes both
/// the injected faults and the controller's degradations to `listener`.
/// An inert plan constructs nothing and installs no listener. The
/// destructor detaches the controller's listener, so its captures may
/// die with the stepper.
class LinkStepper {
 public:
  LinkStepper(LinkWorld& world, core::BeamController& controller,
              const FaultPlan& faults, core::FaultListener listener);
  ~LinkStepper();

  LinkStepper(const LinkStepper&) = delete;
  LinkStepper& operator=(const LinkStepper&) = delete;

  /// Move the world to t, tick the injector, then start() the controller
  /// on the first call and step() it on every later one.
  void advance(double t_s);

  /// Score tick t against the TRUE channel under the controller's
  /// current weights, with `inr_linear` folded into the SNR (0 for an
  /// isolated link). Calls tx_weights, then link_available; the
  /// throughput is 0 while the link is unavailable. The sample has a
  /// signal when the true power is positive, and its SNR comes from that
  /// same power (LinkWorld::snr_db_for_power).
  core::LinkSample score(double t_s, double inr_linear,
                         double protocol_overhead) const;

 private:
  LinkWorld& world_;
  core::BeamController& controller_;
  std::unique_ptr<FaultInjector> injector_;
  core::LinkProbeInterface link_;
  bool started_ = false;
};

/// Run `controller` over `world` for the configured duration. The
/// controller is start()ed at t=0 and step()ped every tick; each tick is
/// scored with the TRUE channel under the controller's current weights.
///
/// `config` is validated up front (RunConfig::validate); violations throw
/// std::logic_error per the common/error.h convention.
///
/// When `sink` is non-null it receives on_run_begin, one on_sample per
/// tick, and on_run_end with the summary -- the telemetry never perturbs
/// the result.
///
/// When `config.faults` is enabled, a FaultInjector (seeded from
/// config.faults.seed) is interposed between the world and the
/// controller, and every injected fault / controller degradation is
/// recorded in RunResult::fault_events and streamed to sink->on_fault as
/// it happens.
RunResult run_experiment(LinkWorld& world, core::BeamController& controller,
                         const RunConfig& config = {},
                         TelemetrySink* sink = nullptr);

}  // namespace mmr::sim
