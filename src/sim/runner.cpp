#include "sim/runner.h"

#include <cmath>
#include <utility>

#include "common/error.h"
#include "common/units.h"
#include "phy/mcs.h"
#include "sim/telemetry.h"

namespace mmr::sim {

void RunConfig::validate() const {
  MMR_EXPECTS(duration_s > 0.0 && std::isfinite(duration_s));
  MMR_EXPECTS(tick_s > 0.0 && std::isfinite(tick_s));
  MMR_EXPECTS(std::isfinite(outage_snr_db));
  MMR_EXPECTS(protocol_overhead >= 0.0 && protocol_overhead < 1.0);
  faults.validate();
}

double sinr_db(double snr_db, double inr_linear) {
  MMR_EXPECTS(inr_linear >= 0.0);
  // to_db(1.0) == 0.0 exactly, so a zero-INR victim keeps its SNR bits.
  return snr_db - to_db(1.0 + inr_linear);
}

LinkStepper::LinkStepper(LinkWorld& world, core::BeamController& controller,
                         const FaultPlan& faults, core::FaultListener listener)
    : world_(world), controller_(controller), link_(world.probe_interface()) {
  // The injector is only constructed when the plan is live, so a disabled
  // plan leaves the tick (and the output bytes) untouched.
  if (!faults.enabled()) return;
  injector_ = std::make_unique<FaultInjector>(faults, link_);
  link_ = injector_->interface();
  injector_->set_listener(listener);
  controller_.set_fault_listener(std::move(listener));
}

LinkStepper::~LinkStepper() {
  // The listener's captures may die with this stepper; the controller
  // may outlive it.
  if (injector_ != nullptr) controller_.set_fault_listener(nullptr);
}

void LinkStepper::advance(double t_s) {
  world_.set_time(t_s);
  if (injector_ != nullptr) injector_->on_tick(t_s);
  if (started_) {
    controller_.step(t_s, link_);
  } else {
    controller_.start(t_s, link_);
    started_ = true;
  }
}

core::LinkSample LinkStepper::score(double t_s, double inr_linear,
                                    double protocol_overhead) const {
  core::LinkSample sample;
  sample.t_s = t_s;
  sample.snr_db =
      sinr_db(world_.true_snr_db(controller_.tx_weights()), inr_linear);
  sample.available = controller_.link_available(t_s);
  sample.throughput_bps =
      sample.available
          ? phy::McsTable::nr().throughput_bps(
                sample.snr_db, world_.config().spec.bandwidth_hz,
                protocol_overhead)
          : 0.0;
  return sample;
}

RunResult run_experiment(LinkWorld& world, core::BeamController& controller,
                         const RunConfig& config, TelemetrySink* sink) {
  config.validate();
  if (sink != nullptr) sink->on_run_begin(config);

  RunResult result;
  LinkStepper stepper(world, controller, config.faults,
                      [&result, sink](const core::FaultEvent& ev) {
                        result.fault_events.push_back(ev);
                        if (sink != nullptr) sink->on_fault(ev);
                      });
  const auto num_ticks =
      static_cast<std::size_t>(config.duration_s / config.tick_s);
  result.samples.reserve(num_ticks);
  for (std::size_t i = 0; i < num_ticks; ++i) {
    const double t = static_cast<double>(i) * config.tick_s;
    stepper.advance(t);
    result.samples.push_back(stepper.score(t, 0.0, config.protocol_overhead));
    if (sink != nullptr) sink->on_sample(result.samples.back());
  }
  result.summary = core::summarize_link(result.samples, config.outage_snr_db,
                                        world.config().spec.bandwidth_hz);
  if (sink != nullptr) sink->on_run_end(result.summary);
  return result;
}

}  // namespace mmr::sim
