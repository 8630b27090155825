#include "decorators.h"

#include <utility>

#include "clock.h"
#include "sim/engine.h"

namespace perfbench {

using mmr::core::BeamController;
using mmr::core::LinkProbeInterface;
using mmr::sim::ControllerRegistry;
using mmr::sim::ScenarioRegistry;

std::string decorated(std::string_view name) {
  return std::string(kDecoratedPrefix) + std::string(name);
}

std::string controller_module(std::string_view scheme) {
  if (scheme == "terragraph") return "net";
  if (scheme == "mmreliable" || scheme == "mmreliable_ablation" ||
      scheme == "delay_multibeam") {
    return "core";
  }
  return "baselines";
}

Instrumentation& instrumentation() {
  static Instrumentation inst;
  return inst;
}

TimedController::TimedController(std::unique_ptr<BeamController> inner,
                                 Tracer& tracer, SpanId start_span,
                                 SpanId step_span)
    : inner_(std::move(inner)),
      tracer_(tracer),
      start_span_(start_span),
      step_span_(step_span),
      csi_span_(tracer.intern("phy.csi")),
      cir_span_(tracer.intern("phy.cir")) {
  probe_.csi = [this](const mmr::CVec& w) {
    Span span(tracer_, csi_span_);
    return link_->csi(w);
  };
  probe_.cir = [this](const mmr::CVec& w, std::size_t taps) {
    Span span(tracer_, cir_span_);
    return link_->cir(w, taps);
  };
}

void TimedController::start(double t_s, const LinkProbeInterface& link) {
  link_ = &link;
  Span span(tracer_, start_span_);
  inner_->start(t_s, probe_);
}

void TimedController::step(double t_s, const LinkProbeInterface& link) {
  link_ = &link;
  Span span(tracer_, step_span_);
  inner_->step(t_s, probe_);
}

const mmr::CVec& TimedController::tx_weights() const {
  tracer_.point(EventKind::kTxWeights, this);
  return inner_->tx_weights();
}

bool TimedController::link_available(double t_s) const {
  tracer_.point(EventKind::kLinkAvailable, this);
  return inner_->link_available(t_s);
}

mmr::core::LinkState TimedController::link_state(double t_s) const {
  const mmr::core::LinkState state = inner_->link_state(t_s);
  tracer_.point(EventKind::kLinkState, this);
  return state;
}

void SnapshotTap::on_snapshot(const mmr::sim::StreamSnapshot& snapshot) {
  snapshots_.push_back(snapshot);
  if (Tracer* tracer = instrumentation().tracer) {
    Span span(*tracer, tracer->intern("sim.telemetry.on_snapshot"));
    next_.on_snapshot(snapshot);
  } else {
    next_.on_snapshot(snapshot);
  }
}

void register_decorators() {
  ScenarioRegistry& scenarios = ScenarioRegistry::instance();
  for (const std::string& name : scenarios.names()) {
    if (name.rfind(kDecoratedPrefix, 0) == 0) continue;
    scenarios.add(decorated(name), [name](const mmr::sim::ScenarioSpec& spec) {
      mmr::sim::ScenarioSpec plain = spec;
      plain.name = name;
      Instrumentation& inst = instrumentation();
      if (inst.trial_marks != nullptr) {
        TrialMark mark;
        mark.entry_s = process_cpu_s();
        mark.chunk_s = inst.calibrator->sample();
        inst.trial_marks->push_back(mark);
      }
      if (inst.tracer == nullptr) {
        return ScenarioRegistry::instance().make(plain);
      }
      Span span(*inst.tracer, inst.tracer->intern("sim.world_build"));
      return ScenarioRegistry::instance().make(plain);
    });
  }
  ControllerRegistry& controllers = ControllerRegistry::instance();
  for (const std::string& name : controllers.names()) {
    if (name.rfind(kDecoratedPrefix, 0) == 0) continue;
    const std::string prefix = controller_module(name) + "." + name;
    controllers.add(
        decorated(name),
        [name, prefix](const mmr::sim::LinkWorld& world,
                       const mmr::sim::ScenarioConfig& config,
                       const mmr::sim::ControllerSpec& spec)
            -> std::unique_ptr<BeamController> {
          mmr::sim::ControllerSpec plain = spec;
          plain.name = name;
          Tracer* tracer = instrumentation().tracer;
          if (tracer == nullptr) {
            return ControllerRegistry::instance().make(world, config, plain);
          }
          Span span(*tracer, tracer->intern("sim.controller_build"));
          const SpanId start = tracer->intern(prefix + ".start");
          const SpanId step = tracer->intern(prefix + ".step");
          tracer->mark_controller(start);
          tracer->mark_controller(step);
          return std::make_unique<TimedController>(
              ControllerRegistry::instance().make(world, config, plain),
              *tracer, start, step);
        });
  }
}

}  // namespace perfbench
