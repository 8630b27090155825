// Decorating factories: how the benchmark reaches the layers inside the
// public entry points it drives (Engine::run, StreamingService,
// net::Network) without touching the program.
//
// register_decorators() adds "perfbench.<name>" to the process-wide
// ScenarioRegistry / ControllerRegistry for every built-in name. Each
// decorated factory forwards to the plain factory of <name>, so a
// workload that names the decorated entries computes exactly what it
// would with the plain ones. What the decorators add depends on the
// process-wide Instrumentation:
//   * untraced: the scenario factory can stamp the process CPU clock and
//     run a calibration chunk (on one worker, consecutive entries mark
//     trial boundaries of an Engine::run); controllers are returned
//     undecorated;
//   * traced: world and controller builds become spans, and controllers
//     come wrapped in a TimedController that times start/step and hands
//     the inner controller a probe wrapper timing each csi/cir call.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "calib.h"
#include "core/controller_base.h"
#include "sim/telemetry.h"
#include "trace.h"

namespace perfbench {

inline constexpr std::string_view kDecoratedPrefix = "perfbench.";

/// "perfbench.<name>".
std::string decorated(std::string_view name);

/// Module that implements a controller scheme ("core", "baselines" or
/// "net"), used to name its spans "<module>.<scheme>.start|step".
std::string controller_module(std::string_view scheme);

/// Where one trial of an Engine::run began, seen from the decorated world
/// factory: the process CPU time at entry, and the thread-CPU time of the
/// calibration chunk run there (not part of the trial's time).
struct TrialMark {
  double entry_s = 0.0;
  double chunk_s = 0.0;
};

struct Instrumentation {
  /// Traced pass: spans go here. Null in untraced runs.
  Tracer* tracer = nullptr;
  /// Untraced runs: when set, every decorated world build runs one
  /// calibration chunk on `calibrator` and appends a TrialMark.
  std::vector<TrialMark>* trial_marks = nullptr;
  Calibrator* calibrator = nullptr;
};

/// The process-wide switches the decorated factories read.
Instrumentation& instrumentation();

/// Register "perfbench.<name>" for every scenario and controller
/// registered so far. Idempotent.
void register_decorators();

/// BeamController decorator for the traced pass. Forwards every call to
/// the inner controller; start/step become spans, and the inner
/// controller probes through a wrapper whose csi/cir calls are spans.
/// tx_weights/link_available/link_state log point events for the network
/// interval analysis. The results are those of the inner controller, bit
/// for bit.
class TimedController final : public mmr::core::BeamController {
 public:
  TimedController(std::unique_ptr<mmr::core::BeamController> inner,
                  Tracer& tracer, SpanId start_span, SpanId step_span);
  TimedController(const TimedController&) = delete;
  TimedController& operator=(const TimedController&) = delete;

  void start(double t_s, const mmr::core::LinkProbeInterface& link) override;
  void step(double t_s, const mmr::core::LinkProbeInterface& link) override;
  const mmr::CVec& tx_weights() const override;
  bool link_available(double t_s) const override;
  const char* name() const override { return inner_->name(); }
  mmr::core::LinkState link_state(double t_s) const override;
  void set_fault_listener(mmr::core::FaultListener listener) override {
    inner_->set_fault_listener(std::move(listener));
  }

 private:
  std::unique_ptr<mmr::core::BeamController> inner_;
  Tracer& tracer_;
  SpanId start_span_;
  SpanId step_span_;
  SpanId csi_span_;
  SpanId cir_span_;
  /// The interface of the current start/step call; the probe wrapper
  /// forwards to it. The trial loop and net::Network keep it alive
  /// across the run.
  const mmr::core::LinkProbeInterface* link_ = nullptr;
  mmr::core::LinkProbeInterface probe_;
};

/// Telemetry tap in front of the service's real sink: keeps every
/// snapshot for the output checks and, in the traced pass, times the
/// real sink's on_snapshot as a span.
class SnapshotTap final : public mmr::sim::TelemetrySink {
 public:
  explicit SnapshotTap(mmr::sim::TelemetrySink& next) : next_(next) {}

  void on_snapshot(const mmr::sim::StreamSnapshot& snapshot) override;
  const std::vector<mmr::sim::StreamSnapshot>& snapshots() const {
    return snapshots_;
  }

 private:
  mmr::sim::TelemetrySink& next_;
  std::vector<mmr::sim::StreamSnapshot> snapshots_;
};

}  // namespace perfbench
