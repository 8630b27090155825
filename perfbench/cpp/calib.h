// Machine-speed calibration.
//
// On a shared VM the same instructions take a different number of CPU
// seconds from one moment to the next: a busy SMT sibling or a frequency
// change slows the vCPU without any steal showing up. On the 4-vCPU VM
// the benchmark was tuned on, identical Engine::run batches took
// 0.10-0.19 s of process CPU within a minute, and a whole workload's rate
// moved by 40% between two runs ten minutes apart. No estimator over raw
// CPU time survives that.
//
// So the benchmark interleaves a fixed reference chunk -- its own code,
// which no change to the program can move -- with the workload, one
// chunk per step (or per few ticks), and reports CALIBRATED CPU time:
// raw process-CPU seconds scaled by kNominalChunkS / (mean CPU time of
// the chunks run alongside them). A calibrated second is the time the
// work would take on a machine where one chunk takes exactly
// kNominalChunkS, i.e. on that VM when it is not contended.
//
// The chunk is timed on its own thread's CPU clock, and only that time
// is taken out of the workload's process-CPU timings. CPU a helper
// thread of the program spends while a chunk runs therefore stays in
// the program's time and does not make the chunk look slower.
#pragma once

#include <cstddef>

namespace perfbench {

class Calibrator {
 public:
  /// CPU time one reference chunk takes on an uncontended machine of the
  /// kind the benchmark was tuned on (a definition, not a measurement).
  static constexpr double kNominalChunkS = 0.5e-3;

  /// Run one reference chunk; returns its thread-CPU duration [s].
  double sample();
  /// Speed factor of the current window (nominal / mean chunk time of the
  /// chunks sampled since the last factor() call); starts a new window.
  /// 1.0 for a window without chunks.
  double factor();

 private:
  std::size_t window_n_ = 0;
  double window_s_ = 0.0;
};

}  // namespace perfbench
