// The workloads, what they take and return, and the helpers they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Process-CPU budget of the timed phase [s].
  double seconds = 20.0;
  bool trace = false;
  /// Scratch directory inside the checkout (journals, trace files).
  std::string work_dir;
};

struct WorkloadOutput {
  /// The gated end-to-end metrics every workload reports.
  std::vector<Metric> end_to_end;
  /// End-to-end metrics defined only on this workload (printed in the
  /// report, kept out of the result line).
  std::vector<Metric> workload_end_to_end;
  /// Traced pass only: the per-layer metrics every workload reports ...
  std::vector<Metric> per_layer;
  /// ... and the ones only this workload's layers define.
  std::vector<Metric> workload_per_layer;
  /// Free-form context lines for the report (sample counts etc.).
  std::vector<std::string> notes;
};

/// Timed steps needed before p99 has ten samples beyond it.
inline constexpr std::size_t kMinTimedSteps = 1000;

/// What the untraced timed phase measured. Workloads record the
/// process-CPU duration of every step (trial, epoch or tick), less the
/// thread-CPU time of any calibration chunk run inside it, and close each
/// segment -- a journaled campaign, a snapshot window, a network trial --
/// with its link-ticks, raw CPU seconds and calibration factor
/// (calib.h).
struct TimedPhase {
  /// Step storage is reserved up front (untouched pages cost no RSS):
  /// growing it by doubling would put the benchmark's own reallocation
  /// peaks into peak_rss_mb.
  static constexpr std::size_t kStepCapacity = std::size_t{1} << 20;
  TimedPhase() { step_s.reserve(kStepCapacity); }

  /// Steps of closed segments in calibrated CPU seconds, then the raw
  /// steps of the open segment.
  std::vector<double> step_s;
  std::vector<double> segment_link_ticks;
  std::vector<double> segment_raw_cpu_s;
  std::vector<double> segment_factor;

  void add_step(double raw_s) { step_s.push_back(raw_s); }
  /// Close a segment; scales the steps added since the last one by
  /// `factor`.
  void add_segment(double link_ticks, double raw_cpu_s, double factor);
  double link_ticks() const;
  /// Raw process-CPU seconds of the closed segments (the run's budget).
  double raw_cpu_s() const;
  double calibrated_cpu_s() const;

 private:
  std::size_t closed_steps_ = 0;
};

/// setup_s, link_ticks_per_s, step_p50_ms, step_p99_ms and peak_rss_mb,
/// plus the sample counts as notes. Times are calibrated CPU time, each
/// step scaled by its segment's factor; every step must belong to a
/// closed segment. A p99 without ten samples beyond it fails a check.
void add_common_end_to_end(WorkloadOutput& out, Checks& checks,
                           const std::vector<double>& setup_s,
                           const TimedPhase& timed);

/// Per-layer metrics every workload defines, computed from the traced
/// steps [first, last): controller self times, probe cost and rate,
/// channel and scoring, builds, step self time; plus per-scheme splits
/// as workload metrics. Also checks that every traced step's span self
/// times account for the step.
void add_layer_metrics(WorkloadOutput& out, Checks& checks,
                       const Tracer& tracer, std::size_t first,
                       std::size_t last);

/// Pattern-cache hit ratio over one phase; -1 when the phase made no
/// lookups.
struct CachePhase {
  void start();
  void stop();
  double hit_ratio() const;
  std::uint64_t hits = 0, misses = 0;
};

/// The workloads. Each runs in its own process on one thread: set-up, the
/// untraced timed phase and its output checks, then -- with
/// Options::trace -- the traced pass, which records into `tracer`.
WorkloadOutput run_fig18_mobile(const Options& opt, Checks& checks,
                                Tracer& tracer);
WorkloadOutput run_stream_churn(const Options& opt, Checks& checks,
                                Tracer& tracer);
WorkloadOutput run_net_handover(const Options& opt, Checks& checks,
                                Tracer& tracer);

/// Bitwise equality of doubles (NaN payloads and signed zeros included).
bool same_bits(double a, double b);

/// Fresh process-wide pattern cache before each set-up repetition, so
/// every repetition pays the cold-cache cost the first one did.
void clear_caches();

}  // namespace perfbench
