// stream_churn: a StreamingService with 1000 initial reactive sessions
// over 8 shards, inline on one thread, under Poisson churn that holds the
// population (2000 arrivals/s, 0.5 s mean lifetime), interference off,
// and a snapshot every 0.1 s into an in-memory JsonLinesSink.
//
// Set-up is construction + begin() + the first snapshot window (begin()
// alone is a few ms and too variable to stand as set-up). The timed phase
// steps epochs until the CPU budget is spent; its first kScoredWindows
// windows are the scored prefix whose closing snapshot the traced pass
// must reproduce.
#include <cmath>
#include <memory>
#include <sstream>

#include "clock.h"
#include "common/rng.h"
#include "decorators.h"
#include "procfs.h"
#include "sim/streaming.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace mmr;

constexpr std::size_t kSessions = 1000;
constexpr std::size_t kShards = 8;
constexpr double kTickS = 2.5e-3;
constexpr double kSnapshotEveryS = 0.1;
constexpr std::uint64_t kEpochsPerWindow = 40;  // kSnapshotEveryS / kTickS
constexpr std::size_t kScoredWindows = 5;
constexpr std::size_t kSetupReps = 3;

sim::StreamingSpec service_spec(std::uint64_t seed) {
  sim::StreamingSpec spec;
  spec.name = "perfbench_stream_churn";
  spec.sessions = kSessions;
  spec.shards = kShards;
  spec.jobs = 1;
  // The service rejects seed 0; fold the run seed into a stream.
  spec.seed = Rng::derive_stream_seed(seed, 0x57C);
  spec.duration_s = 1.0;
  spec.snapshot_every_s = kSnapshotEveryS;
  spec.churn.arrival_rate_per_s = 2000.0;
  spec.churn.mean_lifetime_s = 0.5;
  spec.network.interference.enabled = false;
  spec.network.run.tick_s = kTickS;
  spec.network.run.duration_s = 1.0;
  spec.network.link_scenario.name = decorated("indoor_sparse");
  spec.network.link_scenario.config.tx_power_dbm = 14.0;
  spec.network.link_scenario.config.codebook_size = 16;
  spec.network.link_scenario.ue_velocity = {1.0, 0.0};
  spec.network.controller.name = decorated("reactive");
  return spec;
}

/// The service with its sink chain (tap -> in-memory JSON lines). Members
/// are destroyed service first, then the sinks it writes to.
struct Service {
  explicit Service(const sim::StreamingSpec& spec) : service(spec, &tap) {}
  std::ostringstream json;
  sim::JsonLinesSink sink{json, false, 0};
  SnapshotTap tap{sink};
  sim::StreamingService service;
};

/// Every simulated field (all but the wall-clock rate).
bool same_snapshot(const sim::StreamSnapshot& a, const sim::StreamSnapshot& b) {
  return same_bits(a.t_s, b.t_s) && a.index == b.index &&
         a.live_sessions == b.live_sessions &&
         a.total_joined == b.total_joined && a.total_left == b.total_left &&
         a.window_ticks == b.window_ticks && a.total_ticks == b.total_ticks &&
         same_bits(a.window_availability, b.window_availability) &&
         same_bits(a.availability, b.availability) &&
         a.outage_ticks == b.outage_ticks &&
         same_bits(a.snr_mean_db, b.snr_mean_db) &&
         same_bits(a.snr_stddev_db, b.snr_stddev_db) &&
         same_bits(a.snr_p50_db, b.snr_p50_db) &&
         same_bits(a.snr_p99_db, b.snr_p99_db) &&
         same_bits(a.snr_p999_db, b.snr_p999_db) &&
         same_bits(a.tput_mean_bps, b.tput_mean_bps) &&
         same_bits(a.tput_stddev_bps, b.tput_stddev_bps) &&
         same_bits(a.tput_p50_bps, b.tput_p50_bps) &&
         same_bits(a.tput_p99_bps, b.tput_p99_bps) &&
         same_bits(a.tput_p999_bps, b.tput_p999_bps) && a.dropped == b.dropped;
}

bool snapshot_in_range(const sim::StreamSnapshot& s) {
  const double fields[] = {s.t_s,           s.window_availability,
                           s.availability,  s.snr_mean_db,
                           s.snr_stddev_db, s.snr_p50_db,
                           s.snr_p99_db,    s.snr_p999_db,
                           s.tput_mean_bps, s.tput_stddev_bps,
                           s.tput_p50_bps,  s.tput_p99_bps,
                           s.tput_p999_bps};
  for (double f : fields) {
    if (!std::isfinite(f)) return false;
  }
  return s.availability >= 0.0 && s.availability <= 1.0 &&
         s.window_availability >= 0.0 && s.window_availability <= 1.0 &&
         s.outage_ticks <= s.total_ticks && s.window_ticks <= s.total_ticks;
}

std::size_t count_lines(const std::string& text) {
  std::size_t n = 0;
  for (char c : text) n += c == '\n' ? 1 : 0;
  return n;
}

}  // namespace

WorkloadOutput run_stream_churn(const Options& opt, Checks& checks,
                                Tracer& tracer) {
  WorkloadOutput out;
  const sim::StreamingSpec spec = service_spec(opt.seed);

  // Set-up, repeated from a cold pattern cache; the last repetition's
  // service carries on into the timed phase.
  // A calibration chunk runs after construction and after every epoch
  // (excluded from the timings).
  Calibrator calib;
  std::vector<double> setup_s;
  std::unique_ptr<Service> svc;
  std::uint64_t scored_ticks = 0;  // session-ticks the service scored
  double rss_per_session_kb = 0.0;
  CachePhase setup_cache;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    const double t0 = process_cpu_s();
    clear_caches();
    setup_cache.start();
    const long rss0 = vm_rss_kb();
    svc = std::make_unique<Service>(spec);
    svc->service.begin();
    const long rss1 = vm_rss_kb();
    double chunks = calib.sample();
    scored_ticks = 0;
    for (std::uint64_t e = 0; e < kEpochsPerWindow; ++e) {
      svc->service.step_epoch();
      scored_ticks += svc->service.live_sessions();
      chunks += calib.sample();
    }
    setup_s.push_back((process_cpu_s() - t0 - chunks) * calib.factor());
    setup_cache.stop();
    if (rep == 0) {
      rss_per_session_kb =
          static_cast<double>(rss1 - rss0) / static_cast<double>(kSessions);
    }
  }

  // Timed phase: epochs until the CPU budget is spent; every snapshot
  // window is one segment.
  TimedPhase timed;
  double prefix_cpu = 0.0;
  std::uint64_t timed_ticks = 0;
  sim::StreamSnapshot prefix_snapshot;
  const std::size_t prefix_epochs = kScoredWindows * kEpochsPerWindow;
  double window_cpu = 0.0;
  std::uint64_t window_ticks = 0;
  CachePhase timed_cache;
  timed_cache.start();
  double epoch_start = process_cpu_s();
  for (std::size_t epochs = 1;; ++epochs) {
    svc->service.step_epoch();
    const std::size_t live = svc->service.live_sessions();
    const double chunk = calib.sample();
    const double now = process_cpu_s();
    timed.add_step(now - epoch_start - chunk);
    window_cpu += now - epoch_start - chunk;
    epoch_start = now;
    timed_ticks += live;
    scored_ticks += live;
    window_ticks += live;
    if (epochs % kEpochsPerWindow == 0) {
      timed.add_segment(static_cast<double>(window_ticks), window_cpu,
                        calib.factor());
      window_cpu = 0.0;
      window_ticks = 0;
    }
    if (epochs == prefix_epochs) {
      prefix_cpu = timed.calibrated_cpu_s();
      prefix_snapshot = svc->tap.snapshots().back();
    }
    if (epochs % kEpochsPerWindow == 0 && epochs >= prefix_epochs &&
        timed.raw_cpu_s() >= opt.seconds && epochs >= kMinTimedSteps) {
      break;
    }
  }
  const sim::StreamingResult result = svc->service.finish();
  timed_cache.stop();

  const sim::StreamSnapshot& last = result.final_snapshot;
  checks.expect(last.total_ticks == scored_ticks,
                "link-tick numerator equals the final snapshot's total_ticks");
  checks.expect(prefix_snapshot.index == kScoredWindows,
                "scored prefix closes on its snapshot boundary");
  for (const sim::StreamSnapshot& s : svc->tap.snapshots()) {
    checks.expect(snapshot_in_range(s), "snapshot fields finite and in range");
  }
  checks.expect(result.total_joined - result.total_left == result.live_sessions,
                "joins minus leaves equals live sessions");
  checks.expect(result.snapshots_dropped == 0 &&
                    result.snapshots_emitted == svc->tap.snapshots().size(),
                "every snapshot delivered");
  checks.expect(count_lines(svc->json.str()) == result.snapshots_emitted,
                "one JSON line per snapshot");
  checks.expect(prefix_snapshot.availability > 0.0,
                "sessions were usable in the scored prefix");
  const sim::StreamSnapshot setup_snapshot = svc->tap.snapshots().front();

  add_common_end_to_end(out, checks, setup_s, timed);
  out.workload_end_to_end.push_back(
      {"rss_per_session_kb", rss_per_session_kb, "kB"});
  out.workload_end_to_end.push_back(
      {"availability", prefix_snapshot.availability, "fraction"});
  {
    std::ostringstream note;
    note << "timed " << timed.step_s.size() << " epochs, " << timed_ticks
         << " session-ticks; availability from the scored prefix's closing "
            "snapshot ("
         << prefix_snapshot.total_ticks << " session-ticks, t = "
         << prefix_snapshot.t_s << " s)";
    out.notes.push_back(note.str());
  }
  svc.reset();
  if (!opt.trace) return out;

  // Traced pass: a fresh service through set-up and the scored prefix.
  NetworkIntervalIds ids;
  ids.set_time = tracer.intern("channel.set_time");
  ids.score = tracer.intern("sim.score");
  ids.fold = tracer.intern("net.fold");
  ids.handover = tracer.intern("net.handover");
  const SpanId begin_span = tracer.intern("stream.begin");
  const SpanId snapshot_epoch = tracer.intern("sim.stream.snapshot_epoch");
  const SpanId plain_epoch = tracer.intern("sim.stream.plain_epoch");
  const SpanId finish_span = tracer.intern("stream.finish");
  instrumentation().tracer = &tracer;
  tracer.set_event_log(true);
  tracer.begin_step(begin_span, 0);
  svc = std::make_unique<Service>(spec);
  svc->service.begin();
  tracer.end_step();
  std::size_t first = 0;
  double t_prefix = 0.0, chunks = 0.0;
  for (std::size_t e = 0; e < kEpochsPerWindow + prefix_epochs; ++e) {
    if (e == kEpochsPerWindow) {
      first = tracer.steps().size();
      calib.factor();
      chunks = 0.0;
      t_prefix = process_cpu_s();
    }
    const bool snapshot = (e + 1) % kEpochsPerWindow == 0;
    tracer.begin_step(snapshot ? snapshot_epoch : plain_epoch,
                      static_cast<std::int64_t>(e));
    svc->service.step_epoch();
    const std::int64_t end = mono_ns();
    const NetworkIntervalCounts c =
        attribute_network_intervals(tracer, ids, /*network_tick=*/false, end);
    tracer.end_step(end);
    checks.expect(c.scored == svc->service.live_sessions(),
                  "interval analysis finds every live session's scoring in "
                  "an epoch");
    chunks += calib.sample();
  }
  const double traced_prefix_cpu =
      (process_cpu_s() - t_prefix - chunks) * calib.factor();
  const std::size_t last_epoch = tracer.steps().size();
  tracer.begin_step(finish_span, 0);
  const sim::StreamingResult traced = svc->service.finish();
  tracer.end_step();
  tracer.set_event_log(false);
  instrumentation().tracer = nullptr;
  checks.expect(same_snapshot(traced.final_snapshot, prefix_snapshot),
                "traced pass reproduces the prefix's closing snapshot bit for "
                "bit");
  svc.reset();

  add_layer_metrics(out, checks, tracer, first, last_epoch);
  const SpanTotals totals = tracer.totals(first, last_epoch);
  const SpanAgg snap = totals.of(snapshot_epoch);
  const SpanAgg plain = totals.of(plain_epoch);
  const SpanAgg tap = totals.of(tracer.intern("sim.telemetry.on_snapshot"));
  const double epochs = static_cast<double>(prefix_epochs);
  auto mean = [](const SpanAgg& a, double unit) {
    return a.count > 0 ? static_cast<double>(a.total_ns) / a.count / unit : 0.0;
  };
  // The service's own share of an epoch: step_epoch minus the controller,
  // probe, channel and build spans below it (churn bookkeeping, session
  // scoring, accumulation and the snapshot fold).
  const SpanAgg score = totals.of(tracer.intern("sim.score"));
  out.workload_per_layer.push_back(
      {"sim.stream.epoch_self_ms",
       static_cast<double>(snap.self_ns + plain.self_ns + score.total_ns) /
           epochs / 1e6,
       "ms"});
  out.workload_per_layer.push_back(
      {"sim.stream.snapshot_epoch_ms", mean(snap, 1e6), "ms"});
  out.workload_per_layer.push_back(
      {"sim.stream.plain_epoch_ms", mean(plain, 1e6), "ms"});
  out.workload_per_layer.push_back(
      {"sim.stream.joins",
       static_cast<double>(prefix_snapshot.total_joined -
                           setup_snapshot.total_joined) / epochs,
       "count"});
  out.workload_per_layer.push_back(
      {"sim.stream.leaves",
       static_cast<double>(prefix_snapshot.total_left -
                           setup_snapshot.total_left) / epochs,
       "count"});
  out.workload_per_layer.push_back(
      {"sim.telemetry.on_snapshot_us", mean(tap, 1e3), "us"});
  out.per_layer.push_back(
      {"array.pattern_cache_hit_ratio", timed_cache.hit_ratio(), "fraction"});
  out.per_layer.push_back({"array.pattern_cache_setup_hit_ratio",
                           setup_cache.hit_ratio(), "fraction"});
  out.per_layer.push_back(
      {"trace.overhead_ratio", prefix_cpu / traced_prefix_cpu, "ratio"});
  return out;
}

}  // namespace perfbench
