// net_handover: repeated 1 s trials of one net::Network -- 16 cells x 2
// UEs at 10 m spacing on the indoor_crowd template, the terragraph
// controller, cross-link interference and A3 handover on (about twenty
// handovers a trial). It is the workload where the O(n^2) interference
// fold runs and where handover rebuilds worlds.
//
// Each trial builds a fresh Network from a seed-derived stream and drives
// it through begin / step_tick x 400 / finish. Set-up is construction
// plus one warm-up trial. The timed phase runs trials until the CPU
// budget is spent; its first kScoredTrials trials are the scored prefix
// the traced pass must reproduce.
#include <cmath>
#include <memory>
#include <sstream>

#include "clock.h"
#include "common/rng.h"
#include "decorators.h"
#include "net/network.h"
#include "sim/workspace.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace mmr;

constexpr std::size_t kTicks = 400;
constexpr std::size_t kScoredTrials = 4;
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kChunkTicks = 16;
constexpr std::uint64_t kWarmupStream = 0x4E7;

net::NetworkSpec network_spec() {
  net::NetworkSpec spec;
  spec.num_cells = 16;
  spec.ues_per_cell = 2;
  spec.cell_spacing_m = 10.0;
  spec.link_scenario.name = decorated("indoor_crowd");
  spec.link_scenario.config.tx_power_dbm = 14.0;
  spec.link_scenario.ue_velocity = {1.0, 0.0};
  spec.controller.name = decorated("terragraph");
  spec.interference.enabled = true;
  spec.handover.enabled = true;
  spec.run.duration_s = 1.0;
  spec.run.tick_s = 2.5e-3;
  return spec;
}

struct TrialOutcome {
  core::LinkSummary network;
  std::size_t handovers = 0;
  double availability_sum = 0.0;
  std::size_t links = 0;
};

TrialOutcome outcome(const net::NetworkResult& r, double duration_s) {
  TrialOutcome o;
  o.network = r.network;
  o.handovers = r.handovers.size();
  o.links = r.links.size();
  for (const net::LinkReport& l : r.links) {
    o.availability_sum += l.availability(duration_s);
  }
  return o;
}

void check_result(Checks& checks, const net::NetworkSpec& spec,
                  const net::NetworkResult& r) {
  checks.expect(r.links.size() == spec.num_links() &&
                    r.network.num_samples == spec.num_links() * kTicks,
                "link-tick numerator equals the network's summed num_samples");
  std::size_t handovers = 0;
  bool in_range = std::isfinite(r.network.reliability) &&
                  std::isfinite(r.network.throughput_reliability_product);
  for (const net::LinkReport& l : r.links) {
    handovers += l.handovers;
    const double a = l.availability(spec.run.duration_s);
    in_range = in_range && std::isfinite(a) && a >= 0.0 && a <= 1.0 + 1e-12;
  }
  checks.expect(handovers == r.handovers.size(),
                "per-link handover counts add up to the handover events");
  checks.expect(in_range, "network summary and link availability in range");
}

bool same_outcome(const TrialOutcome& a, const TrialOutcome& b) {
  return same_bits(a.network.reliability, b.network.reliability) &&
         same_bits(a.network.mean_throughput_bps,
                   b.network.mean_throughput_bps) &&
         same_bits(a.network.mean_spectral_efficiency,
                   b.network.mean_spectral_efficiency) &&
         same_bits(a.network.throughput_reliability_product,
                   b.network.throughput_reliability_product) &&
         a.network.num_samples == b.network.num_samples &&
         a.handovers == b.handovers;
}

}  // namespace

WorkloadOutput run_net_handover(const Options& opt, Checks& checks,
                                Tracer& tracer) {
  WorkloadOutput out;
  const net::NetworkSpec spec = network_spec();
  const double tick_s = spec.run.tick_s;

  // A calibration chunk runs after construction and every kChunkTicks
  // ticks (excluded from the timings).
  Calibrator calib;
  std::vector<double> setup_s;
  CachePhase setup_cache;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = process_cpu_s();
    clear_caches();
    setup_cache.start();
    sim::TrialWorkspace workspace;
    net::Network network(spec, Rng::derive_stream_seed(opt.seed, kWarmupStream),
                         &workspace);
    network.begin();
    double chunks = calib.sample();
    for (std::size_t i = 0; i < kTicks; ++i) {
      network.step_tick(static_cast<double>(i) * tick_s);
      if ((i + 1) % kChunkTicks == 0) chunks += calib.sample();
    }
    const net::NetworkResult warm = network.finish();
    setup_s.push_back((process_cpu_s() - t0 - chunks) * calib.factor());
    setup_cache.stop();
    check_result(checks, spec, warm);
  }

  // Timed phase: whole trials until the CPU budget is spent; every trial
  // (construction to finish) is one segment.
  TimedPhase timed;
  std::vector<TrialOutcome> scored;
  double prefix_cpu = 0.0;
  std::size_t trials = 0, handovers = 0;
  CachePhase timed_cache;
  timed_cache.start();
  while (trials < kScoredTrials || timed.raw_cpu_s() < opt.seconds ||
         timed.step_s.size() < kMinTimedSteps) {
    const double t0 = process_cpu_s();
    sim::TrialWorkspace workspace;
    net::Network network(spec, Rng::derive_stream_seed(opt.seed, trials),
                         &workspace);
    network.begin();
    double chunks = calib.sample();
    double a = process_cpu_s();
    for (std::size_t i = 0; i < kTicks; ++i) {
      network.step_tick(static_cast<double>(i) * tick_s);
      const double chunk = (i + 1) % kChunkTicks == 0 ? calib.sample() : 0.0;
      const double b = process_cpu_s();
      timed.add_step(b - a - chunk);
      chunks += chunk;
      a = b;
    }
    const net::NetworkResult result = network.finish();
    timed.add_segment(static_cast<double>(spec.num_links() * kTicks),
                      process_cpu_s() - t0 - chunks, calib.factor());
    check_result(checks, spec, result);
    handovers += result.handovers.size();
    if (trials < kScoredTrials) {
      scored.push_back(outcome(result, spec.run.duration_s));
      prefix_cpu = timed.calibrated_cpu_s();
    }
    ++trials;
  }
  timed_cache.stop();
  add_common_end_to_end(out, checks, setup_s, timed);
  double availability = 0.0;
  std::size_t links = 0, scored_handovers = 0;
  for (const TrialOutcome& o : scored) {
    availability += o.availability_sum;
    links += o.links;
    scored_handovers += o.handovers;
  }
  availability /= static_cast<double>(links);
  out.workload_end_to_end.push_back({"availability", availability, "fraction"});
  {
    std::ostringstream note;
    note << "timed " << trials << " trials, " << timed.step_s.size()
         << " ticks, "
         << handovers << " handovers; availability over the scored prefix ("
         << scored.size() << " trials x " << spec.num_links() << " links)";
    out.notes.push_back(note.str());
  }
  if (!opt.trace) return out;

  NetworkIntervalIds ids;
  ids.set_time = tracer.intern("channel.set_time");
  ids.score = tracer.intern("sim.score");
  ids.fold = tracer.intern("net.fold");
  ids.handover = tracer.intern("net.handover");
  const SpanId build_span = tracer.intern("net.build");
  const SpanId tick_span = tracer.intern("net.tick");
  const SpanId finish_span = tracer.intern("net.finish");
  instrumentation().tracer = &tracer;
  tracer.set_event_log(true);
  std::size_t mismatched = 0;
  std::uint64_t pairs = 0;
  calib.factor();
  double chunks = 0.0;
  const double t_traced = process_cpu_s();
  for (std::size_t k = 0; k < scored.size(); ++k) {
    const auto trial = static_cast<std::int64_t>(k);
    sim::TrialWorkspace workspace;
    tracer.begin_step(build_span, trial);
    auto network = std::make_unique<net::Network>(
        spec, Rng::derive_stream_seed(opt.seed, k), &workspace);
    network->begin();
    tracer.end_step();
    for (std::size_t i = 0; i < kTicks; ++i) {
      tracer.begin_step(tick_span, trial, static_cast<std::int64_t>(i));
      network->step_tick(static_cast<double>(i) * tick_s);
      const std::int64_t end = mono_ns();
      const NetworkIntervalCounts c =
          attribute_network_intervals(tracer, ids, /*network_tick=*/true, end);
      tracer.end_step(end);
      checks.expect(c.set_time == spec.num_links() &&
                        c.scored == spec.num_links(),
                    "interval analysis finds every link's set_time and "
                    "scoring in a network tick");
      if (c.scored > 0) pairs += c.interferers * (c.scored - 1);
      if ((i + 1) % kChunkTicks == 0) chunks += calib.sample();
    }
    tracer.begin_step(finish_span, trial);
    const net::NetworkResult result = network->finish();
    tracer.end_step();
    if (!same_outcome(outcome(result, spec.run.duration_s), scored[k])) {
      ++mismatched;
    }
  }
  const double traced_cpu =
      (process_cpu_s() - t_traced - chunks) * calib.factor();
  tracer.set_event_log(false);
  instrumentation().tracer = nullptr;
  checks.expect(mismatched == 0,
                "traced pass reproduces every prefix NetworkResult::network "
                "and handover count bit for bit");

  add_layer_metrics(out, checks, tracer, 0, tracer.steps().size());
  const SpanTotals totals = tracer.totals(0, tracer.steps().size());
  const double ticks = static_cast<double>(scored.size() * kTicks);
  const SpanAgg tick = totals.of(tick_span);
  const SpanAgg fold = totals.of(ids.fold);
  const SpanAgg handover = totals.of(ids.handover);
  const SpanAgg score = totals.under(tick_span, ids.score);
  // The net layer's own share of a tick: step_tick minus the controller,
  // probe, channel and build spans below it -- i.e. SINR scoring with the
  // link-state drive, the interference fold and the handover pass.
  out.workload_per_layer.push_back(
      {"net.tick_self_ms",
       static_cast<double>(tick.self_ns + fold.total_ns + handover.total_ns +
                           score.total_ns) /
           ticks / 1e6,
       "ms"});
  out.workload_per_layer.push_back(
      {"net.fold_us", static_cast<double>(fold.total_ns) / ticks / 1e3, "us"});
  out.workload_per_layer.push_back(
      {"net.handover_us", static_cast<double>(handover.total_ns) / ticks / 1e3,
       "us"});
  out.workload_per_layer.push_back(
      {"net.interferer_pairs_per_tick", static_cast<double>(pairs) / ticks,
       "count"});
  out.workload_per_layer.push_back(
      {"net.handovers",
       static_cast<double>(scored_handovers) /
           static_cast<double>(scored.size()),
       "count"});
  out.per_layer.push_back(
      {"array.pattern_cache_hit_ratio", timed_cache.hit_ratio(), "fraction"});
  out.per_layer.push_back({"array.pattern_cache_setup_hit_ratio",
                           setup_cache.hit_ratio(), "fraction"});
  out.per_layer.push_back(
      {"trace.overhead_ratio", prefix_cpu / traced_cpu, "ratio"});
  return out;
}

}  // namespace perfbench
