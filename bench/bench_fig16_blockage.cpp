// Fig. 16 reproduction: a human walks across the link. The single-beam
// link's SNR collapses below the 6 dB outage threshold; the multi-beam
// link dips only by the blocked beam's share and stays alive.
// (Paper: single beam drops 26 dB; multi-beam drops only 7 dB.)
//
// Runs as one declarative engine campaign: trial 0 of each scheme is the
// paper's seed-13 crossing (printed as the time-series table); --trials N
// adds N-1 Monte-Carlo repetitions per scheme with randomized rooms and
// crossing times, all drawn from run-indexed Rng streams so --jobs K
// reproduces --jobs 1 bit-for-bit.
#include <cstdio>
#include <iostream>

#include "common/constants.h"
#include "common/table.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sweep_cli.h"

using namespace mmr;

namespace {

struct Trace {
  RVec t_ms, snr_db;
  double min_snr = 1e9;
  int outage_ticks = 0;
};

Trace trace_of(const std::vector<core::LinkSample>& samples) {
  Trace tr;
  for (const auto& s : samples) {
    tr.t_ms.push_back(s.t_s * 1e3);
    tr.snr_db.push_back(s.snr_db);
    if (s.t_s > 0.2) {  // ignore training transient
      tr.min_snr = std::min(tr.min_snr, s.snr_db);
      if (s.snr_db < kOutageSnrDb) ++tr.outage_ticks;
    }
  }
  return tr;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts =
      bench::parse_sweep_cli(argc, argv, bench::refuse_controller_flag,
                             nullptr);
  const std::size_t reps = opts.trials > 0 ? opts.trials : 1;
  const std::uint64_t seed = opts.seed > 0 ? opts.seed : 13;

  std::printf("=== Fig. 16: blockage resilience, walker crossing the link "
              "===\n");
  std::printf("(sparse room, blocker crosses LOS around t = 0.5 s; outage "
              "threshold %.0f dB; %zu repetition(s) per scheme)\n\n",
              kOutageSnrDb, reps);

  // Trial layout: [multi rep0..repN-1, single rep0..repN-1]. Rep 0 is the
  // paper's fixed crossing; later reps randomize the crossing time and
  // walking speed from the rep-indexed stream (same for both schemes, so
  // the comparison stays paired).
  sim::ExperimentSpec spec;
  spec.name = "fig16_blockage";
  spec.scenario.name = "indoor_sparse";
  spec.run.duration_s = 1.0;
  spec.run.tick_s = 2.5e-3;
  spec.trials = 2 * reps;
  spec.seed = seed;
  spec.seed_policy = sim::SeedPolicy::kFixed;
  spec.record_samples = true;
  spec.customize = [reps, seed](const sim::TrialContext& ctx,
                                sim::ScenarioSpec& scenario,
                                sim::ControllerSpec& controller,
                                sim::RunConfig& /*run*/) {
    const bool is_multi = ctx.index < reps;
    const std::size_t rep = ctx.index % reps;
    scenario.config.seed = rep == 0 ? seed : Rng::derive_stream_seed(seed, rep);
    double crossing_s = 0.5, speed_mps = 1.0;
    if (rep > 0) {
      Rng rng = Rng(seed).fork(rep);
      crossing_s = rng.uniform(0.35, 0.65);
      speed_mps = rng.uniform(0.8, 1.8);
    }
    scenario.blockers = {{crossing_s, speed_mps, 30.0}};
    // Multi-beam (mmReliable) vs the paper's frozen single-beam
    // comparison (trains once, never reacts).
    controller.name = is_multi ? "mmreliable" : "single_frozen";
  };
  spec.label = [reps](const sim::TrialContext& ctx) {
    return std::string(ctx.index < reps ? "multi" : "single") + "/rep" +
           std::to_string(ctx.index % reps);
  };
  const auto res = bench::run_campaign(spec, opts);
  // Shard workers / the merger have no per-tick samples to tabulate.
  if (bench::distributed_mode(opts)) {
    bench::emit_distributed(opts, spec.name, res);
    bench::emit_json(spec.name, res);
    return 0;
  }

  const Trace tr_multi = trace_of(res.samples[0]);
  const Trace tr_single = trace_of(res.samples[reps]);

  std::printf("%8s %14s %14s\n", "t (ms)", "single (dB)", "multi (dB)");
  for (std::size_t i = 0; i < tr_multi.t_ms.size(); i += 10) {
    std::printf("%8.0f %14.1f %14.1f\n", tr_multi.t_ms[i], tr_single.snr_db[i],
                tr_multi.snr_db[i]);
  }

  // Baseline SNR taken well before the blocker arrives (t = 0.15 s).
  const double base_single = tr_single.snr_db[60];
  const double base_multi = tr_multi.snr_db[60];
  Table t({"link", "baseline SNR (dB)", "min SNR (dB)", "max drop (dB)",
           "outage ticks", "paper drop (dB)"});
  t.add_row({"single beam", Table::num(base_single, 1),
             Table::num(tr_single.min_snr, 1),
             Table::num(base_single - tr_single.min_snr, 1),
             Table::num(tr_single.outage_ticks, 0), "26"});
  t.add_row({"multi-beam", Table::num(base_multi, 1),
             Table::num(tr_multi.min_snr, 1),
             Table::num(base_multi - tr_multi.min_snr, 1),
             Table::num(tr_multi.outage_ticks, 0), "7"});
  std::printf("\n");
  t.print(std::cout);
  if (reps > 1) {
    int multi_outage_reps = 0, single_outage_reps = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      multi_outage_reps += trace_of(res.samples[rep]).outage_ticks > 0;
      single_outage_reps += trace_of(res.samples[reps + rep]).outage_ticks > 0;
    }
    std::printf("Monte-Carlo over %zu crossings: single-beam outage in "
                "%d/%zu reps, multi-beam in %d/%zu reps\n", reps,
                single_outage_reps, reps, multi_outage_reps, reps);
  }
  std::printf("paper shape: single-beam drop is deep (outage); multi-beam "
              "drop is the blocked beam's share only (no outage).\n");

  bench::emit_json(spec.name, res);
  return 0;
}
