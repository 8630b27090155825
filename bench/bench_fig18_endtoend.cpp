// Fig. 18a-c reproduction: end-to-end comparison of mmReliable against
// the reactive single-beam, BeamSpy, and wide-beam baselines.
//  (a) static link with 0/1/2 crossing blockers: throughput.
//  (b) mobile links with blockage: reliability distribution (paper:
//      mmReliable ~1.0 median, reactive 0.65, widebeam 0.5).
//  (c) throughput-reliability product (paper: 2.3x over reactive).
//
// Both campaigns run on the deterministic sweep engine: pass --jobs N to
// fan trials across threads (output is bit-identical to --jobs 1),
// --trials N to scale the per-scheme mobile-run count. Each bench section
// ends with a JSON line carrying per-trial wall-clock and the
// serial-equivalent speedup.
#include <cstdio>
#include <iostream>
#include <string>

#include "common/stats.h"
#include "common/table.h"
#include "sim/engine.h"
#include "sweep_cli.h"

using namespace mmr;

namespace {

/// Display name (paper spelling) -> controller registry name.
struct Scheme {
  const char* name;
  const char* controller;
};

std::vector<Scheme> schemes() {
  return {{"mmReliable", "mmreliable"},
          {"reactive", "reactive"},
          {"beamspy", "beamspy"},
          {"widebeam", "widebeam"}};
}

// Tight margin: blocked single beam = outage. sparse_room comes from the
// "indoor_sparse" scenario.
constexpr double kTightTxPowerDbm = 14.0;

}  // namespace

int main(int argc, char** argv) {
  const auto opts =
      bench::parse_sweep_cli(argc, argv, bench::refuse_controller_flag,
                             nullptr);
  const std::size_t runs = opts.trials > 0 ? opts.trials : 20;
  const std::uint64_t seed = opts.seed > 0 ? opts.seed : 100;
  const auto all = schemes();
  const std::size_t jobs =
      opts.jobs == 0 ? ThreadPool::hardware_jobs() : opts.jobs;

  std::printf("=== Fig. 18a: static link with 0/1/2 blockers (jobs=%zu) "
              "===\n", jobs);
  {
    // One trial per (scheme, blocker count); all share the seed-31 room.
    sim::ExperimentSpec spec;
    spec.name = "fig18a_static_blockers";
    spec.scenario.name = "indoor_sparse";
    spec.scenario.config.seed = 31;
    spec.scenario.config.tx_power_dbm = kTightTxPowerDbm;
    spec.trials = all.size() * 3;
    spec.seed = 31;
    spec.seed_policy = sim::SeedPolicy::kFixed;
    spec.customize = [&all](const sim::TrialContext& ctx,
                            sim::ScenarioSpec& scenario,
                            sim::ControllerSpec& controller,
                            sim::RunConfig& /*run*/) {
      const std::size_t scheme_idx = ctx.index / 3;
      const int nb = static_cast<int>(ctx.index % 3);
      if (nb >= 1) scenario.blockers.push_back({0.4, 1.0, 30.0});
      if (nb >= 2) scenario.blockers.push_back({0.75, 1.2, 30.0});
      controller.name = all[scheme_idx].controller;
    };
    spec.label = [&all](const sim::TrialContext& ctx) {
      return std::string(all[ctx.index / 3].name) + "/" +
             std::to_string(ctx.index % 3) + "b";
    };
    const auto res = bench::run_campaign(spec, opts);

    // A shard worker / merger runs BOTH campaigns (each has its own
    // journal) but skips the per-scheme tables: a shard's non-owned
    // slots hold default summaries.
    if (bench::distributed_mode(opts)) {
      bench::emit_distributed(opts, spec.name, res);
    } else {
      Table t({"scheme", "0 blockers (Mbps)", "1 blocker (Mbps)",
               "2 blockers (Mbps)", "drop w/ 2 (%)"});
      RVec drop;  // per scheme, schemes() order: mmReliable first
      for (std::size_t s = 0; s < all.size(); ++s) {
        RVec tput;
        for (int nb = 0; nb <= 2; ++nb) {
          tput.push_back(res.trials[s * 3 + nb].value.mean_throughput_bps /
                         1e6);
        }
        drop.push_back(100.0 * (1.0 - tput[2] / tput[0]));
        t.add_row({all[s].name, Table::num(tput[0], 0),
                   Table::num(tput[1], 0), Table::num(tput[2], 0),
                   Table::num(drop.back(), 1)});
      }
      t.print(std::cout);
      // The paper's claim: mmReliable loses only a few % with two
      // blockers (here: at most 5%), single-beam baselines far more (here:
      // more than twice mmReliable's drop). Stated only when the table
      // above bears it out.
      bool holds = drop[0] <= 5.0;
      std::string drops = std::string(all[0].name) + " " +
                          Table::num(drop[0], 1) + "%";
      for (std::size_t s = 1; s < all.size(); ++s) {
        holds = holds && drop[s] > 2.0 * drop[0];
        drops += std::string(", ") + all[s].name + " " +
                 Table::num(drop[s], 1) + "%";
      }
      std::printf("throughput drop with 2 blockers: %s\n", drops.c_str());
      if (holds) {
        std::printf("paper shape: mmReliable loses only a few %% with two "
                    "blockers; single-beam baselines lose far more.\n");
      } else {
        std::printf("paper shape (mmReliable loses only a few %% with two "
                    "blockers, single-beam baselines far more): not "
                    "reproduced; see EXPERIMENTS.md note 4.\n");
      }
    }
    bench::emit_json(spec.name, res);
  }

  std::printf("\n=== Fig. 18b/c: mobile links with blockage (%zu runs per "
              "scheme, jobs=%zu) ===\n", runs, jobs);
  {
    // One trial per (scheme, run). All schemes face the SAME world
    // realization for a given run: every random draw comes from the
    // run-indexed fork of the base seed, never from the trial index, so
    // the comparison stays paired and the sweep stays deterministic.
    sim::ExperimentSpec spec;
    spec.name = "fig18bc_mobile_blockage";
    spec.scenario.name = "indoor_sparse";
    spec.scenario.config.tx_power_dbm = kTightTxPowerDbm;
    spec.trials = all.size() * runs;
    spec.seed = seed;
    spec.seed_policy = sim::SeedPolicy::kFixed;
    spec.customize = [&all, runs, seed](const sim::TrialContext& ctx,
                                        sim::ScenarioSpec& scenario,
                                        sim::ControllerSpec& controller,
                                        sim::RunConfig& /*run_cfg*/) {
      const std::size_t scheme_idx = ctx.index / runs;
      const std::size_t run = ctx.index % runs;
      scenario.config.seed = Rng::derive_stream_seed(seed, run);
      // Per-run randomized motion + one or two crossing blockers
      // (paper: blockage 100-500 ms during each 1 s mobile run). The
      // draw order matches the pre-engine bench, where the blocker
      // parameters were function arguments evaluated right-to-left:
      // walking speed before crossing time.
      Rng rng = Rng(seed).fork(run);
      const double vy = rng.uniform(-1.5, -0.4);
      scenario.ue_velocity = {0.0, vy};
      const double speed1 = rng.uniform(1.0, 2.5);
      const double cross1 = rng.uniform(0.3, 0.55);
      scenario.blockers.push_back({cross1, speed1, 30.0});
      if (rng.bernoulli(0.4)) {
        const double speed2 = rng.uniform(1.5, 3.0);
        const double cross2 = rng.uniform(0.65, 0.85);
        scenario.blockers.push_back({cross2, speed2, 30.0});
      }
      controller.name = all[scheme_idx].controller;
    };
    spec.label = [&all, runs](const sim::TrialContext& ctx) {
      return std::string(all[ctx.index / runs].name) + "/run" +
             std::to_string(ctx.index % runs);
    };
    const auto res = bench::run_campaign(spec, opts);

    if (bench::distributed_mode(opts)) {
      bench::emit_distributed(opts, spec.name, res);
      bench::emit_json(spec.name, res);
      return 0;
    }
    Table t({"scheme", "reliability p25", "median", "p75",
             "mean tput (Mbps)", "T x R product (Mbps)"});
    RVec median_rel, trp_mean;  // per scheme, schemes() order
    for (std::size_t s = 0; s < all.size(); ++s) {
      RVec rel, tput, trp;
      for (std::size_t run = 0; run < runs; ++run) {
        const auto& summary = res.trials[s * runs + run].value;
        rel.push_back(summary.reliability);
        tput.push_back(summary.mean_throughput_bps / 1e6);
        trp.push_back(summary.throughput_reliability_product / 1e6);
      }
      median_rel.push_back(median(rel));
      trp_mean.push_back(mean(trp));
      t.add_row({all[s].name, Table::num(percentile(rel, 25.0), 3),
                 Table::num(median_rel.back(), 3),
                 Table::num(percentile(rel, 75.0), 3),
                 Table::num(mean(tput), 0), Table::num(trp_mean.back(), 0)});
    }
    t.print(std::cout);
    std::printf("\nthroughput-reliability product: mmReliable / reactive = "
                "%.2fx (paper: 2.3x)\n", trp_mean[0] / trp_mean[1]);
    // The paper's claim: mmReliable's reliability near 1.0 (here: a
    // median of at least 0.98) and a T x R product above every baseline's.
    // Stated only when the table above bears it out.
    bool holds = median_rel[0] >= 0.98;
    std::string products = std::string(all[0].name) + " " +
                           Table::num(trp_mean[0], 0);
    for (std::size_t s = 1; s < all.size(); ++s) {
      holds = holds && trp_mean[0] > trp_mean[s];
      products += std::string(", ") + all[s].name + " " +
                  Table::num(trp_mean[s], 0);
    }
    std::printf("mmReliable median reliability %s; T x R product (Mbps): "
                "%s\n", Table::num(median_rel[0], 3).c_str(),
                products.c_str());
    if (holds) {
      std::printf("paper shape: mmReliable reliability near 1.0 and the "
                  "highest T x R product; every baseline trails on "
                  "T x R.\n");
    } else {
      std::printf("paper shape (mmReliable reliability near 1.0 and the "
                  "highest T x R product): not reproduced; see "
                  "EXPERIMENTS.md note 5.\n");
    }
    std::printf("sweep wall-clock %.2f s vs %.2f s serial-equivalent: "
                "%.2fx speedup with %zu jobs\n", res.timing.wall_s,
                res.timing.serial_equivalent_s,
                res.timing.speedup(), res.timing.jobs);
    bench::emit_json(spec.name, res);
  }
  return 0;
}
