// Golden-value regression for the figure pipeline: a small fixed-seed
// indoor blockage sweep whose per-trial and aggregate numbers are pinned.
// A refactor of runner.cpp / world.cpp / the channel stack that shifts any
// of these silently shifts every Fig. 15-18 reproduction, so it must fail
// here first. Regenerate the constants ONLY for a deliberate, documented
// behaviour change (run the sweep below and paste the %.17g values).
#include <gtest/gtest.h>

#include <array>

#include "baselines/reactive_single_beam.h"
#include "common/rng.h"
#include "sim/engine.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/sweep.h"

namespace mmr::sim {
namespace {

// Fixed campaign: sparse room at 14 dBm (tight margin), one walking
// blocker crossing after the training transient, frozen single beam (so
// blockage turns into measurable outage). All randomness comes from the
// trial's seed-derived stream.
std::vector<SweepTrial<core::LinkSummary>> golden_sweep(std::size_t jobs) {
  SweepConfig sc;
  sc.num_trials = 6;
  sc.jobs = jobs;
  sc.base_seed = 424242;
  SweepRunner runner(sc);
  return runner.run([](TrialContext& ctx) {
    ScenarioConfig cfg;
    cfg.sparse_room = true;
    cfg.tx_power_dbm = 14.0;
    cfg.seed = ctx.stream_seed;
    LinkWorld world = make_indoor_world(cfg);
    world.add_blocker(crossing_blocker({0.5, 6.2}, {7.0, 6.2},
                                       ctx.rng.uniform(0.25, 0.45),
                                       ctx.rng.uniform(0.8, 2.0), 30.0));
    baselines::ReactiveConfig rcfg;
    rcfg.outage_power_linear = 0.0;  // frozen beam: blockage = outage
    baselines::ReactiveSingleBeam ctrl(
        world.config().tx_ula, sector_codebook(world.config().tx_ula), rcfg);
    RunConfig rc;
    rc.duration_s = 0.6;
    return run_experiment(world, ctrl, rc).summary;
  });
}

struct GoldenTrial {
  double reliability;
  double mean_throughput_bps;
  double trp_bps;
};

constexpr std::array<GoldenTrial, 6> kGoldenTrials = {{
    {0.37916666666666665, 626866583.33333325, 237686912.84722218},
    {0.37916666666666665, 647512833.33333337, 245515282.6388889},
    {0.19166666666666668, 301468416.66666669, 57781446.527777784},
    {0.3125, 539090999.99999988, 168465937.49999997},
    {0.39583333333333331, 672586833.33333325, 266232288.19444439},
    {0.9916666666666667, 1310348666.6666667, 1299429094.4444447},
}};

// Aggregates (index-ordered reduction over the trials above).
constexpr double kGoldenMedianThroughputBps = 637189708.33333325;
constexpr double kGoldenMedianOutage = 0.62083333333333335;
constexpr double kGoldenMeanReliability = 0.44166666666666665;
constexpr double kGoldenMedianReliability = 0.37916666666666665;
constexpr double kGoldenMeanThroughputBps = 682979055.55555546;
constexpr double kGoldenMeanTrpBps = 379185160.3587963;

// Tight relative tolerance: loose enough to survive a compiler/libm
// update, tight enough that any algorithmic change trips it.
constexpr double kRelTol = 1e-9;

void expect_close(double actual, double expected, const char* what) {
  EXPECT_NEAR(actual, expected, std::abs(expected) * kRelTol + 1e-12)
      << what;
}

TEST(SweepGolden, PerTrialValuesPinned) {
  const auto trials = golden_sweep(/*jobs=*/1);
  ASSERT_EQ(trials.size(), kGoldenTrials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    SCOPED_TRACE(i);
    expect_close(trials[i].value.reliability, kGoldenTrials[i].reliability,
                 "reliability");
    expect_close(trials[i].value.mean_throughput_bps,
                 kGoldenTrials[i].mean_throughput_bps, "mean_throughput_bps");
    expect_close(trials[i].value.throughput_reliability_product,
                 kGoldenTrials[i].trp_bps, "trp_bps");
    EXPECT_EQ(trials[i].value.num_samples, 240u);
  }
}

TEST(SweepGolden, AggregatesPinned) {
  const auto agg = summarize_sweep(golden_sweep(/*jobs=*/1));
  expect_close(agg.median_throughput_bps, kGoldenMedianThroughputBps,
               "median_throughput_bps");
  expect_close(agg.median_outage, kGoldenMedianOutage, "median_outage");
  expect_close(agg.mean_reliability, kGoldenMeanReliability,
               "mean_reliability");
  expect_close(agg.median_reliability, kGoldenMedianReliability,
               "median_reliability");
  expect_close(agg.mean_throughput_bps, kGoldenMeanThroughputBps,
               "mean_throughput_bps");
  expect_close(agg.mean_trp_bps, kGoldenMeanTrpBps, "mean_trp_bps");
}

TEST(SweepGolden, ParallelSweepMatchesGoldenToo) {
  // The same pins hold under a parallel schedule: golden values + the
  // determinism contract in one shot.
  const auto trials = golden_sweep(/*jobs=*/4);
  ASSERT_EQ(trials.size(), kGoldenTrials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    SCOPED_TRACE(i);
    expect_close(trials[i].value.reliability, kGoldenTrials[i].reliability,
                 "reliability");
    expect_close(trials[i].value.mean_throughput_bps,
                 kGoldenTrials[i].mean_throughput_bps, "mean_throughput_bps");
  }
}

// mmReliable on the Fig. 18b/c mobile campaign (bench_fig18_endtoend,
// default seed 100, run 2: the UE walks and two blockers cross), built
// through the same registries the bench uses. The reactive sweep above
// never runs the super-resolution fit, tracking or maintenance; this
// trial runs all three on every tick, so a change that shifts any of
// their decisions moves this summary.
core::LinkSummary mmreliable_mobile_trial() {
  constexpr std::uint64_t kSeed = 100;
  constexpr std::uint64_t kRun = 2;
  ScenarioSpec scenario;
  scenario.name = "indoor_sparse";
  scenario.config.tx_power_dbm = 14.0;
  scenario.config.seed = Rng::derive_stream_seed(kSeed, kRun);
  // Same draw order as the bench: walking speed before crossing time.
  Rng rng = Rng(kSeed).fork(kRun);
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
  LinkWorld world = ScenarioRegistry::instance().make(scenario);
  ControllerSpec controller;
  controller.name = "mmreliable";
  const auto ctrl =
      ControllerRegistry::instance().make(world, scenario.config, controller);
  return run_experiment(world, *ctrl, RunConfig{}).summary;
}

TEST(SweepGolden, MmReliableMobileTrialPinned) {
  const core::LinkSummary s = mmreliable_mobile_trial();
  expect_close(s.reliability, 0.93000000000000005, "reliability");
  expect_close(s.mean_throughput_bps, 1388631950, "mean_throughput_bps");
  expect_close(s.mean_spectral_efficiency, 3.4715798750000002,
               "mean_spectral_efficiency");
  expect_close(s.throughput_reliability_product, 1291427713.5, "trp_bps");
  EXPECT_EQ(s.num_samples, 400u);
}

}  // namespace
}  // namespace mmr::sim
