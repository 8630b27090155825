// The sweep engine's headline guarantee: a parallel sweep produces
// BIT-IDENTICAL per-trial results and aggregates to a serial sweep of the
// same seed. Runs a 32-trial randomized blockage campaign with jobs=1 and
// jobs=4 and compares every double with exact equality.
#include "sim/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>

#include "sim/runner.h"
#include "sim/scenario.h"

namespace mmr::sim {
namespace {

// One randomized blockage trial: room geometry, blocker crossing time,
// and walking speed all come from the trial's seed-derived stream.
core::LinkSummary blockage_trial(TrialContext& ctx) {
  ScenarioConfig cfg;
  cfg.sparse_room = true;
  cfg.tx_power_dbm = 14.0;
  cfg.seed = ctx.stream_seed;
  LinkWorld world = make_indoor_world(cfg);
  world.add_blocker(crossing_blocker({0.5, 6.2}, {7.0, 6.2},
                                     ctx.rng.uniform(0.05, 0.15),
                                     ctx.rng.uniform(0.8, 2.0), 30.0));
  auto ctrl = make_mmreliable(world, cfg, 2);
  RunConfig rc;
  rc.duration_s = 0.25;
  return run_experiment(world, *ctrl, rc).summary;
}

std::vector<SweepTrial<core::LinkSummary>> run_sweep(std::size_t jobs) {
  SweepConfig sc;
  sc.num_trials = 32;
  sc.jobs = jobs;
  sc.base_seed = 2021;
  SweepRunner runner(sc);
  return runner.run(blockage_trial);
}

TEST(SweepDeterminism, ParallelBitIdenticalToSerial) {
  const auto serial = run_sweep(1);
  const auto parallel = run_sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].index, i);
    EXPECT_EQ(parallel[i].index, i);
    // Exact bit equality, not NEAR: scheduling must not perturb a single
    // floating-point operation of any trial.
    EXPECT_EQ(serial[i].value.reliability, parallel[i].value.reliability)
        << "trial " << i;
    EXPECT_EQ(serial[i].value.mean_throughput_bps,
              parallel[i].value.mean_throughput_bps)
        << "trial " << i;
    EXPECT_EQ(serial[i].value.mean_spectral_efficiency,
              parallel[i].value.mean_spectral_efficiency)
        << "trial " << i;
    EXPECT_EQ(serial[i].value.throughput_reliability_product,
              parallel[i].value.throughput_reliability_product)
        << "trial " << i;
    EXPECT_EQ(serial[i].value.num_samples, parallel[i].value.num_samples)
        << "trial " << i;
  }
}

TEST(SweepDeterminism, AggregateBitIdenticalAcrossJobs) {
  const auto agg1 = summarize_sweep(run_sweep(1));
  const auto agg4 = summarize_sweep(run_sweep(4));
  EXPECT_EQ(agg1.mean_reliability, agg4.mean_reliability);
  EXPECT_EQ(agg1.median_reliability, agg4.median_reliability);
  EXPECT_EQ(agg1.p25_reliability, agg4.p25_reliability);
  EXPECT_EQ(agg1.p75_reliability, agg4.p75_reliability);
  EXPECT_EQ(agg1.median_outage, agg4.median_outage);
  EXPECT_EQ(agg1.mean_throughput_bps, agg4.mean_throughput_bps);
  EXPECT_EQ(agg1.median_throughput_bps, agg4.median_throughput_bps);
  EXPECT_EQ(agg1.mean_trp_bps, agg4.mean_trp_bps);
  EXPECT_EQ(agg1.median_trp_bps, agg4.median_trp_bps);
}

TEST(SweepDeterminism, AggregateIndependentOfCompletionOrder) {
  // summarize_sweep walks trials by index; a shuffled-then-reindexed copy
  // (what any completion order reduces to) must aggregate identically.
  auto trials = run_sweep(4);
  auto shuffled = trials;
  std::mt19937 shuffle_rng(99);
  std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);
  std::sort(shuffled.begin(), shuffled.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
  const auto agg_a = summarize_sweep(trials);
  const auto agg_b = summarize_sweep(shuffled);
  EXPECT_EQ(agg_a.mean_reliability, agg_b.mean_reliability);
  EXPECT_EQ(agg_a.mean_throughput_bps, agg_b.mean_throughput_bps);
  EXPECT_EQ(agg_a.mean_trp_bps, agg_b.mean_trp_bps);
}

TEST(SweepDeterminism, RepeatedRunsIdentical) {
  const auto a = run_sweep(4);
  const auto b = run_sweep(4);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].value.mean_throughput_bps, b[i].value.mean_throughput_bps);
    EXPECT_EQ(a[i].value.reliability, b[i].value.reliability);
  }
}

TEST(SweepDeterminism, TrialExceptionPropagates) {
  SweepConfig sc;
  sc.num_trials = 8;
  sc.jobs = 4;
  SweepRunner runner(sc);
  EXPECT_THROW(runner.run([](TrialContext& ctx) -> int {
    if (ctx.index == 3) throw std::runtime_error("trial failed");
    return 0;
  }),
               std::runtime_error);
}

TEST(SweepDeterminism, TimingIsPopulated) {
  SweepConfig sc;
  sc.num_trials = 4;
  sc.jobs = 2;
  SweepRunner runner(sc);
  (void)runner.run(blockage_trial);
  EXPECT_GT(runner.timing().wall_s, 0.0);
  EXPECT_GT(runner.timing().serial_equivalent_s, 0.0);
  EXPECT_EQ(runner.timing().jobs, 2u);
}

TEST(SweepDeterminism, CpuTimeExcludesSleep) {
  // A trial's cpu_s is its thread's CPU time, not wall time: sleeping
  // costs wall time only, so the JSON speedup (sum of cpu_s / wall_s)
  // cannot count waiting as work.
  SweepConfig sc;
  sc.num_trials = 1;
  SweepRunner runner(sc);
  const auto trials = runner.run([](TrialContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return 0;
  });
  ASSERT_EQ(trials.size(), 1u);
  EXPECT_GE(trials[0].wall_s, 0.05);
  EXPECT_LT(trials[0].cpu_s, 0.01);
}

}  // namespace
}  // namespace mmr::sim
