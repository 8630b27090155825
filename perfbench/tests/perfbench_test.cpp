// Unit tests for the benchmark's own code: percentile selection, the
// calibration, span self-time accounting, the network interval analysis, /proc parsing,
// the metric-name character set, and bit-identity of the decorating
// factories.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "calib.h"
#include "clock.h"
#include "decorators.h"
#include "net/network.h"
#include "procfs.h"
#include "report.h"
#include "sim/engine.h"
#include "sim/runner.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankWithTenBeyond) {
  const Percentile p99 = nearest_rank(one_to(1000), 99.0);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.supported);
}

TEST(Percentile, TooFewSamplesBeyondIsUnsupported) {
  const Percentile p99 = nearest_rank(one_to(999), 99.0);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 9u);
  EXPECT_FALSE(p99.supported);
  const Percentile small = nearest_rank(one_to(100), 99.0);
  EXPECT_EQ(small.value, 99.0);
  EXPECT_FALSE(small.supported);
}

TEST(Percentile, MedianRankAndEdgeCases) {
  const Percentile p50 = nearest_rank(one_to(10), 50.0, 5);
  EXPECT_EQ(p50.value, 5.0);
  EXPECT_EQ(p50.beyond, 5u);
  EXPECT_TRUE(p50.supported);
  EXPECT_FALSE(nearest_rank({}, 50.0).supported);
  EXPECT_FALSE(nearest_rank({1.0, 2.0}, 100.0).supported);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Calibration, StepsTakeTheirSegmentFactor) {
  TimedPhase timed;
  timed.add_step(1.0);
  timed.add_step(2.0);
  timed.add_segment(10.0, 3.0, 0.5);
  timed.add_step(4.0);
  timed.add_segment(20.0, 4.0, 2.0);
  EXPECT_EQ(timed.step_s, (std::vector<double>{0.5, 1.0, 8.0}));
  EXPECT_EQ(timed.link_ticks(), 30.0);
  EXPECT_EQ(timed.raw_cpu_s(), 7.0);
  EXPECT_EQ(timed.calibrated_cpu_s(), 9.5);
}

TEST(Calibration, BusyHelperThreadLeavesTheFactorUnchanged) {
  std::atomic<bool> spin{false};
  std::atomic<bool> spinning{false};
  std::atomic<bool> stop{false};
  std::thread helper([&] {
    while (!stop.load()) {
      spinning = spin.load();
      if (!spinning) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  Calibrator calib;
  for (int i = 0; i < 10; ++i) calib.sample();  // warm caches
  calib.factor();
  // Quiet and busy windows alternate, so a drift in machine speed hits
  // both alike.
  std::vector<double> ratios;
  double chunk_s = 0.0;
  double busy_process_s = 0.0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 4; ++i) calib.sample();
    const double quiet = calib.factor();
    spin = true;
    while (!spinning.load()) std::this_thread::yield();
    const double cpu0 = process_cpu_s();
    for (int i = 0; i < 4; ++i) chunk_s += calib.sample();
    busy_process_s += process_cpu_s() - cpu0;
    ratios.push_back(calib.factor() / quiet);
    spin = false;
    while (spinning.load()) std::this_thread::yield();
  }
  stop = true;
  helper.join();

  // The helper burned CPU while the chunks ran, and none of it was
  // charged to the chunks (on the process clock the two would match) ...
  EXPECT_GT(busy_process_s, 1.2 * chunk_s);
  // ... so the chunks read about as fast as without it.
  EXPECT_GT(median(ratios), 0.7);
}

SpanAgg find(const StepRecord& step, const Tracer& t, SpanId parent,
             const std::string& name) {
  for (const ChildAgg& c : step.spans) {
    if (c.parent == parent && t.name(c.span) == name) return c.agg;
  }
  return {};
}

TEST(Trace, SelfTimeSubtractsDirectChildren) {
  Tracer t;
  const SpanId root = t.intern("root");
  const SpanId a = t.intern("a");
  const SpanId b = t.intern("b");
  const SpanId c = t.intern("c");
  t.begin_step(root, 7, 3);
  t.open(a);
  t.open(b);
  t.close();
  t.open(b);
  t.close();
  t.close();
  t.add_interval(c, 1000, 2);
  t.end_step(t.step_start_ns() + 10'000'000);

  ASSERT_EQ(t.steps().size(), 1u);
  const StepRecord& s = t.steps().front();
  EXPECT_EQ(s.a, 7);
  EXPECT_EQ(s.b, 3);
  const SpanAgg ra = find(s, t, Tracer::kNoParent, "root");
  const SpanAgg aa = find(s, t, root, "a");
  const SpanAgg bb = find(s, t, a, "b");
  const SpanAgg cc = find(s, t, root, "c");
  EXPECT_EQ(ra.count, 1u);
  EXPECT_EQ(ra.total_ns, 10'000'000);
  EXPECT_EQ(aa.count, 1u);
  EXPECT_EQ(bb.count, 2u);
  EXPECT_EQ(bb.self_ns, bb.total_ns);
  EXPECT_EQ(aa.self_ns, aa.total_ns - bb.total_ns);
  EXPECT_EQ(cc.count, 2u);
  EXPECT_EQ(cc.total_ns, 1000);
  EXPECT_EQ(ra.self_ns, ra.total_ns - aa.total_ns - cc.total_ns);
  EXPECT_TRUE(step_accounts(s));

  const SpanTotals totals = t.totals(0, 1);
  EXPECT_EQ(totals.of(b).count, 2u);
  EXPECT_EQ(totals.under(a, b).total_ns, bb.total_ns);
  EXPECT_EQ(totals.under(root, b).count, 0u);
}

TEST(Trace, AccountingRejectsOverlapAndGaps) {
  StepRecord s;
  s.start_ns = 0;
  s.end_ns = 100;
  s.spans.push_back({Tracer::kNoParent, 0, {1, 100, 60}});
  s.spans.push_back({0, 1, {1, 40, 40}});
  EXPECT_TRUE(step_accounts(s));
  s.spans.back().agg.self_ns = 30;  // 10 ns unaccounted
  EXPECT_FALSE(step_accounts(s));
  s.spans.front().agg.self_ns = -10;  // an inferred interval overlapped
  s.spans.back().agg.self_ns = 110;
  EXPECT_FALSE(step_accounts(s));
}

TEST(Trace, NetworkIntervalsTileAStepTick) {
  Tracer t;
  const SpanId root = t.intern("net.tick");
  const SpanId step = t.intern("net.terragraph.step");
  const SpanId build = t.intern("sim.world_build");
  t.mark_controller(step);
  NetworkIntervalIds ids;
  ids.set_time = t.intern("channel.set_time");
  ids.score = t.intern("sim.score");
  ids.fold = t.intern("net.fold");
  ids.handover = t.intern("net.handover");
  int x = 0, y = 0, z = 0;
  t.set_event_log(true);
  t.begin_step(root, 0, 0);
  for (int i = 0; i < 3; ++i) {  // advance pass
    t.open(step);
    t.close();
  }
  // Interference fold: x transmits, y and z are training.
  t.point(EventKind::kLinkAvailable, &x);
  t.point(EventKind::kTxWeights, &x);
  t.point(EventKind::kLinkAvailable, &y);
  t.point(EventKind::kLinkAvailable, &z);
  for (const int* who : {&x, &y, &z}) {  // scoring pass
    t.point(EventKind::kTxWeights, who);
    t.point(EventKind::kLinkAvailable, who);
    t.point(EventKind::kLinkState, who);
  }
  t.open(build);  // a handover rebuild
  t.close();
  const std::int64_t end = mono_ns();
  const NetworkIntervalCounts c =
      attribute_network_intervals(t, ids, /*network_tick=*/true, end);
  t.end_step(end);
  EXPECT_EQ(c.set_time, 3u);
  EXPECT_EQ(c.scored, 3u);
  EXPECT_EQ(c.interferers, 1u);
  const StepRecord& s = t.steps().front();
  EXPECT_EQ(find(s, t, root, "channel.set_time").count, 3u);
  EXPECT_EQ(find(s, t, root, "sim.score").count, 3u);
  EXPECT_EQ(find(s, t, root, "net.fold").count, 1u);
  EXPECT_EQ(find(s, t, root, "net.handover").count, 1u);
  // The analysis tiles the tick: nothing overlaps, nothing is left over.
  EXPECT_TRUE(step_accounts(s));
  EXPECT_EQ(find(s, t, Tracer::kNoParent, "net.tick").self_ns, 0);
}

TEST(Trace, StreamingEpochSkipsTheFirstSessionOfEachRun) {
  Tracer t;
  const SpanId root = t.intern("epoch");
  const SpanId step = t.intern("baselines.reactive.step");
  const SpanId build = t.intern("sim.world_build");
  t.mark_controller(step);
  NetworkIntervalIds ids;
  ids.set_time = t.intern("channel.set_time");
  ids.score = t.intern("sim.score");
  ids.fold = t.intern("net.fold");
  ids.handover = t.intern("net.handover");
  int x = 0;
  t.set_event_log(true);
  t.begin_step(root, 0);
  for (int shard = 0; shard < 2; ++shard) {
    t.open(build);  // a join
    t.close();
    for (int i = 0; i < 4; ++i) {
      t.open(step);
      t.close();
    }
    t.point(EventKind::kTxWeights, &x);
    t.point(EventKind::kLinkAvailable, &x);
    t.point(EventKind::kLinkState, &x);
  }
  const std::int64_t end = mono_ns();
  const NetworkIntervalCounts c =
      attribute_network_intervals(t, ids, /*network_tick=*/false, end);
  t.end_step(end);
  EXPECT_EQ(c.set_time, 6u);  // 3 gaps per shard; the first follows a join
  EXPECT_EQ(c.scored, 2u);
  EXPECT_EQ(c.interferers, 0u);
  EXPECT_TRUE(step_accounts(t.steps().front()));
}

TEST(Procfs, StatusKb) {
  const std::string status =
      "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\n"
      "VmRSS:\t     678 kB\nVmRSSx:\t 1 kB\nThreads:\t1\n";
  EXPECT_EQ(status_kb(status, "VmHWM"), 12345);
  EXPECT_EQ(status_kb(status, "VmRSS"), 678);
  EXPECT_EQ(status_kb(status, "VmSwap"), std::nullopt);
  EXPECT_EQ(status_kb(status, "Threads"), std::nullopt);  // no kB unit
  EXPECT_EQ(status_kb("VmRSS:\t abc kB\n", "VmRSS"), std::nullopt);
  EXPECT_EQ(status_kb("VmRSS:\t 42 kB", "VmRSS"), 42);  // no final newline
  EXPECT_GT(vm_rss_kb(), 0);
  EXPECT_GE(vm_hwm_kb(), vm_rss_kb());
}

TEST(Procfs, StealTicks) {
  EXPECT_EQ(steal_ticks("cpu  10 20 30 40 50 60 70 80 90 100\n"
                        "cpu0 1 2 3 4 5 6 7 8 9 10\n"),
            80u);
  EXPECT_EQ(steal_ticks("cpu  1 2 3 4 5 6 7\n"), std::nullopt);
  EXPECT_EQ(steal_ticks("cpu0 1 2 3 4 5 6 7 8\n"), std::nullopt);
  EXPECT_EQ(steal_ticks(""), std::nullopt);
}

TEST(Report, MetricNameCharacterSet) {
  EXPECT_TRUE(valid_metric_name("link_ticks_per_s"));
  EXPECT_TRUE(valid_metric_name("core.mmreliable.step_self_us"));
  EXPECT_TRUE(valid_metric_name("0-x"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name(".x"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_FALSE(valid_metric_name("a\"b"));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_TRUE(valid_unit("fraction"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
  EXPECT_FALSE(valid_unit("m s"));
}

TEST(Report, ResultLineAndRejections) {
  Checks checks;
  checks.expect(true, "ok");
  checks.expect(false, "deliberately failed");
  const std::string line =
      result_line(checks, {{"setup_s", 0.1, "s"}, {"n", 3.0, "count"}});
  EXPECT_EQ(line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}, \"n\": "
            "{\"value\": 3, \"unit\": \"count\"}}}");
  EXPECT_THROW(metrics_json({{"a", 1.0, "s"}, {"a", 2.0, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(metrics_json({{"a", std::nan(""), "s"}}), std::invalid_argument);
  EXPECT_THROW(metrics_json({{"a b", 1.0, "s"}}), std::invalid_argument);
  EXPECT_EQ(std::stod(json_number(0.1 + 0.2)), 0.1 + 0.2);
}

mmr::sim::RunResult short_trial(const std::string& scenario,
                                const std::string& controller) {
  mmr::sim::ScenarioSpec spec;
  spec.name = scenario;
  spec.config.seed = 1234;
  spec.config.tx_power_dbm = 14.0;
  spec.ue_velocity = {0.0, -1.0};
  spec.blockers.push_back({0.03, 2.0, 30.0});
  mmr::sim::LinkWorld world = mmr::sim::ScenarioRegistry::instance().make(spec);
  mmr::sim::ControllerSpec cs;
  cs.name = controller;
  auto ctrl =
      mmr::sim::ControllerRegistry::instance().make(world, spec.config, cs);
  mmr::sim::RunConfig rc;
  rc.duration_s = 0.1;
  return mmr::sim::run_experiment(world, *ctrl, rc);
}

class DecoratorBits : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    mmr::net::register_net_builtins();
    register_decorators();
  }
};

TEST_P(DecoratorBits, TracedDecoratorsKeepEveryBitOfATrial) {
  const std::string name = GetParam();
  const mmr::sim::RunResult plain = short_trial("indoor_sparse", name);

  Tracer tracer;
  instrumentation().tracer = &tracer;
  tracer.begin_step(tracer.intern("trial"), 0);
  const mmr::sim::RunResult traced =
      short_trial(decorated("indoor_sparse"), decorated(name));
  tracer.end_step();
  instrumentation().tracer = nullptr;
  const mmr::sim::RunResult untraced =
      short_trial(decorated("indoor_sparse"), decorated(name));

  for (const mmr::sim::RunResult* r : {&traced, &untraced}) {
    ASSERT_EQ(r->samples.size(), plain.samples.size());
    for (std::size_t i = 0; i < plain.samples.size(); ++i) {
      EXPECT_TRUE(same_bits(r->samples[i].snr_db, plain.samples[i].snr_db));
      EXPECT_TRUE(same_bits(r->samples[i].throughput_bps,
                            plain.samples[i].throughput_bps));
      EXPECT_EQ(r->samples[i].available, plain.samples[i].available);
    }
    EXPECT_TRUE(same_bits(r->summary.reliability, plain.summary.reliability));
    EXPECT_TRUE(same_bits(r->summary.throughput_reliability_product,
                          plain.summary.throughput_reliability_product));
  }
  // The traced trial really went through the decorators.
  const SpanTotals totals = tracer.totals(0, 1);
  EXPECT_EQ(totals.of(tracer.intern("sim.world_build")).count, 1u);
  EXPECT_EQ(totals.of(tracer.intern("sim.controller_build")).count, 1u);
  const std::string prefix = controller_module(name) + "." + name;
  EXPECT_EQ(totals.of(tracer.intern(prefix + ".start")).count, 1u);
  EXPECT_EQ(totals.of(tracer.intern(prefix + ".step")).count,
            plain.samples.size() - 1);
  EXPECT_TRUE(step_accounts(tracer.steps().front()));
}

std::vector<std::string> plain_controllers() {
  mmr::net::register_net_builtins();
  std::vector<std::string> names;
  for (const std::string& n : mmr::sim::ControllerRegistry::instance().names()) {
    if (n.rfind(kDecoratedPrefix, 0) != 0) names.push_back(n);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllControllers, DecoratorBits,
                         ::testing::ValuesIn(plain_controllers()));

}  // namespace
}  // namespace perfbench
