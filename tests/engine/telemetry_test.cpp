// Telemetry sinks and the run_experiment config validation added with the
// experiment engine: MemorySink capture, JsonLinesSink byte-compatibility
// with write_sweep_json, and the RunConfig contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/telemetry.h"

namespace mmr::sim {
namespace {

RunConfig short_run() {
  RunConfig rc;
  rc.duration_s = 0.1;
  return rc;
}

TEST(Telemetry, MemorySinkCapturesSamplesAndSummary) {
  ScenarioConfig cfg;
  cfg.seed = 7;
  LinkWorld world = make_indoor_world(cfg);
  auto ctrl = make_mmreliable(world, cfg);
  MemorySink sink;
  const RunResult r = run_experiment(world, *ctrl, short_run(), &sink);

  ASSERT_EQ(sink.runs().size(), 1u);
  ASSERT_EQ(sink.summaries().size(), 1u);
  EXPECT_EQ(sink.runs()[0].size(), r.samples.size());
  EXPECT_EQ(sink.summaries()[0].reliability, r.summary.reliability);
  EXPECT_EQ(sink.summaries()[0].mean_throughput_bps,
            r.summary.mean_throughput_bps);
  for (std::size_t i = 0; i < r.samples.size(); ++i) {
    EXPECT_EQ(sink.runs()[0][i].t_s, r.samples[i].t_s);
    EXPECT_EQ(sink.runs()[0][i].snr_db, r.samples[i].snr_db);
  }
}

TEST(Telemetry, SinkNeverPerturbsTheResult) {
  ScenarioConfig cfg;
  cfg.seed = 7;
  LinkWorld world_a = make_indoor_world(cfg);
  LinkWorld world_b = make_indoor_world(cfg);
  auto ctrl_a = make_mmreliable(world_a, cfg);
  auto ctrl_b = make_mmreliable(world_b, cfg);
  MemorySink sink;
  const RunResult with_sink = run_experiment(world_a, *ctrl_a, short_run(),
                                             &sink);
  const RunResult without = run_experiment(world_b, *ctrl_b, short_run());
  EXPECT_EQ(with_sink.summary.reliability, without.summary.reliability);
  EXPECT_EQ(with_sink.summary.mean_throughput_bps,
            without.summary.mean_throughput_bps);
}

TEST(Telemetry, JsonLinesSinkMatchesWriteSweepJsonByteForByte) {
  std::vector<SweepTrial<core::LinkSummary>> trials(2);
  trials[0].index = 0;
  trials[0].wall_s = 0.25;
  trials[0].cpu_s = 0.2;
  trials[0].value.reliability = 0.5;
  trials[0].value.mean_throughput_bps = 1.25e9;
  trials[0].value.throughput_reliability_product = 6.25e8;
  trials[1].index = 1;
  trials[1].wall_s = 0.5;
  trials[1].cpu_s = 0.4;
  trials[1].value.reliability = 1.0 / 3.0;  // exercises precision
  trials[1].value.mean_throughput_bps = 987654321.123;
  trials[1].value.throughput_reliability_product = 3.2e8;
  SweepTiming timing;
  timing.wall_s = 0.75;
  timing.serial_equivalent_s = 0.6;
  timing.jobs = 2;
  const std::vector<std::string> labels = {"a", "b"};

  std::ostringstream expected;
  write_sweep_json(expected, "bytecheck", trials, timing, labels);

  std::ostringstream actual;
  JsonLinesSink sink(actual);
  SweepRecord record;
  record.name = "bytecheck";
  record.trials = trials;
  record.timing = timing;
  record.labels = labels;
  sink.on_sweep(record);

  EXPECT_EQ(actual.str(), expected.str());
}

TEST(Telemetry, EngineReplaysSinkEventsInTrialIndexOrder) {
  // jobs=2 must deliver the same sink stream as jobs=1 (the ordering
  // contract: per-trial events buffer and replay after the barrier).
  auto capture = [](std::size_t jobs) {
    ExperimentSpec spec;
    spec.name = "order";
    spec.scenario.name = "indoor";
    spec.run.duration_s = 0.1;
    spec.trials = 4;
    spec.jobs = jobs;
    spec.seed = 5;
    spec.record_samples = true;
    MemorySink sink;
    Engine().run(spec, &sink);
    return sink;
  };
  const MemorySink serial = capture(1);
  const MemorySink parallel = capture(2);
  ASSERT_EQ(serial.runs().size(), 4u);
  ASSERT_EQ(parallel.runs().size(), 4u);
  EXPECT_EQ(serial.num_sweeps(), 1u);
  EXPECT_EQ(parallel.num_sweeps(), 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial.summaries()[i].reliability,
              parallel.summaries()[i].reliability);
    ASSERT_EQ(serial.runs()[i].size(), parallel.runs()[i].size());
    for (std::size_t k = 0; k < serial.runs()[i].size(); ++k) {
      EXPECT_EQ(serial.runs()[i][k].snr_db, parallel.runs()[i][k].snr_db);
    }
  }
}

// --- Streaming snapshots and the flush_every_n policy -------------------

StreamSnapshot sample_snapshot() {
  StreamSnapshot s;
  s.t_s = 0.25;
  s.index = 3;
  s.live_sessions = 42;
  s.total_joined = 50;
  s.total_left = 8;
  s.window_ticks = 420;
  s.total_ticks = 1680;
  s.availability = 0.975;
  s.snr_mean_db = 21.5;
  s.tput_mean_bps = 1.5e9;
  s.dropped = 2;
  return s;
}

TEST(Telemetry, JsonLinesSinkEmitsOneSnapshotLine) {
  std::ostringstream os;
  JsonLinesSink sink(os);
  sink.on_snapshot(sample_snapshot());
  const std::string line = os.str();
  EXPECT_EQ(line.rfind("{\"snapshot\": {\"index\": 3, ", 0), 0u);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_NE(line.find("\"live_sessions\": 42"), std::string::npos);
  EXPECT_NE(line.find("\"total_ticks\": 1680"), std::string::npos);
  EXPECT_NE(line.find("\"availability\": 0.975"), std::string::npos);
  EXPECT_NE(line.find("\"dropped\": 2"), std::string::npos);
  // One line per snapshot: no embedded newlines.
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
}

TEST(Telemetry, MemoryAndFanoutSinksCaptureSnapshots) {
  MemorySink sink;
  sink.on_snapshot(sample_snapshot());
  ASSERT_EQ(sink.snapshots().size(), 1u);
  EXPECT_EQ(sink.snapshots()[0].index, 3u);
  EXPECT_EQ(sink.snapshots()[0].total_ticks, 1680u);
  EXPECT_EQ(sink.snapshots()[0].availability, 0.975);
}

/// ostringstream buffer that counts sync() (i.e. flush) calls.
struct CountingBuf : std::stringbuf {
  int syncs = 0;
  int sync() override {
    ++syncs;
    return std::stringbuf::sync();
  }
};

TEST(Telemetry, FlushEveryNAmortizesFlushesWithoutChangingBytes) {
  const StreamSnapshot snap = sample_snapshot();
  auto emit = [&](std::size_t flush_every_n, int* syncs) {
    CountingBuf buf;
    std::ostream os(&buf);
    JsonLinesSink sink(os, /*per_tick=*/false, flush_every_n);
    for (int i = 0; i < 10; ++i) sink.on_snapshot(snap);
    if (syncs != nullptr) *syncs = buf.syncs;
    return buf.str();
  };

  int durable = 0, amortized = 0, never = 0;
  const std::string bytes_durable = emit(1, &durable);
  const std::string bytes_amortized = emit(4, &amortized);
  const std::string bytes_never = emit(0, &never);
  // The policy changes WHEN bytes reach the OS, never WHICH bytes.
  EXPECT_EQ(bytes_durable, bytes_amortized);
  EXPECT_EQ(bytes_durable, bytes_never);
  EXPECT_EQ(durable, 10);   // the durable default: every record
  EXPECT_EQ(amortized, 2);  // 10 records / 4 per flush
  EXPECT_EQ(never, 0);      // 0 = never flush mid-stream
}

TEST(Telemetry, DefaultFlushPolicyStaysPerRecordForFaultLines) {
  // The campaign durability contract rides on the default: every record
  // type flushes as it is written.
  CountingBuf buf;
  std::ostream os(&buf);
  JsonLinesSink sink(os);
  core::FaultEvent ev;
  ev.t_s = 0.5;
  sink.on_fault(ev);
  sink.on_snapshot(sample_snapshot());
  EXPECT_EQ(buf.syncs, 2);
}

// --- RunConfig validation ----------------------------------------------

class RunConfigValidation : public ::testing::Test {
 protected:
  RunConfigValidation() : world_(make_indoor_world(cfg_)) {
    ctrl_ = make_mmreliable(world_, cfg_);
  }
  ScenarioConfig cfg_;
  LinkWorld world_;
  std::unique_ptr<core::MmReliableController> ctrl_;
};

TEST_F(RunConfigValidation, RejectsNonPositiveDuration) {
  RunConfig rc;
  rc.duration_s = 0.0;
  EXPECT_THROW(run_experiment(world_, *ctrl_, rc), std::logic_error);
  rc.duration_s = -1.0;
  EXPECT_THROW(run_experiment(world_, *ctrl_, rc), std::logic_error);
}

TEST_F(RunConfigValidation, RejectsNonPositiveOrNonFiniteTick) {
  RunConfig rc;
  rc.tick_s = 0.0;
  EXPECT_THROW(run_experiment(world_, *ctrl_, rc), std::logic_error);
  rc.tick_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(run_experiment(world_, *ctrl_, rc), std::logic_error);
}

TEST_F(RunConfigValidation, RejectsNonFiniteOutageThreshold) {
  RunConfig rc;
  rc.outage_snr_db = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_experiment(world_, *ctrl_, rc), std::logic_error);
}

TEST_F(RunConfigValidation, RejectsOverheadOutsideUnitInterval) {
  RunConfig rc;
  rc.protocol_overhead = 1.0;
  EXPECT_THROW(run_experiment(world_, *ctrl_, rc), std::logic_error);
  rc.protocol_overhead = -0.1;
  EXPECT_THROW(run_experiment(world_, *ctrl_, rc), std::logic_error);
}

TEST_F(RunConfigValidation, AcceptsTheDefaultConfig) {
  RunConfig rc;
  rc.duration_s = 0.05;
  EXPECT_NO_THROW(run_experiment(world_, *ctrl_, rc));
}

}  // namespace
}  // namespace mmr::sim
