// Integration tests of the streaming service (sim/streaming.h): the
// 1-session/1-shard collapse onto the engine's run_experiment path, the
// jobs=K byte-identity of snapshot telemetry, bounded session tables
// under churn, snapshot cadence, and spec validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/controller_base.h"
#include "net/network.h"
#include "sim/engine.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/streaming.h"
#include "sim/telemetry.h"
#include "sim/workspace.h"

namespace {

using namespace mmr;

sim::ScenarioSpec sparse_scenario() {
  sim::ScenarioSpec s;
  s.name = "indoor_sparse";
  s.config.tx_power_dbm = 14.0;
  s.ue_velocity = {1.0, 0.0};
  return s;
}

sim::StreamingSpec base_spec() {
  sim::StreamingSpec spec;
  spec.name = "streaming_test";
  spec.network.link_scenario = sparse_scenario();
  spec.network.run.duration_s = 0.2;
  spec.duration_s = 0.2;
  spec.snapshot_every_s = 0.2;
  spec.seed = 21;
  return spec;
}

// The collapse contract: a 1-shard/1-session service with churn off
// scores the exact tick sequence of the engine's run_experiment with
// scenario seed == spec.seed (shard 0 takes the seed verbatim, session 0
// takes the shard seed verbatim -- both conventions pinned here).
TEST(StreamingService, SingleSessionCollapsesToEngineTrial) {
  net::register_net_builtins();
  sim::StreamingSpec spec = base_spec();
  sim::MemorySink sink;
  sim::StreamingService service(spec, &sink);
  const sim::StreamingResult result = service.run();

  sim::ScenarioSpec scenario = sparse_scenario();
  scenario.config.seed = spec.seed;
  sim::LinkWorld world = sim::ScenarioRegistry::instance().make(scenario);
  sim::TrialWorkspace ws;
  world.bind_workspace(&ws);
  const auto controller = sim::ControllerRegistry::instance().make(
      world, scenario.config, spec.network.controller);
  const sim::RunResult direct =
      sim::run_experiment(world, *controller, spec.network.run);

  ASSERT_FALSE(direct.samples.empty());
  EXPECT_EQ(result.epochs, direct.samples.size());
  EXPECT_EQ(result.total_joined, 1u);
  EXPECT_EQ(result.total_left, 0u);
  EXPECT_EQ(result.live_sessions, 1u);

  const sim::StreamSnapshot& snap = result.final_snapshot;
  EXPECT_EQ(snap.total_ticks, direct.samples.size());
  // reliability and availability are the same usable/ticks integer
  // division: bit-identical.
  EXPECT_EQ(snap.availability, direct.summary.reliability);
  // Welford vs naive-sum mean: equal to reassociation accuracy.
  EXPECT_NEAR(snap.tput_mean_bps, direct.summary.mean_throughput_bps,
              1e-12 * (1.0 + direct.summary.mean_throughput_bps));
  // The SNR statistics cover the ticks with signal only.
  std::vector<double> snr;
  double snr_sum = 0.0;
  for (const core::LinkSample& s : direct.samples) {
    if (!s.has_signal) continue;
    snr.push_back(s.snr_db);
    snr_sum += s.snr_db;
  }
  ASSERT_FALSE(snr.empty());
  EXPECT_NEAR(snap.snr_mean_db, snr_sum / static_cast<double>(snr.size()),
              1e-9);
  // The P² median lands inside a rank band of the exact per-tick SNRs.
  std::sort(snr.begin(), snr.end());
  const auto rank = [&](double f) {
    return snr[static_cast<std::size_t>(f * static_cast<double>(snr.size() - 1))];
  };
  EXPECT_GE(snap.snr_p50_db, rank(0.35) - 1e-9);
  EXPECT_LE(snap.snr_p50_db, rank(0.65) + 1e-9);
  // One snapshot was emitted, and it matches the returned final one.
  ASSERT_EQ(sink.snapshots().size(), 1u);
  EXPECT_EQ(sink.snapshots()[0].total_ticks, snap.total_ticks);
  EXPECT_EQ(sink.snapshots()[0].availability, snap.availability);
}

/// The SNR of every scoring pass of a "recording_reactive" session, in
/// call order (null: record nothing). The wrapper evaluates the world's
/// true SNR whenever the scoring pass reads its weights; with
/// interference off the scored SINR is that SNR bit for bit.
std::vector<double>* g_scored_snr = nullptr;

class RecordingController final : public core::BeamController {
 public:
  RecordingController(const sim::LinkWorld& world,
                      std::unique_ptr<core::BeamController> inner)
      : world_(world), inner_(std::move(inner)) {}

  void start(double t_s, const core::LinkProbeInterface& link) override {
    inner_->start(t_s, link);
  }
  void step(double t_s, const core::LinkProbeInterface& link) override {
    inner_->step(t_s, link);
  }
  const CVec& tx_weights() const override {
    const CVec& w = inner_->tx_weights();
    if (g_scored_snr != nullptr) g_scored_snr->push_back(world_.true_snr_db(w));
    return w;
  }
  bool link_available(double t_s) const override {
    return inner_->link_available(t_s);
  }
  const char* name() const override { return inner_->name(); }
  core::LinkState link_state(double t_s) const override {
    return inner_->link_state(t_s);
  }
  void set_fault_listener(core::FaultListener listener) override {
    inner_->set_fault_listener(std::move(listener));
  }

 private:
  const sim::LinkWorld& world_;
  std::unique_ptr<core::BeamController> inner_;
};

void register_recording_reactive() {
  sim::ControllerRegistry::instance().add(
      "recording_reactive",
      [](const sim::LinkWorld& world, const sim::ScenarioConfig& config,
         const sim::ControllerSpec& spec)
          -> std::unique_ptr<core::BeamController> {
        sim::ControllerSpec inner = spec;
        inner.name = "reactive";
        return std::make_unique<RecordingController>(
            world,
            sim::ControllerRegistry::instance().make(world, config, inner));
      });
}

// A tick without signal scores the -300 dB sentinel; folding it would
// drag the mean hundreds of dB below every real SNR. Over a churned
// multi-shard run with such ticks, every SNR field of every snapshot
// lies within the [min, max] of the scored SNRs that had signal.
TEST(StreamingService, SnrStatisticsFoldOnlyTheTicksWithSignal) {
  net::register_net_builtins();
  register_recording_reactive();
  sim::StreamingSpec spec = base_spec();
  spec.network.controller.name = "recording_reactive";
  spec.network.link_scenario.config.codebook_size = 16;
  spec.network.interference.enabled = false;
  spec.sessions = 24;
  spec.shards = 3;
  spec.duration_s = 0.5;
  spec.network.run.duration_s = 0.5;
  spec.snapshot_every_s = 0.1;
  spec.churn.arrival_rate_per_s = 200.0;
  spec.churn.mean_lifetime_s = 0.1;
  spec.freeze_timing = true;

  std::vector<double> scored;
  g_scored_snr = &scored;
  sim::MemorySink sink;
  sim::StreamingService service(spec, &sink);
  const sim::StreamingResult result = service.run();
  g_scored_snr = nullptr;

  EXPECT_GT(result.total_left, 0u);
  ASSERT_EQ(scored.size(), result.final_snapshot.total_ticks);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  std::size_t no_signal = 0;
  for (double snr : scored) {
    if (snr == -300.0) {
      ++no_signal;
      continue;
    }
    lo = std::min(lo, snr);
    hi = std::max(hi, snr);
  }
  // Both kinds of tick occur, or the property says nothing.
  ASSERT_GT(no_signal, 0u);
  ASSERT_LT(no_signal, scored.size());
  ASSERT_FALSE(sink.snapshots().empty());
  for (const sim::StreamSnapshot& s : sink.snapshots()) {
    for (double f : {s.snr_mean_db, s.snr_p50_db, s.snr_p99_db,
                     s.snr_p999_db}) {
      EXPECT_NE(f, -300.0) << "snapshot " << s.index;
      EXPECT_GE(f, lo) << "snapshot " << s.index;
      EXPECT_LE(f, hi) << "snapshot " << s.index;
    }
    EXPECT_LE(s.snr_stddev_db, hi - lo) << "snapshot " << s.index;
  }
}

std::string snapshot_bytes(std::size_t jobs) {
  sim::StreamingSpec spec = base_spec();
  spec.sessions = 8;
  spec.shards = 4;
  spec.jobs = jobs;
  spec.duration_s = 0.05;
  spec.network.run.duration_s = 0.05;
  spec.snapshot_every_s = 0.0125;
  spec.freeze_timing = true;
  spec.network.interference.enabled = true;  // exercise the batched fold
  std::ostringstream os;
  sim::JsonLinesSink sink(os);
  sim::StreamingService service(spec, &sink);
  (void)service.run();
  return os.str();
}

// jobs only parallelizes the per-epoch shard sweep; shard accumulators
// fold in shard-index order on the orchestrator thread. With frozen
// timing the snapshot JSON must be BYTE-identical across worker counts.
TEST(StreamingService, Jobs8SnapshotBytesMatchJobs1) {
  net::register_net_builtins();
  const std::string serial = snapshot_bytes(1);
  const std::string parallel = snapshot_bytes(8);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // 20 epochs at a 5-tick cadence: exactly 4 snapshot lines, no partial.
  EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 4);
}

TEST(StreamingService, RepeatedRunsAreByteStable) {
  net::register_net_builtins();
  EXPECT_EQ(snapshot_bytes(2), snapshot_bytes(2));
}

TEST(StreamingService, MoreShardsThanSessionsLeavesEmptyShardsHarmless) {
  // shards > sessions: the tail shards own zero sessions and their
  // accumulators merge as pure identities (pinned bitwise in
  // streaming_stats_test.cpp). The run must behave, count the live
  // population correctly, and stay byte-stable.
  net::register_net_builtins();
  auto run_bytes = [] {
    sim::StreamingSpec spec = base_spec();
    spec.sessions = 3;
    spec.shards = 8;
    spec.duration_s = 0.05;
    spec.network.run.duration_s = 0.05;
    spec.snapshot_every_s = 0.025;
    spec.freeze_timing = true;
    std::ostringstream os;
    sim::JsonLinesSink sink(os);
    sim::StreamingService service(spec, &sink);
    const sim::StreamingResult result = service.run();
    EXPECT_EQ(service.live_sessions(), 3u);
    EXPECT_GT(result.final_snapshot.total_ticks, 0u);
    return os.str();
  };
  const std::string first = run_bytes();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, run_bytes());
}

TEST(StreamingService, ChurnKeepsTheSessionTableBounded) {
  net::register_net_builtins();
  sim::StreamingSpec spec = base_spec();
  spec.sessions = 4;
  spec.shards = 2;
  spec.max_sessions = 6;
  spec.duration_s = 0.4;
  spec.network.run.duration_s = 0.4;
  spec.snapshot_every_s = 0.1;
  spec.churn.arrival_rate_per_s = 300.0;
  spec.churn.mean_lifetime_s = 0.05;
  sim::MemorySink sink;
  sim::StreamingService service(spec, &sink);
  const sim::StreamingResult result = service.run();

  // Sessions actually churned...
  EXPECT_GT(result.total_joined, spec.sessions);
  EXPECT_GT(result.total_left, 0u);
  // ...and the live table never exceeded the cap (checked at every
  // snapshot boundary, not just at the end).
  EXPECT_EQ(result.total_joined - result.total_left, result.live_sessions);
  ASSERT_FALSE(sink.snapshots().empty());
  for (const sim::StreamSnapshot& s : sink.snapshots()) {
    EXPECT_LE(s.live_sessions, spec.max_sessions);
    EXPECT_EQ(s.total_joined - s.total_left, s.live_sessions);
  }
  EXPECT_LE(result.live_sessions, spec.max_sessions);
}

// Churn draws come from dedicated per-shard sub-streams: the whole churn
// history is a pure function of the spec, independent of jobs.
TEST(StreamingService, ChurnIsDeterministicAcrossJobs) {
  net::register_net_builtins();
  auto run_churn = [](std::size_t jobs) {
    sim::StreamingSpec spec = base_spec();
    spec.sessions = 4;
    spec.shards = 2;
    spec.max_sessions = 8;
    spec.jobs = jobs;
    spec.duration_s = 0.2;
    spec.network.run.duration_s = 0.2;
    spec.snapshot_every_s = 0.05;
    spec.churn.arrival_rate_per_s = 200.0;
    spec.churn.mean_lifetime_s = 0.04;
    sim::StreamingService service(spec);
    return service.run();
  };
  const sim::StreamingResult a = run_churn(1);
  const sim::StreamingResult b = run_churn(4);
  EXPECT_EQ(a.total_joined, b.total_joined);
  EXPECT_EQ(a.total_left, b.total_left);
  EXPECT_EQ(a.live_sessions, b.live_sessions);
  EXPECT_EQ(a.final_snapshot.total_ticks, b.final_snapshot.total_ticks);
  EXPECT_EQ(a.final_snapshot.availability, b.final_snapshot.availability);
  EXPECT_EQ(a.final_snapshot.snr_mean_db, b.final_snapshot.snr_mean_db);
}

TEST(StreamingService, SnapshotCadenceAndPartialFinalWindow) {
  net::register_net_builtins();
  sim::StreamingSpec spec = base_spec();
  spec.duration_s = 0.1;  // 40 ticks
  spec.network.run.duration_s = 0.1;
  spec.snapshot_every_s = 0.0075;  // every 3 ticks -> 13 full + 1 partial
  sim::MemorySink sink;
  sim::StreamingService service(spec, &sink);
  const sim::StreamingResult result = service.run();

  EXPECT_EQ(result.epochs, 40u);
  ASSERT_EQ(result.snapshots_emitted, 14u);
  ASSERT_EQ(sink.snapshots().size(), 14u);
  std::uint64_t window_sum = 0;
  for (std::size_t i = 0; i < sink.snapshots().size(); ++i) {
    const sim::StreamSnapshot& s = sink.snapshots()[i];
    EXPECT_EQ(s.index, i);
    EXPECT_EQ(s.window_ticks, i + 1 < sink.snapshots().size() ? 3u : 1u);
    window_sum += s.window_ticks;
    if (i > 0) EXPECT_GT(s.t_s, sink.snapshots()[i - 1].t_s);
  }
  EXPECT_EQ(window_sum, result.final_snapshot.total_ticks);
  EXPECT_EQ(result.final_snapshot.total_ticks, 40u);
}

TEST(StreamingService, ValidatesTheSpec) {
  net::register_net_builtins();
  {
    sim::StreamingSpec spec = base_spec();
    spec.seed = 0;
    EXPECT_THROW(sim::StreamingService service(spec), std::logic_error);
  }
  {
    sim::StreamingSpec spec = base_spec();
    spec.shards = 0;
    EXPECT_THROW(sim::StreamingService service(spec), std::logic_error);
  }
  {
    sim::StreamingSpec spec = base_spec();
    spec.snapshot_every_s = spec.network.run.tick_s / 2.0;
    EXPECT_THROW(sim::StreamingService service(spec), std::logic_error);
  }
  {
    sim::StreamingSpec spec = base_spec();
    spec.churn.arrival_rate_per_s = -1.0;
    EXPECT_THROW(sim::StreamingService service(spec), std::logic_error);
  }
  {
    sim::StreamingSpec spec = base_spec();
    spec.duration_s = 0.0;
    EXPECT_THROW(sim::StreamingService service(spec), std::logic_error);
  }
}

}  // namespace
