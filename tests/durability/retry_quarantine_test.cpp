// Durable engine execution: per-trial retry with deterministic streams,
// quarantine after exhausted retries, watchdog flagging, frozen timing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/controller_base.h"
#include "sim/engine.h"
#include "sim/telemetry.h"

namespace mmr::sim {
namespace {

/// A small, fast campaign every test starts from.
ExperimentSpec base_spec(std::size_t trials = 4) {
  ExperimentSpec spec;
  spec.name = "durability_demo";
  spec.scenario.name = "indoor";
  spec.controller.name = "mmreliable";
  spec.run.duration_s = 0.1;
  spec.trials = trials;
  spec.seed = 21;
  spec.seed_policy = SeedPolicy::kPerTrialStream;
  return spec;
}

void expect_trials_identical(
    const std::vector<SweepTrial<core::LinkSummary>>& a,
    const std::vector<SweepTrial<core::LinkSummary>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].value.reliability, b[i].value.reliability);
    EXPECT_EQ(a[i].value.mean_throughput_bps,
              b[i].value.mean_throughput_bps);
    EXPECT_EQ(a[i].value.mean_spectral_efficiency,
              b[i].value.mean_spectral_efficiency);
    EXPECT_EQ(a[i].value.throughput_reliability_product,
              b[i].value.throughput_reliability_product);
    EXPECT_EQ(a[i].value.num_samples, b[i].value.num_samples);
  }
}

TEST(RetryQuarantine, TransientFailureIsRetriedBitIdentically) {
  // Trial 1 throws exactly once; with one retry the sweep must produce
  // results bit-identical to a sweep that never failed (the retry restarts
  // from the same deterministic Rng stream).
  const EngineResult clean = Engine().run(base_spec());

  ExperimentSpec flaky = base_spec();
  auto first_attempt = std::make_shared<std::atomic<bool>>(true);
  flaky.customize = [first_attempt](const TrialContext& ctx, ScenarioSpec&,
                                    ControllerSpec&, RunConfig&) {
    if (ctx.index == 1 && first_attempt->exchange(false)) {
      throw std::runtime_error("transient fault injected by test");
    }
  };
  EngineOptions opts;
  opts.trial_retries = 1;
  const EngineResult retried = Engine().run(flaky, nullptr, opts);

  EXPECT_TRUE(retried.failures.empty());
  expect_trials_identical(retried.trials, clean.trials);
  EXPECT_EQ(retried.aggregate.mean_reliability,
            clean.aggregate.mean_reliability);
}

/// mmreliable, except that an armed instance throws from its
/// `throw_at_step`-th step: mid-run, after the world has filled the trial
/// workspace's path-response table.
class MidRunFlakyController final : public core::BeamController {
 public:
  MidRunFlakyController(std::unique_ptr<core::BeamController> inner,
                        int throw_at_step)
      : inner_(std::move(inner)), throw_at_step_(throw_at_step) {}

  void start(double t_s, const core::LinkProbeInterface& link) override {
    inner_->start(t_s, link);
  }
  void step(double t_s, const core::LinkProbeInterface& link) override {
    if (++steps_ == throw_at_step_) {
      throw std::runtime_error("mid-run fault injected by test");
    }
    inner_->step(t_s, link);
  }
  const CVec& tx_weights() const override { return inner_->tx_weights(); }
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
  std::unique_ptr<core::BeamController> inner_;
  int throw_at_step_;
  int steps_ = 0;
};

TEST(RetryQuarantine, MidRunFailureIsRetriedBitIdentically) {
  // The first controller instance throws on its 20th step (the runs are
  // 40 ticks), so trial 0's first attempt dies after its world filled the
  // workspace; the retry reuses that workspace and must still match a
  // sweep that never failed.
  const EngineResult clean = Engine().run(base_spec());

  auto first_instance = std::make_shared<std::atomic<bool>>(true);
  ControllerRegistry::instance().add(
      "mid_run_flaky",
      [first_instance](const LinkWorld& world, const ScenarioConfig& config,
                       const ControllerSpec& spec) {
        ControllerSpec inner = spec;
        inner.name = "mmreliable";
        return std::make_unique<MidRunFlakyController>(
            ControllerRegistry::instance().make(world, config, inner),
            first_instance->exchange(false) ? 20 : -1);
      });
  ExperimentSpec flaky = base_spec();
  flaky.controller.name = "mid_run_flaky";
  EngineOptions opts;
  opts.trial_retries = 1;
  const EngineResult retried = Engine().run(flaky, nullptr, opts);

  EXPECT_FALSE(first_instance->load()) << "no instance was armed";
  EXPECT_TRUE(retried.failures.empty());
  expect_trials_identical(retried.trials, clean.trials);
  EXPECT_EQ(retried.aggregate.mean_reliability,
            clean.aggregate.mean_reliability);
}

TEST(RetryQuarantine, ExhaustedRetriesQuarantineWithoutAbortingTheSweep) {
  ExperimentSpec spec = base_spec();
  auto attempts_seen = std::make_shared<std::atomic<int>>(0);
  spec.customize = [attempts_seen](const TrialContext& ctx, ScenarioSpec&,
                                   ControllerSpec&, RunConfig&) {
    if (ctx.index == 2) {
      attempts_seen->fetch_add(1);
      throw std::runtime_error("deterministic failure in trial 2");
    }
  };
  EngineOptions opts;
  opts.trial_retries = 2;
  MemorySink sink;
  const EngineResult r = Engine().run(spec, &sink, opts);

  // The sweep completed: every trial keeps its slot.
  ASSERT_EQ(r.trials.size(), 4u);
  EXPECT_EQ(attempts_seen->load(), 3);  // 1 try + 2 retries

  ASSERT_EQ(r.failures.size(), 1u);
  const TrialFailure& f = r.failures[0];
  EXPECT_EQ(f.index, 2u);
  EXPECT_EQ(f.attempts, 3u);
  EXPECT_TRUE(f.quarantined());
  EXPECT_FALSE(f.timed_out);
  EXPECT_NE(f.error.find("deterministic failure in trial 2"),
            std::string::npos);
  EXPECT_NE(f.stream_seed, 0u);

  // Quarantined slot holds a default summary...
  EXPECT_EQ(r.trials[2].value.num_samples, 0u);
  // ...and is excluded from the aggregate: the aggregate must equal a
  // summarize_sweep over the three survivors.
  std::vector<SweepTrial<core::LinkSummary>> survivors = {
      r.trials[0], r.trials[1], r.trials[3]};
  const SweepSummary expected = summarize_sweep(survivors);
  EXPECT_EQ(r.aggregate.mean_reliability, expected.mean_reliability);
  EXPECT_EQ(r.aggregate.mean_throughput_bps, expected.mean_throughput_bps);

  // The failure reached telemetry too.
  ASSERT_EQ(sink.trial_failures().size(), 1u);
  EXPECT_EQ(sink.trial_failures()[0].index, 2u);
}

TEST(RetryQuarantine, QuarantineIsReportedInSweepJson) {
  ExperimentSpec spec = base_spec(3);
  spec.customize = [](const TrialContext& ctx, ScenarioSpec&,
                      ControllerSpec&, RunConfig&) {
    if (ctx.index == 0) throw std::runtime_error("boom");
  };
  EngineOptions opts;
  opts.freeze_timing = true;
  std::ostringstream os;
  JsonLinesSink sink(os);
  (void)Engine().run(spec, &sink, opts);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"trial_failure\""), std::string::npos);
  EXPECT_NE(json.find("\"failed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"failures\": ["), std::string::npos);
  EXPECT_NE(json.find("\"quarantined\": true"), std::string::npos);
  EXPECT_NE(json.find("boom"), std::string::npos);
}

TEST(RetryQuarantine, CleanRunEmitsNoFailureMachinery) {
  // Byte-compat guard: without failures the JSON must not mention the
  // failure fields at all (older consumers never see new keys).
  ExperimentSpec spec = base_spec(2);
  EngineOptions opts;
  opts.trial_retries = 3;  // budget present but unused
  opts.freeze_timing = true;
  std::ostringstream os;
  JsonLinesSink sink(os);
  const EngineResult r = Engine().run(spec, &sink, opts);
  EXPECT_TRUE(r.failures.empty());
  EXPECT_EQ(os.str().find("\"failed\""), std::string::npos);
  EXPECT_EQ(os.str().find("\"failures\""), std::string::npos);
  EXPECT_EQ(os.str().find("\"trial_failure\""), std::string::npos);
}

TEST(RetryQuarantine, WatchdogFlagsSlowTrialsWithoutKillingThem) {
  ExperimentSpec spec = base_spec(2);
  spec.customize = [](const TrialContext& ctx, ScenarioSpec&,
                      ControllerSpec&, RunConfig&) {
    if (ctx.index == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
  };
  EngineOptions opts;
  opts.trial_timeout_s = 0.05;
  const EngineResult r = Engine().run(spec, nullptr, opts);

  // Trial 0 slept past the deadline, so it MUST be flagged. (A loaded
  // machine may legitimately flag the other trial too; the contract
  // under test is flag-not-kill, not scheduler latency.)
  const TrialFailure* f = nullptr;
  for (const TrialFailure& candidate : r.failures) {
    if (candidate.index == 0) f = &candidate;
  }
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->timed_out);
  // Flagged, not quarantined: the late trial's results are kept...
  for (const TrialFailure& any : r.failures) {
    EXPECT_FALSE(any.quarantined());
  }
  EXPECT_GT(r.trials[0].value.num_samples, 0u);
  // ...and still count toward the aggregate.
  const SweepSummary expected = summarize_sweep(r.trials);
  EXPECT_EQ(r.aggregate.mean_reliability, expected.mean_reliability);
}

TEST(RetryQuarantine, FreezeTimingZeroesEveryTimingField) {
  ExperimentSpec spec = base_spec(2);
  EngineOptions opts;
  opts.freeze_timing = true;
  const EngineResult r = Engine().run(spec, nullptr, opts);
  EXPECT_EQ(r.timing.wall_s, 0.0);
  EXPECT_EQ(r.timing.serial_equivalent_s, 0.0);
  for (const auto& t : r.trials) {
    EXPECT_EQ(t.wall_s, 0.0);
    EXPECT_EQ(t.cpu_s, 0.0);
  }
  // Frozen runs of the same spec serialize to identical bytes.
  std::ostringstream a, b;
  JsonLinesSink sa(a), sb(b);
  (void)Engine().run(spec, &sa, opts);
  (void)Engine().run(spec, &sb, opts);
  EXPECT_EQ(a.str(), b.str());
}

TEST(RetryQuarantine, DefaultOptionsMatchThePlainOverload) {
  ExperimentSpec spec = base_spec(3);
  const EngineResult plain = Engine().run(spec);
  const EngineResult durable = Engine().run(spec, nullptr, EngineOptions{});
  expect_trials_identical(plain.trials, durable.trials);
  EXPECT_TRUE(durable.failures.empty());
  EXPECT_EQ(durable.replayed_trials, 0u);
}

}  // namespace
}  // namespace mmr::sim
