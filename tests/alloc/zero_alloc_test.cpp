// Allocation audit of the trial hot path: the per-link tick --
// sim::LinkStepper::advance + score + sample append, the code
// run_experiment and every net::Network session run -- must perform ZERO
// heap allocations in steady state once a TrialWorkspace is bound. These
// tests prove it with a counting global operator new
// (tests/common/alloc_guard.h) on the paper's Fig. 16 and Fig. 18
// blockage scenarios, driven by a no-op controller (the controllers'
// probe paths legitimately allocate), and pin a total-allocation budget
// on the full trial (controller included) so an accidental per-tick
// allocation anywhere in the stack fails loudly with the offending count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <vector>

#include "channel/environment.h"
#include "channel/mobility.h"
#include "common/types.h"
#include "core/controller_base.h"
#include "core/maintenance.h"
#include "core/metrics.h"
#include "core/superres.h"
#include "net/network.h"
#include "sim/engine.h"
#include "sim/runner.h"
#include "sim/streaming.h"
#include "sim/workspace.h"
#include "sim/world.h"
#include "tests/common/alloc_guard.h"
#include "tests/common/sinc_reference.h"

namespace {

using namespace mmr;

// The paper's Fig. 16 blockage trial: sparse room, walker crossing the
// LOS at t = 0.5 s (bench/bench_fig16_blockage.cpp, rep 0).
sim::ScenarioSpec fig16_scenario() {
  sim::ScenarioSpec s;
  s.name = "indoor_sparse";
  s.config.seed = 13;
  s.blockers = {{0.5, 1.0, 30.0}};
  return s;
}

// Fig. 18a's hardest static trial: tight link margin, two crossing
// blockers (bench/bench_fig18_endtoend.cpp).
sim::ScenarioSpec fig18_scenario() {
  sim::ScenarioSpec s;
  s.name = "indoor_sparse";
  s.config.seed = 31;
  s.config.tx_power_dbm = 14.0;
  s.blockers = {{0.4, 1.0, 30.0}, {0.75, 1.2, 30.0}};
  return s;
}

constexpr double kTickS = 2.5e-3;
constexpr std::size_t kNumTicks = 400;  // 1 s trial at the CSI-RS cadence

// Measured: the full Fig. 16 mmReliable trial performs 2,953
// allocations, on every backend: the probes' result vectors (one per
// probe, see OneProbeAllocatesOnlyItsResult) and the training and
// refinement paths (legitimately outside the zero-alloc scope -- the
// SCORING loop's zero is pinned separately above, a monitoring tick's
// one allocation in MonitoringStepAllocationsArePinned). The budget adds
// ~28% headroom: loose enough for libstdc++ drift, tight enough to catch
// any systematic per-tick regression (e.g. the engine losing the
// workspace binding, a new temporary inside the probe loop, or the
// monitoring fit allocating again, which alone added ~20 per tick).
constexpr std::size_t kFullTrialAllocationBudget = 3'800;

/// Frozen-beam controller with a no-op tick: isolates the link tick, the
/// network step and the streaming SERVICE loop from the controllers'
/// probe paths, which legitimately allocate and are audited separately
/// via the full-trial budget test.
class NoopFrozenController final : public core::BeamController {
 public:
  explicit NoopFrozenController(std::size_t num_elements)
      : weights_(num_elements,
                 cplx{1.0 / std::sqrt(static_cast<double>(num_elements)),
                      0.0}) {}

  void start(double, const core::LinkProbeInterface&) override {}
  void step(double, const core::LinkProbeInterface&) override {}
  const CVec& tx_weights() const override { return weights_; }
  bool link_available(double) const override { return true; }
  const char* name() const override { return "noop_frozen"; }

 private:
  CVec weights_;
};

void register_noop_frozen() {
  sim::ControllerRegistry::instance().add(
      "noop_frozen",
      [](const sim::LinkWorld& world, const sim::ScenarioConfig&,
         const sim::ControllerSpec&) -> std::unique_ptr<core::BeamController> {
        return std::make_unique<NoopFrozenController>(
            world.config().tx_ula.num_elements);
      });
}

/// Run the engine's per-tick path (LinkStepper::advance + score + sample
/// append, exactly as run_experiment does) over the full trial duration
/// with the no-op controller and return the allocation count. The
/// warm-up pass covers the same time range first so every capacity --
/// path list, workspace scratch, sample vector -- has plateaued.
std::size_t scoring_loop_allocations(const sim::ScenarioSpec& scenario,
                                     bool bind_workspace) {
  sim::LinkWorld world = sim::ScenarioRegistry::instance().make(scenario);
  sim::TrialWorkspace workspace;
  if (bind_workspace) world.bind_workspace(&workspace);
  NoopFrozenController controller(world.config().tx_ula.num_elements);
  sim::LinkStepper stepper(world, controller, sim::FaultPlan{}, nullptr);
  std::vector<core::LinkSample> samples;
  samples.reserve(kNumTicks);
  auto run_ticks = [&] {
    samples.clear();
    for (std::size_t i = 0; i < kNumTicks; ++i) {
      const double t = static_cast<double>(i) * kTickS;
      stepper.advance(t);
      samples.push_back(stepper.score(t, 0.0, 0.005));
    }
  };

  // Warm-up: full time range, so the blocked/unblocked path-count range
  // is seen before the audit.
  run_ticks();
  mmr::testing::AllocationCounter audit;
  run_ticks();
  return audit.delta();
}

class ZeroAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!mmr::testing::alloc_guard_active()) {
      GTEST_SKIP() << "alloc guard compiled out under sanitizers";
    }
  }
};

// The harness itself must be live, or every zero-delta below is
// vacuously true. Direct calls to ::operator new are used because the
// C++14 allocation-elision rule lets GCC remove new-EXPRESSIONS entirely
// (even with a replaced operator new); explicit calls are ordinary
// function calls and cannot be elided.
TEST_F(ZeroAllocTest, HarnessCountsAllocations) {
  mmr::testing::AllocationCounter audit;
  for (int i = 0; i < 16; ++i) {
    void* p = ::operator new(64);
    ::operator delete(p);
  }
  EXPECT_GE(audit.delta(), 16u) << "counting operator new is not linked in";
}

TEST_F(ZeroAllocTest, Fig16ScoringLoopIsAllocationFree) {
  EXPECT_EQ(scoring_loop_allocations(fig16_scenario(), true), 0u)
      << "the Fig. 16 trial scoring loop allocated on the hot path";
}

TEST_F(ZeroAllocTest, Fig18ScoringLoopIsAllocationFree) {
  EXPECT_EQ(scoring_loop_allocations(fig18_scenario(), true), 0u)
      << "the Fig. 18 trial scoring loop allocated on the hot path";
}

// The workspace is what buys the zero: without it every score builds a
// call-local path-response table, frequency grid and CSI row. This pins the mechanism (and
// keeps the audit honest -- the loop above is genuinely allocation-prone).
TEST_F(ZeroAllocTest, UnboundWorldStillAllocatesPerTick) {
  EXPECT_GE(scoring_loop_allocations(fig16_scenario(), false), kNumTicks)
      << "expected the no-workspace path to allocate every tick";
}

/// A real net::Network::step_tick over two sessions in one cell:
/// advance, the interference fold, SINR scoring, the sample
/// append and the link-state drive, with the no-op controller. The
/// network runs two trial lengths; the first is the warm-up and the
/// second is audited (the state machine's clock only runs forward), with
/// a second walker crossing inside the audited window so both the
/// blocked and the unblocked regime are audited.
std::size_t network_scoring_allocations(bool bind_workspace) {
  register_noop_frozen();
  net::NetworkSpec spec;
  spec.ues_per_cell = 2;
  spec.link_scenario = fig16_scenario();
  spec.link_scenario.blockers.push_back({1.5, 1.0, 30.0});
  spec.controller.name = "noop_frozen";
  spec.run.duration_s = 2.0 * static_cast<double>(kNumTicks) * kTickS;
  sim::TrialWorkspace workspace;
  net::Network network(spec, 13, bind_workspace ? &workspace : nullptr);
  network.begin();
  for (std::size_t i = 0; i < kNumTicks; ++i) {
    network.step_tick(static_cast<double>(i) * kTickS);
  }
  mmr::testing::AllocationCounter audit;
  for (std::size_t i = kNumTicks; i < 2 * kNumTicks; ++i) {
    network.step_tick(static_cast<double>(i) * kTickS);
  }
  return audit.delta();
}

// Full-trial regression: the complete run_experiment (controller,
// probing, estimator -- everything) under a total-allocation budget.
// The controller's probe path legitimately allocates; this budget pins
// today's total with headroom and fails printing the offending count.
TEST_F(ZeroAllocTest, FullTrialAllocationBudgetRegression) {
  sim::LinkWorld world =
      sim::ScenarioRegistry::instance().make(fig16_scenario());
  sim::TrialWorkspace workspace;
  world.bind_workspace(&workspace);
  sim::ControllerSpec ctrl_spec;
  ctrl_spec.name = "mmreliable";
  const auto ctrl = sim::ControllerRegistry::instance().make(
      world, fig16_scenario().config, ctrl_spec);
  sim::RunConfig rc;  // 1 s / 2.5 ms: the Fig. 16 run config

  mmr::testing::AllocationCounter audit;
  const sim::RunResult rr = sim::run_experiment(world, *ctrl, rc);
  const std::size_t count = audit.delta();
  std::printf("full-trial allocation count: %zu (budget %zu)\n", count,
              kFullTrialAllocationBudget);
  EXPECT_EQ(rr.samples.size(), kNumTicks);
  EXPECT_LE(count, kFullTrialAllocationBudget)
      << "full trial performed " << count
      << " allocations (budget " << kFullTrialAllocationBudget
      << "): a hot-path allocation has crept back in";
}

/// Allocations of one call of `probe`, after one warm-up call.
template <typename Probe>
std::size_t one_probe_allocations(const Probe& probe) {
  (void)probe();
  mmr::testing::AllocationCounter audit;
  const CVec result = probe();
  return audit.delta();
}

// One probe allocates exactly the vector it returns. A CSI probe forms
// the truth in that vector and the estimator corrupts it in place; the
// batched noise, rotation and CIR scratch live on the stack.
TEST_F(ZeroAllocTest, OneProbeAllocatesOnlyItsResult) {
  sim::LinkWorld world =
      sim::ScenarioRegistry::instance().make(fig16_scenario());
  sim::TrialWorkspace workspace;
  world.bind_workspace(&workspace);
  world.set_time(0.1);
  ASSERT_FALSE(world.paths().empty());
  const core::LinkProbeInterface link = world.probe_interface();
  const CVec w(world.config().tx_ula.num_elements, cplx{0.3, 0.1});
  EXPECT_EQ(one_probe_allocations([&] { return link.csi(w); }), 1u);
  EXPECT_EQ(one_probe_allocations([&] { return link.cir(w, 24); }), 1u);

  // A UE behind the gNB in an empty room: no traced path, pure noise.
  sim::LinkWorld dark(
      channel::Environment(28e9), channel::Pose{{0.0, 0.0}, 0.0},
      std::make_shared<channel::StaticPose>(channel::Pose{{-5.0, 0.3}, 0.0}),
      sim::WorldConfig{}, Rng(5));
  ASSERT_TRUE(dark.paths().empty());
  const core::LinkProbeInterface dark_link = dark.probe_interface();
  EXPECT_EQ(one_probe_allocations([&] { return dark_link.csi(w); }), 1u);
  EXPECT_EQ(one_probe_allocations([&] { return dark_link.cir(w, 24); }), 1u);
}

// The network tick -- advance + interference fold + SINR + sample +
// state-machine ledger -- is zero-allocation once the workspace is
// bound, exactly like the single-link engine loop above, although its
// two sessions refill the workspace's one path-response table in turn.
TEST_F(ZeroAllocTest, NetworkScoringLoopIsAllocationFree) {
  EXPECT_EQ(network_scoring_allocations(true), 0u)
      << "the per-tick network scoring loop allocated on the hot path";
}

// Same mechanism pin as UnboundWorldStillAllocatesPerTick: dropping the
// workspace binding brings the per-score table temporaries back, proving
// the audit above exercises an allocation-prone path.
TEST_F(ZeroAllocTest, UnboundNetworkScoringLoopStillAllocatesPerTick) {
  EXPECT_GE(network_scoring_allocations(false), kNumTicks)
      << "expected the no-workspace network path to allocate every tick";
}

// --- Super-resolution fit -----------------------------------------------

/// Allocations of one superres_per_beam call into a warm workspace on a
/// 3-beam, 24-tap CIR (mmReliable's usual fit) whose arrivals carry a
/// common timing shift and a per-path drift, so both search stages
/// accept trial points.
std::size_t superres_allocations(const core::SuperresConfig& config) {
  constexpr double kBw = 400e6;
  constexpr double kTs = 1.0 / kBw;
  const RVec delays{0.0, 1.4e-9, 4.0e-9};
  const RVec truth{0.3e-9, 1.8e-9, 4.2e-9};
  const CVec amps{{1.0, 0.0}, {0.4, 0.3}, {-0.2, 0.5}};
  CVec cir(24, cplx{});
  for (std::size_t k = 0; k < amps.size(); ++k) {
    for (std::size_t n = 0; n < cir.size(); ++n) {
      cir[n] += amps[k] *
                mmr::testing::reference_sinc_tap(n, kTs, kBw, truth[k]);
    }
  }
  core::SuperresWorkspace workspace;
  core::superres_per_beam(cir, delays, kTs, kBw, config, workspace);
  mmr::testing::AllocationCounter audit;
  core::superres_per_beam(cir, delays, kTs, kBw, config, workspace);
  return audit.delta();
}

// The fit works in its caller's workspace: once warm, neither the default
// grid's 19 ridge solves nor a grid of 95 (41 common shifts, then 3
// rounds of 6 offsets per path) allocates, so no solve, no accepted
// trial point and no result does.
TEST_F(ZeroAllocTest, SuperresAllocationsDoNotGrowWithTheSearchGrid) {
  core::SuperresConfig wide;
  wide.common_shift_steps = 33;
  wide.common_shift_fine_steps = 9;
  wide.relative_steps = 7;
  wide.refinement_rounds = 3;
  const std::size_t base = superres_allocations({});
  const std::size_t grown = superres_allocations(wide);
  std::printf("superres_per_beam allocations on a warm workspace: %zu "
              "(default grid), %zu (wide grid)\n", base, grown);
  EXPECT_EQ(base, 0u) << "a warm superres workspace allocated";
  EXPECT_EQ(grown, 0u) << "a superres solve allocates per trial point";
}

// --- One mmReliable monitoring step -----------------------------------

/// Measured: one steady-state monitoring step of the Fig. 16 trial --
/// the CIR probe, its report sanitizing, the 3-beam super-resolution fit
/// in the controller's workspace, the per-beam powers and the per-beam
/// tracker updates -- allocates exactly once: the CVec the probe returns.
/// A fit, pulse or smoother scratch allocated per column, per solve or
/// per call raises it.
constexpr std::size_t kMonitoringStepAllocations = 1;

TEST_F(ZeroAllocTest, MonitoringStepAllocationsArePinned) {
  sim::LinkWorld world =
      sim::ScenarioRegistry::instance().make(fig16_scenario());
  sim::TrialWorkspace workspace;
  world.bind_workspace(&workspace);
  sim::ControllerSpec ctrl_spec;
  ctrl_spec.name = "mmreliable";
  const auto made = sim::ControllerRegistry::instance().make(
      world, fig16_scenario().config, ctrl_spec);
  auto* ctrl = dynamic_cast<core::MmReliableController*>(made.get());
  ASSERT_NE(ctrl, nullptr);
  const core::LinkProbeInterface link = world.probe_interface();
  auto step_at = [&](double t) {
    world.set_time(t);
    ctrl->step(t, link);
  };

  // Train at 0, tick at the CSI-RS cadence up to 0.2 s (the walker
  // crosses at 0.5 s), then force a refinement pass at 0.25 s so the two
  // ticks after it are monitoring only.
  world.set_time(0.0);
  ctrl->start(0.0, link);
  for (std::size_t i = 1; i <= 80; ++i) {
    step_at(static_cast<double>(i) * kTickS);
  }
  step_at(0.25);
  step_at(0.25 + kTickS);  // warm-up: the same work as the audited step
  world.set_time(0.25 + 2.0 * kTickS);
  const int monitor_probes = ctrl->monitor_probes();
  const int refinement_probes = ctrl->refinement_probes();
  const int trainings = ctrl->trainings();

  mmr::testing::AllocationCounter audit;
  ctrl->step(0.25 + 2.0 * kTickS, link);
  const std::size_t count = audit.delta();
  std::printf("one mmReliable monitoring step: %zu allocations\n", count);

  // Exactly one monitoring probe, nothing else.
  ASSERT_EQ(ctrl->monitor_probes(), monitor_probes + 1);
  ASSERT_EQ(ctrl->refinement_probes(), refinement_probes);
  ASSERT_EQ(ctrl->trainings(), trainings);
  ASSERT_EQ(ctrl->last_beam_powers().size(), 3u);
  EXPECT_EQ(count, kMonitoringStepAllocations);

  // A tick whose trackers hold a full history (fit_history = 8 samples
  // since the refinement at 0.25 s reset them) also runs the quadratic
  // smoother. Ticks 3-7 follow at the CSI-RS cadence and ticks 8 and 9
  // 1 ms apart, all before the next refinement comes due at 0.27 s: the
  // eighth fills the history of every tracker not reset since, the ninth
  // is audited.
  for (std::size_t i = 3; i <= 7; ++i) {
    step_at(0.25 + static_cast<double>(i) * kTickS);
  }
  step_at(0.2685);
  world.set_time(0.2695);
  const int full_monitor_probes = ctrl->monitor_probes();
  const int full_refinement_probes = ctrl->refinement_probes();
  mmr::testing::AllocationCounter full_audit;
  ctrl->step(0.2695, link);
  const std::size_t full_count = full_audit.delta();
  std::printf("one monitoring step with a full tracker history: %zu "
              "allocations\n", full_count);
  ASSERT_EQ(ctrl->monitor_probes(), full_monitor_probes + 1);
  ASSERT_EQ(ctrl->refinement_probes(), full_refinement_probes);
  ASSERT_EQ(ctrl->trainings(), trainings);
  EXPECT_EQ(full_count, kMonitoringStepAllocations);
}

// --- Streaming service steady state (PR-8) ------------------------------

sim::StreamingSpec streaming_audit_spec() {
  sim::StreamingSpec spec;
  spec.name = "alloc_audit";
  spec.network.link_scenario = fig16_scenario();
  spec.network.controller.name = "noop_frozen";
  spec.sessions = 2;
  spec.shards = 1;
  spec.jobs = 1;  // inline shard sweep
  spec.seed = 13;
  spec.snapshot_every_s = 1.0;  // no snapshot boundary inside the audit
  return spec;
}

std::size_t streaming_epoch_allocations(const sim::StreamingSpec& spec,
                                        std::size_t audited_epochs) {
  sim::StreamingService service(spec);
  service.begin();
  // Warm-up: slot scratch, sample capacities, and the blocked/unblocked
  // path-count range all plateau before the audit window.
  for (std::size_t i = 0; i < 120; ++i) service.step_epoch();
  mmr::testing::AllocationCounter audit;
  for (std::size_t i = 0; i < audited_epochs; ++i) service.step_epoch();
  return audit.delta();
}

// The streaming tentpole's steady-state claim: with churn off, jobs=1,
// and no snapshot boundary, step_epoch -- network advance + scoring +
// every O(1) accumulator update -- performs ZERO heap allocations, so a
// service can tick forever with flat RSS.
TEST_F(ZeroAllocTest, SteadyStateStreamingEpochIsAllocationFree) {
  register_noop_frozen();
  EXPECT_EQ(streaming_epoch_allocations(streaming_audit_spec(), 200), 0u)
      << "the steady-state streaming tick loop allocated";
}

// The same audit over a pool: jobs=2 fans 2 shards across the workers
// every epoch, and the pool's parallel_for dispatch allocates nothing.
TEST_F(ZeroAllocTest, ParallelStreamingEpochIsAllocationFree) {
  register_noop_frozen();
  sim::StreamingSpec spec = streaming_audit_spec();
  spec.shards = 2;
  spec.jobs = 2;
  EXPECT_EQ(streaming_epoch_allocations(spec, 200), 0u)
      << "the parallel streaming tick loop allocated";
}

// Audit honesty: churn (session joins rebuild worlds/controllers) is
// allocation-heavy by design, and the same harness sees it.
TEST_F(ZeroAllocTest, ChurningStreamingLoopStillAllocates) {
  register_noop_frozen();
  sim::StreamingSpec spec = streaming_audit_spec();
  spec.churn.arrival_rate_per_s = 400.0;
  spec.churn.mean_lifetime_s = 0.05;
  spec.max_sessions = 8;
  EXPECT_GE(streaming_epoch_allocations(spec, 200), 1u)
      << "expected the churning table to allocate on joins";
}

}  // namespace
