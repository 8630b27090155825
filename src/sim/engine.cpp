#include "sim/engine.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "baselines/oracle.h"
#include "common/constants.h"
#include "common/error.h"
#include "core/delay_multibeam.h"
#include "sim/journal.h"
#include "sim/telemetry.h"
#include "sim/workspace.h"

namespace mmr::sim {
namespace {

[[noreturn]] void throw_unknown(const char* kind, const std::string& name,
                                const std::vector<std::string>& registered) {
  std::ostringstream msg;
  msg << "unknown " << kind << " '" << name << "'; registered " << kind
      << "s: ";
  for (std::size_t i = 0; i < registered.size(); ++i) {
    if (i > 0) msg << ", ";
    msg << registered[i];
  }
  throw std::invalid_argument(msg.str());
}

void add_link_blockers(LinkWorld& world, channel::Vec2 link_tx,
                       channel::Vec2 link_ue,
                       const std::vector<BlockerSpec>& blockers) {
  for (const BlockerSpec& b : blockers) {
    world.add_blocker(crossing_blocker(link_tx, link_ue, b.crossing_time_s,
                                       b.speed_mps, b.depth_db));
  }
}

LinkWorld make_indoor(const ScenarioSpec& spec, bool force_sparse) {
  ScenarioConfig config = spec.config;
  if (force_sparse) config.sparse_room = true;
  LinkWorld world = make_indoor_world(config, spec.ue_velocity,
                                      spec.ue_rotation_rate_rad_s,
                                      spec.ue_start);
  add_link_blockers(world, kIndoorGnbPosition, spec.ue_start, spec.blockers);
  return world;
}

// Reflection-poor space (Section 8 / IRS future work): the only surface is
// a distant wooden wall whose reflection arrives too weak for training, so
// the link is effectively single-path until an IRS panel is deployed.
LinkWorld make_indoor_poor(const ScenarioSpec& spec) {
  channel::Environment env(kCarrier28GHz);
  env.add_wall({{{0.0, 0.0}, {10.0, 0.0}}, channel::Material::wood()});
  const channel::Pose tx{kIndoorGnbPosition, 0.0};
  auto traj = std::make_shared<channel::StaticPose>(
      channel::Pose{spec.ue_start, kPi});
  WorldConfig wc;
  wc.spec = {kCarrier28GHz, kBandwidth400MHz, 64};
  wc.budget = phy::LinkBudget::paper_indoor();
  wc.budget.tx_power_dbm = spec.config.tx_power_dbm;
  wc.tx_ula = {spec.config.tx_elements, 0.5};
  LinkWorld world(std::move(env), tx, std::move(traj), wc,
                  Rng(spec.config.seed));
  if (spec.irs_gain_db > 0.0) {
    channel::IrsPanel panel;
    panel.position = spec.irs_position;
    panel.gain_db = spec.irs_gain_db;
    world.add_irs(panel);
  }
  add_link_blockers(world, kIndoorGnbPosition, spec.ue_start, spec.blockers);
  return world;
}

LinkWorld make_outdoor(const ScenarioSpec& spec) {
  LinkWorld world =
      make_outdoor_world(spec.config, spec.link_distance_m, spec.ue_velocity);
  add_link_blockers(world, {0.0, 0.0}, {spec.link_distance_m, 0.0},
                    spec.blockers);
  return world;
}

void register_builtin_scenarios(ScenarioRegistry& reg) {
  reg.add("indoor",
          [](const ScenarioSpec& s) { return make_indoor(s, false); });
  reg.add("indoor_sparse",
          [](const ScenarioSpec& s) { return make_indoor(s, true); });
  reg.add("indoor_poor",
          [](const ScenarioSpec& s) { return make_indoor_poor(s); });
  reg.add("outdoor",
          [](const ScenarioSpec& s) { return make_outdoor(s); });
}

void register_builtin_controllers(ControllerRegistry& reg) {
  using Ptr = std::unique_ptr<core::BeamController>;
  reg.add("mmreliable", [](const LinkWorld& w, const ScenarioConfig& c,
                           const ControllerSpec& s) -> Ptr {
    return make_mmreliable(w, c, s.max_beams);
  });
  // Fig. 17c's ablated controller: default maintenance training (not the
  // scenario factory's widened separation) with the tracking and
  // constructive-combining stages individually toggleable.
  reg.add("mmreliable_ablation",
          [](const LinkWorld& w, const ScenarioConfig& /*c*/,
             const ControllerSpec& s) -> Ptr {
            const array::Ula ula = w.config().tx_ula;
            core::MaintenanceConfig mc;
            mc.max_beams = s.max_beams;
            mc.bandwidth_hz = w.config().spec.bandwidth_hz;
            mc.outage_power_linear = w.power_for_snr(kOutageSnrDb);
            mc.enable_tracking = s.enable_tracking;
            mc.enable_cc_refresh = s.enable_cc_refresh;
            return std::make_unique<core::MmReliableController>(
                ula, sector_codebook(ula), mc);
          });
  reg.add("delay_multibeam", [](const LinkWorld& w, const ScenarioConfig& c,
                                const ControllerSpec& s) -> Ptr {
    const array::Ula ula = w.config().tx_ula;
    core::DelayMultibeamConfig dc;
    dc.carrier_hz = w.config().spec.carrier_hz;
    dc.bandwidth_hz = w.config().spec.bandwidth_hz;
    dc.max_beams = s.max_beams;
    return std::make_unique<core::DelayMultibeamController>(
        ula, sector_codebook(ula, c.codebook_size), dc);
  });
  reg.add("reactive", [](const LinkWorld& w, const ScenarioConfig& c,
                         const ControllerSpec& /*s*/) -> Ptr {
    return make_reactive(w, c);
  });
  // The paper's frozen single-beam comparison (Fig. 16): trains once and
  // never reacts (outage threshold 0 disables retraining).
  reg.add("single_frozen", [](const LinkWorld& w, const ScenarioConfig& /*c*/,
                              const ControllerSpec& /*s*/) -> Ptr {
    const array::Ula ula = w.config().tx_ula;
    baselines::ReactiveConfig rc;
    rc.outage_power_linear = 0.0;
    return std::make_unique<baselines::ReactiveSingleBeam>(
        ula, sector_codebook(ula), rc);
  });
  reg.add("beamspy", [](const LinkWorld& w, const ScenarioConfig& c,
                        const ControllerSpec& /*s*/) -> Ptr {
    return make_beamspy(w, c);
  });
  reg.add("widebeam", [](const LinkWorld& w, const ScenarioConfig& c,
                         const ControllerSpec& /*s*/) -> Ptr {
    return make_widebeam(w, c);
  });
  reg.add("oracle", [](const LinkWorld& w, const ScenarioConfig& /*c*/,
                       const ControllerSpec& /*s*/) -> Ptr {
    return std::make_unique<baselines::Oracle>(
        [&w] { return w.true_per_antenna_channel(); });
  });
}

// Wall-clock watchdog for --trial-timeout-s. Trials register a deadline
// when they start and deregister on completion; a monitor thread warns on
// stderr the moment a deadline passes and remembers the index so the
// engine can attach a timed_out TrialFailure afterwards. The watchdog
// never kills a trial -- there is no safe way to cancel an arbitrary
// in-process computation -- it makes hangs observable and attributable.
class TrialWatchdog {
 public:
  explicit TrialWatchdog(double timeout_s) : timeout_s_(timeout_s) {
    if (enabled()) thread_ = std::thread([this] { loop(); });
  }

  ~TrialWatchdog() {
    if (!enabled()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  bool enabled() const { return timeout_s_ > 0.0; }

  void begin(std::size_t index) {
    if (!enabled()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      deadlines_[index] = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(timeout_s_));
    }
    cv_.notify_all();
  }

  void end(std::size_t index) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    deadlines_.erase(index);
  }

  /// Indices whose deadline passed (call after the sweep barrier).
  std::set<std::size_t> flagged() {
    std::lock_guard<std::mutex> lock(mutex_);
    return flagged_;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      const auto now = std::chrono::steady_clock::now();
      auto next = now + std::chrono::hours(24);
      for (auto it = deadlines_.begin(); it != deadlines_.end();) {
        if (it->second <= now) {
          flagged_.insert(it->first);
          std::fprintf(stderr,
                       "mmr watchdog: trial %zu exceeded the %.3f s "
                       "trial timeout and is still running\n",
                       it->first, timeout_s_);
          it = deadlines_.erase(it);  // warn once per trial
        } else {
          next = std::min(next, it->second);
          ++it;
        }
      }
      cv_.wait_until(lock, next);
    }
  }

  const double timeout_s_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::size_t, std::chrono::steady_clock::time_point> deadlines_;
  std::set<std::size_t> flagged_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

template <>
ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry* reg = [] {
    auto* r = new ScenarioRegistry("scenario");
    register_builtin_scenarios(*r);
    return r;
  }();
  return *reg;
}

template <>
ControllerRegistry& ControllerRegistry::instance() {
  static ControllerRegistry* reg = [] {
    auto* r = new ControllerRegistry("controller");
    register_builtin_controllers(*r);
    return r;
  }();
  return *reg;
}

template <typename Product, typename Spec, typename... Context>
void Registry<Product, Spec, Context...>::add(const std::string& name,
                                              Factory factory) {
  MMR_EXPECTS(!name.empty());
  MMR_EXPECTS(factory != nullptr);
  factories_[name] = std::move(factory);
}

template <typename Product, typename Spec, typename... Context>
bool Registry<Product, Spec, Context...>::contains(
    const std::string& name) const {
  return factories_.count(name) != 0;
}

template <typename Product, typename Spec, typename... Context>
std::vector<std::string> Registry<Product, Spec, Context...>::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

template <typename Product, typename Spec, typename... Context>
auto Registry<Product, Spec, Context...>::at(const std::string& name) const
    -> const Factory& {
  const auto it = factories_.find(name);
  if (it == factories_.end()) throw_unknown(kind_, name, names());
  return it->second;
}

template class Registry<LinkWorld, ScenarioSpec>;
template class Registry<std::unique_ptr<core::BeamController>, ControllerSpec,
                        LinkWorld, ScenarioConfig>;

EngineResult Engine::run(const ExperimentSpec& spec, TelemetrySink* sink) {
  return run(spec, sink, EngineOptions{});
}

EngineResult Engine::run(const ExperimentSpec& spec, TelemetrySink* sink,
                         const EngineOptions& options) {
  MMR_EXPECTS(spec.trials >= 1);
  MMR_EXPECTS(options.trial_timeout_s >= 0.0);
  // Journal replay restores summaries/faults/labels but not per-tick
  // sample series; campaigns that need samples cannot resume.
  MMR_EXPECTS(options.journal == nullptr || !spec.record_samples);
  MMR_EXPECTS(options.shard.valid());
  // A sharded worker's sample table would be full of holes.
  MMR_EXPECTS(!options.shard.enabled() || !spec.record_samples);
  // A shard worker may only checkpoint into its own shard's journal.
  MMR_EXPECTS(options.journal == nullptr ||
              options.journal->shard() == options.shard);
  const ScenarioRegistry& scenarios = ScenarioRegistry::instance();
  const ControllerRegistry& controllers = ControllerRegistry::instance();
  // Fail fast on the authored names; `customize` may rewrite them per
  // trial, and those rewrites are validated inside the trial body.
  scenarios.at(spec.scenario.name);
  controllers.at(spec.controller.name);

  EngineResult result;
  if (spec.label) result.labels.assign(spec.trials, "");
  if (spec.record_samples) result.samples.resize(spec.trials);
  result.fault_events.resize(spec.trials);
  // Per-trial RunConfigs survive the sweep so the sink replay can emit
  // faithful on_run_begin events (customize may vary them per trial).
  std::vector<RunConfig> run_configs(spec.trials);
  // Index-addressed failure slots (workers never share a slot).
  std::vector<std::unique_ptr<TrialFailure>> failure_slots(spec.trials);
  const std::map<std::size_t, JournalTrial>* journaled =
      options.journal != nullptr ? &options.journal->completed() : nullptr;
  TrialWatchdog watchdog(options.trial_timeout_s);

  SweepRunner runner({spec.trials, spec.jobs, spec.seed});
  // Trials only write to index-addressed slots; see sim/sweep.h for the
  // determinism contract.
  result.trials = runner.run([&](TrialContext& ctx) -> core::LinkSummary {
    if (options.shard.enabled() && !options.shard.owns(ctx.index)) {
      // Another shard owns this trial: leave a default slot. ctx was
      // derived but never drawn from, so the owned trials' streams are
      // exactly the 1-process streams.
      return core::LinkSummary{};
    }
    if (journaled != nullptr) {
      const auto it = journaled->find(ctx.index);
      if (it != journaled->end()) {
        // Checkpoint replay: restore the journaled result bit-exactly
        // without executing the trial. (Timing is patched in after the
        // barrier; the runner would otherwise overwrite it with the
        // near-zero replay cost.)
        const JournalTrial& jt = it->second;
        if (spec.label) result.labels[ctx.index] = jt.label;
        result.fault_events[ctx.index] = jt.faults;
        run_configs[ctx.index] = spec.run;
        return jt.summary;
      }
    }
    const std::size_t max_attempts = 1 + options.trial_retries;
    std::string last_error;
    core::LinkSummary summary;
    double wall_s = 0.0, cpu_s = 0.0;
    bool succeeded = false;
    // Per-trial scratch for the world's scoring hot path, kept across
    // retry attempts: each attempt's world takes fresh tick ids from its
    // constructor's set_time on, so it never reads a table an earlier
    // attempt left behind.
    TrialWorkspace workspace;
    watchdog.begin(ctx.index);
    for (std::size_t attempt = 0; attempt < max_attempts && !succeeded;
         ++attempt) {
      try {
        // Every attempt restarts from pristine copies of the spec and the
        // SAME deterministic Rng stream (ctx is untouched), so a retried
        // trial that succeeds is bit-identical to one that succeeded
        // first try.
        ScenarioSpec scenario = spec.scenario;
        ControllerSpec controller = spec.controller;
        RunConfig rc = spec.run;
        if (spec.seed_policy == SeedPolicy::kPerTrialStream) {
          scenario.config.seed = ctx.stream_seed;
        }
        if (spec.customize) spec.customize(ctx, scenario, controller, rc);
        if (spec.label) result.labels[ctx.index] = spec.label(ctx);
        // A live plan with seed 0 gets a per-trial stream decoupled from
        // the world seed, so jobs=K stays bit-identical to jobs=1.
        if (rc.faults.enabled() && rc.faults.seed == 0) {
          rc.faults.seed =
              Rng::derive_stream_seed(ctx.stream_seed, kFaultSeedStream);
        }
        run_configs[ctx.index] = rc;

        const auto start = std::chrono::steady_clock::now();
        const double cpu_start = thread_cpu_now_s();
        LinkWorld world = scenarios.make(scenario);
        world.bind_workspace(&workspace);
        const std::unique_ptr<core::BeamController> ctrl =
            controllers.make(world, scenario.config, controller);
        RunResult rr = run_experiment(world, *ctrl, rc);
        cpu_s = thread_cpu_now_s() - cpu_start;
        wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
        if (spec.record_samples) {
          result.samples[ctx.index] = std::move(rr.samples);
        }
        result.fault_events[ctx.index] = std::move(rr.fault_events);
        summary = rr.summary;
        succeeded = true;
      } catch (const std::exception& e) {
        last_error = e.what();
      } catch (...) {
        last_error = "unknown exception";
      }
    }
    watchdog.end(ctx.index);
    if (!succeeded) {
      // Quarantine: the trial keeps its slot (default summary), the sweep
      // keeps running, and the failure is reported out-of-band.
      auto failure = std::make_unique<TrialFailure>();
      failure->index = ctx.index;
      failure->stream_seed = ctx.stream_seed;
      failure->attempts = max_attempts;
      failure->error = last_error;
      failure_slots[ctx.index] = std::move(failure);
      return core::LinkSummary{};
    }
    if (options.journal != nullptr) {
      // Checkpoint the completed trial (append + fsync). An I/O failure
      // here intentionally propagates and aborts the sweep: continuing
      // without durability would break the resume contract silently.
      // Frozen timing journals 0.0, so the file is a pure function of
      // (spec, seed) like the output.
      JournalTrial jt;
      jt.index = ctx.index;
      jt.wall_s = options.freeze_timing ? 0.0 : wall_s;
      jt.cpu_s = options.freeze_timing ? 0.0 : cpu_s;
      if (spec.label) jt.label = result.labels[ctx.index];
      jt.summary = summary;
      jt.faults = result.fault_events[ctx.index];
      options.journal->record(jt);
    }
    return summary;
  });
  result.timing = runner.timing();
  if (options.shard.enabled()) {
    result.skipped_trials =
        spec.trials - options.shard.owned_of(spec.trials);
  }

  // The worker's pass over its owned trials is complete: seal the shard
  // journal (fsync'd count + fingerprint footer) so the file becomes
  // safe to copy between machines and the merger can tell "finished"
  // from "crashed mid-run". Unsharded journals are never copied around,
  // so they stay seal-free and byte-compatible with earlier formats.
  if (options.journal != nullptr && options.shard.enabled()) {
    options.journal->seal();
  }

  // Patch replayed trials' timing back to what the original run measured
  // (the runner only saw the near-zero replay cost).
  if (journaled != nullptr) {
    for (const auto& [index, jt] : *journaled) {
      if (index >= result.trials.size()) continue;
      result.trials[index].wall_s = jt.wall_s;
      result.trials[index].cpu_s = jt.cpu_s;
      ++result.replayed_trials;
    }
  }

  // Fold watchdog flags into the failure slots: a flagged trial that
  // completed anyway gets a timing-only TrialFailure (empty error).
  for (std::size_t index : watchdog.flagged()) {
    if (failure_slots[index] == nullptr) {
      failure_slots[index] = std::make_unique<TrialFailure>();
      failure_slots[index]->index = index;
      failure_slots[index]->stream_seed =
          Rng::derive_stream_seed(spec.seed, index);
      failure_slots[index]->attempts = 1 + options.trial_retries;
    }
    failure_slots[index]->timed_out = true;
  }
  for (auto& slot : failure_slots) {
    if (slot != nullptr) result.failures.push_back(std::move(*slot));
  }

  if (options.freeze_timing) {
    result.timing.wall_s = 0.0;
    result.timing.serial_equivalent_s = 0.0;
    for (auto& trial : result.trials) {
      trial.wall_s = 0.0;
      trial.cpu_s = 0.0;
    }
  }

  // Quarantined trials carry default summaries; keep them out of the
  // aggregate so one bad trial cannot poison the campaign statistics.
  result.aggregate = summarize_survivors(result.trials, result.failures);

  if (sink != nullptr) {
    std::size_t next_failure = 0;
    for (std::size_t i = 0; i < result.trials.size(); ++i) {
      if (spec.record_samples) {
        sink->on_run_begin(run_configs[i]);
        for (const core::LinkSample& s : result.samples[i]) sink->on_sample(s);
      }
      for (const core::FaultEvent& ev : result.fault_events[i]) {
        sink->on_fault(ev);
      }
      if (next_failure < result.failures.size() &&
          result.failures[next_failure].index == i) {
        sink->on_trial_failure(result.failures[next_failure]);
        ++next_failure;
      }
      sink->on_run_end(result.trials[i].value);
    }
    SweepRecord record;
    record.name = spec.name;
    record.trials = result.trials;
    record.timing = result.timing;
    if (spec.label) record.labels = result.labels;
    record.failures = result.failures;
    sink->on_sweep(record);
  }
  return result;
}

}  // namespace mmr::sim
