#include "sim/engine.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <span>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/stats.h"
#include "sim/journal.h"
#include "sim/telemetry.h"
#include "sim/workspace.h"

namespace mmr::sim {
namespace {

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
  // A network trial yields per-link reports, not one tick series.
  MMR_EXPECTS(!spec.network || !spec.record_samples);
  if (spec.network) {
    net::register_net_builtins();
    spec.network->validate();
  }
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
  if (spec.network) result.networks.resize(spec.trials);
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
        // The fingerprint keys network campaigns apart from link ones.
        MMR_EXPECTS(jt.network.has_value() == spec.network.has_value());
        if (spec.label) result.labels[ctx.index] = jt.label;
        result.fault_events[ctx.index] = jt.faults;
        if (spec.network) result.networks[ctx.index] = *jt.network;
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
        // the world seed, so jobs=K stays bit-identical to jobs=1. (A
        // network seeds its links' plans itself.)
        if (!spec.network && rc.faults.enabled() && rc.faults.seed == 0) {
          rc.faults.seed =
              Rng::derive_stream_seed(ctx.stream_seed, kFaultSeedStream);
        }
        run_configs[ctx.index] = rc;

        const auto start = std::chrono::steady_clock::now();
        const double cpu_start = thread_cpu_now_s();
        if (spec.network) {
          net::NetworkSpec network_spec{*spec.network, scenario, controller,
                                        rc};
          net::Network network(network_spec, scenario.config.seed,
                               &workspace);
          result.networks[ctx.index] = network.run();
          summary = result.networks[ctx.index].network;
        } else {
          LinkWorld world = scenarios.make(scenario);
          world.bind_workspace(&workspace);
          const std::unique_ptr<core::BeamController> ctrl =
              controllers.make(world, scenario.config, controller);
          RunResult rr = run_experiment(world, *ctrl, rc);
          if (spec.record_samples) {
            result.samples[ctx.index] = std::move(rr.samples);
          }
          result.fault_events[ctx.index] = std::move(rr.fault_events);
          summary = rr.summary;
        }
        cpu_s = thread_cpu_now_s() - cpu_start;
        wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
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
      if (spec.network) jt.network = result.networks[ctx.index];
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
      if (spec.network) {
        for (const net::LinkReport& link : result.networks[i].links) {
          for (const core::FaultEvent& ev : link.faults) sink->on_fault(ev);
        }
        for (const core::HandoverEvent& ev : result.networks[i].handovers) {
          sink->on_handover(ev);
        }
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

namespace {

void write_cdf(std::ostream& os, const char* key,
               std::span<const double> values) {
  os << "\"" << key << "\": [";
  for (int p = 0; p <= 100; p += 5) {
    if (p != 0) os << ", ";
    os << percentile(values, static_cast<double>(p));
  }
  os << "]";
}

}  // namespace

void write_network_json(std::ostream& os, const ExperimentSpec& spec,
                        const EngineResult& result) {
  MMR_EXPECTS(spec.network.has_value());
  MMR_EXPECTS(!result.networks.empty());
  const net::NetworkLayout& layout = *spec.network;
  const double duration_s = spec.run.duration_s;
  std::vector<double> availability;
  std::vector<double> reliability;
  std::vector<double> throughput;
  availability.reserve(result.networks.size() * layout.num_links());
  reliability.reserve(availability.capacity());
  throughput.reserve(availability.capacity());
  double mean_availability = 0.0;
  std::size_t handovers_total = 0;
  for (const net::NetworkResult& detail : result.networks) {
    for (const net::LinkReport& link : detail.links) {
      availability.push_back(link.availability(duration_s));
      reliability.push_back(link.summary.reliability);
      throughput.push_back(link.summary.mean_throughput_bps);
      handovers_total += link.handovers;
    }
  }
  for (const double a : availability) {
    mean_availability += a / static_cast<double>(availability.size());
  }

  const auto flags = os.flags();
  const auto precision = os.precision();
  os.precision(10);
  os << "{\"bench\": \"" << spec.name << "\", \"network\": {"
     << "\"cells\": " << layout.num_cells
     << ", \"ues_per_cell\": " << layout.ues_per_cell
     << ", \"links\": " << layout.num_links()
     << ", \"trials\": " << spec.trials << ", \"jobs\": " << spec.jobs
     << ", \"seed\": " << spec.seed << ", \"controller\": \""
     << spec.controller.name << "\", \"scenario\": \""
     << spec.scenario.name << "\", \"duration_s\": " << duration_s
     << "}, \"aggregate\": {"
     << "\"mean_availability\": " << mean_availability
     << ", \"mean_reliability\": " << result.aggregate.mean_reliability
     << ", \"mean_throughput_bps\": "
     << result.aggregate.mean_throughput_bps
     << ", \"handovers_total\": " << handovers_total << "}, \"cdf\": {";
  write_cdf(os, "availability", availability);
  os << ", ";
  write_cdf(os, "reliability", reliability);
  os << ", ";
  write_cdf(os, "throughput_bps", throughput);
  os << "}}\n";
  os.precision(precision);
  os.flags(flags);
}

}  // namespace mmr::sim
