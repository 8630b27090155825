// fig18_mobile: the Fig. 18b/c mobile-blockage campaign.
//
// Every batch is one Engine::run with a fresh CampaignJournal attached,
// as a --resume campaign runs: kWorldsPerBatch worlds drawn from the seed
// (indoor_sparse at 14 dBm, a random walk, one or two crossing blockers),
// each faced by mmreliable, reactive, beamspy and widebeam in turn. The
// timed phase runs batches until the CPU budget is spent; its first
// kScoredBatches batches are the scored prefix the simulated metrics and
// the traced replay use, so both repeat exactly at a fixed seed.
//
// Untraced, a trial is timed from outside: on one worker, consecutive
// entries into the decorated scenario factory mark trial boundaries. The
// traced pass replays each prefix trial through the public pieces --
// registry make, bind_workspace, start/step, set_time, true_snr_db,
// McsTable::nr, summarize_link, journal record -- so channel and scoring
// time stay apart from the controller's.
#include <cmath>
#include <filesystem>
#include <sstream>

#include "clock.h"
#include "common/rng.h"
#include "decorators.h"
#include "phy/mcs.h"
#include "sim/engine.h"
#include "sim/journal.h"
#include "sim/workspace.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace mmr;

constexpr const char* kSchemes[] = {"mmreliable", "reactive", "beamspy",
                                    "widebeam"};
constexpr std::size_t kNumSchemes = 4;
constexpr std::size_t kWorldsPerBatch = 8;
constexpr std::size_t kScoredBatches = 4;
constexpr std::size_t kSetupReps = 7;
constexpr std::size_t kTicksPerTrial = 400;  // RunConfig: 1 s at 2.5 ms
constexpr double kTxPowerDbm = 14.0;
/// Sub-stream of the run seed for the set-up (warm-up) campaign.
constexpr std::uint64_t kWarmupStream = 0xF18;

/// Trial `index` of a batch: world index / scheme, world-major, so the
/// four schemes face each world back to back.
void configure_trial(std::uint64_t batch_seed, std::size_t index,
                     sim::ScenarioSpec& scenario,
                     sim::ControllerSpec& controller) {
  const std::size_t world = index / kNumSchemes;
  scenario.config.seed = Rng::derive_stream_seed(batch_seed, world);
  Rng rng = Rng(batch_seed).fork(world);
  scenario.ue_velocity = {0.0, rng.uniform(-1.5, -0.4)};
  const double speed1 = rng.uniform(1.0, 2.5);
  const double cross1 = rng.uniform(0.3, 0.55);
  scenario.blockers.push_back({cross1, speed1, 30.0});
  if (rng.bernoulli(0.4)) {
    const double speed2 = rng.uniform(1.5, 3.0);
    const double cross2 = rng.uniform(0.65, 0.85);
    scenario.blockers.push_back({cross2, speed2, 30.0});
  }
  controller.name = decorated(kSchemes[index % kNumSchemes]);
}

sim::ExperimentSpec campaign(std::uint64_t batch_seed, std::size_t worlds) {
  sim::ExperimentSpec spec;
  spec.name = "perfbench_fig18_mobile";
  spec.scenario.name = decorated("indoor_sparse");
  spec.scenario.config.tx_power_dbm = kTxPowerDbm;
  spec.trials = worlds * kNumSchemes;
  spec.jobs = 1;
  spec.seed = batch_seed;
  spec.seed_policy = sim::SeedPolicy::kFixed;
  spec.customize = [batch_seed](const sim::TrialContext& ctx,
                                sim::ScenarioSpec& scenario,
                                sim::ControllerSpec& controller,
                                sim::RunConfig& /*run*/) {
    configure_trial(batch_seed, ctx.index, scenario, controller);
  };
  return spec;
}

std::uint64_t batch_seed(std::uint64_t seed, std::size_t batch) {
  return Rng::derive_stream_seed(seed, batch);
}

bool same_summary(const core::LinkSummary& a, const core::LinkSummary& b) {
  return same_bits(a.reliability, b.reliability) &&
         same_bits(a.mean_throughput_bps, b.mean_throughput_bps) &&
         same_bits(a.mean_spectral_efficiency, b.mean_spectral_efficiency) &&
         same_bits(a.throughput_reliability_product,
                   b.throughput_reliability_product) &&
         a.num_samples == b.num_samples;
}

/// The journal of a finished batch reloads with every trial complete and
/// bit-identical to the engine's result.
bool journal_complete(const std::string& path,
                      const sim::EngineResult& result) {
  const sim::LoadedJournal loaded = sim::read_journal_file(path);
  if (loaded.torn_tail || loaded.trials.size() != result.trials.size()) {
    return false;
  }
  std::vector<bool> seen(result.trials.size(), false);
  for (const sim::JournalTrial& jt : loaded.trials) {
    if (jt.index >= seen.size() || seen[jt.index]) return false;
    seen[jt.index] = true;
    if (!same_summary(jt.summary, result.trials[jt.index].value)) return false;
  }
  return true;
}

struct UntracedBatch {
  std::vector<core::LinkSummary> summaries;
  double cpu_s = 0.0;
};

}  // namespace

WorkloadOutput run_fig18_mobile(const Options& opt, Checks& checks,
                                Tracer& tracer) {
  WorkloadOutput out;
  sim::Engine engine;
  const std::string journal_path = opt.work_dir + "/fig18_mobile.journal";
  auto open_journal = [&](const sim::ExperimentSpec& spec) {
    std::filesystem::remove(journal_path);
    return std::make_unique<sim::CampaignJournal>(journal_path,
                                                  sim::campaign_key(spec));
  };

  // Set-up: spec, journal open and one warm-up trial per scheme, from a
  // cold pattern cache each time. Every world build runs a calibration
  // chunk (excluded from the timings).
  Calibrator calib;
  std::vector<TrialMark> marks;
  marks.reserve(4096);
  instrumentation().calibrator = &calib;
  auto chunk_time = [&marks] {
    double sum = 0.0;
    for (const TrialMark& m : marks) sum += m.chunk_s;
    return sum;
  };
  std::vector<double> setup_s;
  CachePhase setup_cache;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    marks.clear();
    instrumentation().trial_marks = &marks;
    const double t0 = process_cpu_s();
    clear_caches();
    setup_cache.start();
    const sim::ExperimentSpec spec =
        campaign(Rng::derive_stream_seed(opt.seed, kWarmupStream), 1);
    auto journal = open_journal(spec);
    sim::EngineOptions eo;
    eo.journal = journal.get();
    const sim::EngineResult warm = engine.run(spec, nullptr, eo);
    const double raw = process_cpu_s() - t0 - chunk_time();
    instrumentation().trial_marks = nullptr;
    setup_s.push_back(raw * calib.factor());
    setup_cache.stop();
    checks.expect(warm.failures.empty(), "warm-up campaign had no failures");
  }

  // Timed phase: whole journaled campaigns until the CPU budget is spent.
  TimedPhase timed;
  std::vector<UntracedBatch> scored;
  double engine_overhead_s = 0.0;
  std::size_t trials = 0;
  CachePhase timed_cache;
  timed_cache.start();
  for (std::size_t b = 0;; ++b) {
    const sim::ExperimentSpec spec =
        campaign(batch_seed(opt.seed, b), kWorldsPerBatch);
    marks.clear();
    const double t_open = process_cpu_s();
    auto journal = open_journal(spec);
    sim::EngineOptions eo;
    eo.journal = journal.get();
    instrumentation().trial_marks = &marks;
    const double t0 = process_cpu_s();
    const sim::EngineResult result = engine.run(spec, nullptr, eo);
    const double t1 = process_cpu_s();
    instrumentation().trial_marks = nullptr;
    journal.reset();

    const double raw = t1 - t_open - chunk_time();
    checks.expect(marks.size() == result.trials.size(),
                  "one world build per trial");
    for (std::size_t i = 0; i < marks.size(); ++i) {
      timed.add_step((i + 1 < marks.size() ? marks[i + 1].entry_s : t1) -
                     marks[i].entry_s - marks[i].chunk_s);
    }
    const std::size_t link_ticks = result.trials.size() * kTicksPerTrial;
    timed.add_segment(static_cast<double>(link_ticks), raw, calib.factor());
    double trial_cpu = 0.0;
    std::size_t samples = 0;
    for (const auto& t : result.trials) {
      trial_cpu += t.cpu_s;
      samples += t.value.num_samples;
    }
    checks.expect(samples == link_ticks,
                  "link-tick numerator equals the summed num_samples");
    // The engine's per-trial cpu_s includes the chunk run in the factory.
    engine_overhead_s += (t1 - t0) - trial_cpu;
    trials += result.trials.size();
    checks.expect(result.failures.empty(), "no trial quarantined");
    checks.expect(journal_complete(journal_path, result),
                  "journal reloads with every trial complete");
    if (b < kScoredBatches) {
      UntracedBatch ub;
      for (const auto& t : result.trials) ub.summaries.push_back(t.value);
      ub.cpu_s = raw * timed.segment_factor.back();
      scored.push_back(std::move(ub));
    }
    if (b + 1 >= kScoredBatches && timed.raw_cpu_s() >= opt.seconds &&
        trials >= kMinTimedSteps) {
      break;
    }
  }
  timed_cache.stop();
  instrumentation().calibrator = nullptr;
  std::filesystem::remove(journal_path);
  add_common_end_to_end(out, checks, setup_s, timed);

  // Simulated metrics over the scored prefix.
  std::vector<double> mmr_reliability;
  double mmr_trp = 0.0, reactive_trp = 0.0;
  std::size_t worlds = 0;
  for (const UntracedBatch& ub : scored) {
    for (std::size_t i = 0; i < ub.summaries.size(); ++i) {
      const core::LinkSummary& s = ub.summaries[i];
      checks.expect(std::isfinite(s.reliability) && s.reliability >= 0.0 &&
                        s.reliability <= 1.0 &&
                        std::isfinite(s.throughput_reliability_product) &&
                        s.throughput_reliability_product >= 0.0,
                    "trial summary finite and in range");
      if (i % kNumSchemes == 0) {
        mmr_reliability.push_back(s.reliability);
        mmr_trp += s.throughput_reliability_product;
        ++worlds;
      } else if (i % kNumSchemes == 1) {
        reactive_trp += s.throughput_reliability_product;
      }
    }
  }
  const double trp_gain = reactive_trp > 0.0 ? mmr_trp / reactive_trp : 0.0;
  checks.expect(trp_gain > 0.0 && std::isfinite(trp_gain),
                "trp_gain finite and positive");
  out.workload_end_to_end.push_back(
      {"mmr_reliability", median(mmr_reliability), "fraction"});
  out.workload_end_to_end.push_back({"trp_gain", trp_gain, "ratio"});
  {
    std::ostringstream note;
    note << "timed " << trials << " trials in "
         << timed.segment_raw_cpu_s.size()
         << " journaled campaigns; scored prefix " << worlds
         << " worlds x 4 schemes";
    out.notes.push_back(note.str());
  }
  if (!opt.trace) return out;

  // Traced pass: replay the scored prefix through the public pieces.
  instrumentation().tracer = &tracer;
  const SpanId trial_span = tracer.intern("fig18.trial");
  const SpanId set_time = tracer.intern("channel.set_time");
  const SpanId score = tracer.intern("sim.score");
  const SpanId summarize = tracer.intern("sim.summarize");
  const SpanId record = tracer.intern("sim.journal_record");
  const phy::McsTable& mcs = phy::McsTable::nr();
  const sim::ScenarioRegistry& scenarios = sim::ScenarioRegistry::instance();
  const sim::ControllerRegistry& controllers =
      sim::ControllerRegistry::instance();
  std::size_t mismatched = 0;
  double traced_cpu = 0.0, untraced_cpu = 0.0;
  for (std::size_t b = 0; b < scored.size(); ++b) {
    const double t0 = process_cpu_s();
    double chunks = 0.0;
    const std::uint64_t bs = batch_seed(opt.seed, b);
    const sim::ExperimentSpec spec = campaign(bs, kWorldsPerBatch);
    auto journal = open_journal(spec);
    for (std::size_t i = 0; i < spec.trials; ++i) {
      tracer.begin_step(trial_span, static_cast<std::int64_t>(b),
                        static_cast<std::int64_t>(i));
      sim::ScenarioSpec scenario = spec.scenario;
      sim::ControllerSpec controller = spec.controller;
      const sim::RunConfig rc = spec.run;
      configure_trial(bs, i, scenario, controller);
      sim::TrialWorkspace workspace;
      sim::LinkWorld world = scenarios.make(scenario);
      world.bind_workspace(&workspace);
      const std::unique_ptr<core::BeamController> ctrl =
          controllers.make(world, scenario.config, controller);
      const double bandwidth = world.config().spec.bandwidth_hz;
      const core::LinkProbeInterface link = world.probe_interface();
      const auto num_ticks = static_cast<std::size_t>(rc.duration_s / rc.tick_s);
      std::vector<core::LinkSample> samples_k;
      samples_k.reserve(num_ticks);
      for (std::size_t k = 0; k < num_ticks; ++k) {
        const double t = static_cast<double>(k) * rc.tick_s;
        {
          Span span(tracer, set_time);
          world.set_time(t);
        }
        if (k == 0) {
          ctrl->start(t, link);
        } else {
          ctrl->step(t, link);
        }
        Span span(tracer, score);
        core::LinkSample sample;
        sample.t_s = t;
        sample.available = ctrl->link_available(t);
        sample.snr_db = world.true_snr_db(ctrl->tx_weights());
        sample.throughput_bps =
            sample.available ? mcs.throughput_bps(sample.snr_db, bandwidth,
                                                  rc.protocol_overhead)
                             : 0.0;
        samples_k.push_back(sample);
      }
      core::LinkSummary summary;
      {
        Span span(tracer, summarize);
        summary = core::summarize_link(samples_k, rc.outage_snr_db, bandwidth);
      }
      {
        Span span(tracer, record);
        sim::JournalTrial jt;
        jt.index = i;
        jt.summary = summary;
        journal->record(jt);
      }
      tracer.end_step();
      chunks += calib.sample();
      if (!same_summary(summary, scored[b].summaries[i])) ++mismatched;
    }
    journal.reset();
    traced_cpu += (process_cpu_s() - t0 - chunks) * calib.factor();
    untraced_cpu += scored[b].cpu_s;
  }
  instrumentation().tracer = nullptr;
  std::filesystem::remove(journal_path);
  checks.expect(mismatched == 0,
                "traced replay reproduces every prefix LinkSummary bit for bit");

  add_layer_metrics(out, checks, tracer, 0, tracer.steps().size());
  const SpanTotals totals = tracer.totals(0, tracer.steps().size());
  const SpanAgg rec = totals.of(record);
  out.workload_per_layer.push_back(
      {"sim.journal_record_us",
       rec.count > 0 ? static_cast<double>(rec.total_ns) / rec.count / 1e3 : 0.0,
       "us"});
  const SpanAgg sum = totals.of(summarize);
  out.workload_per_layer.push_back(
      {"sim.summarize_us",
       sum.count > 0 ? static_cast<double>(sum.total_ns) / sum.count / 1e3 : 0.0,
       "us"});
  out.workload_per_layer.push_back(
      {"sim.engine_overhead_us", engine_overhead_s / static_cast<double>(trials) * 1e6,
       "us"});
  out.per_layer.push_back(
      {"array.pattern_cache_hit_ratio", timed_cache.hit_ratio(), "fraction"});
  out.per_layer.push_back({"array.pattern_cache_setup_hit_ratio",
                           setup_cache.hit_ratio(), "fraction"});
  // Same trials on both sides, in calibrated CPU time: traced rate /
  // untraced rate.
  out.per_layer.push_back(
      {"trace.overhead_ratio", untraced_cpu / traced_cpu, "ratio"});
  return out;
}

}  // namespace perfbench
