// The resume contract, proven the hard way: a child process running a
// journaled campaign through the bench CLI helpers is SIGKILLed mid-sweep;
// the parent resumes from the journal and the resulting --json-out bytes
// (and, for a network campaign, its network record) must be identical to
// an uninterrupted run. Timing is frozen in every run (--freeze-timing)
// since wall-clock can never reproduce.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/engine.h"
#include "sim/journal.h"
#include "sweep_cli.h"

namespace mmr {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Set only in the forked child: there every trial after the first two
/// to start blocks until the SIGKILL, so the kill always lands mid-sweep
/// with exactly two trials journaled, however the child is scheduled. (The
/// rule counts starts, not indices: the pool's workers claim indices in
/// order from one counter, but which claimed trials reach the body first
/// is up to the OS scheduler.)
bool g_block_late_trials = false;
std::atomic<std::size_t> g_trials_started{0};

/// The campaign under test. Faults are enabled so journal replay has to
/// restore fault-event streams, and labels so it has to restore those.
sim::ExperimentSpec crash_spec() {
  sim::ExperimentSpec spec;
  spec.name = "crash_resume_demo";
  spec.scenario.name = "indoor";
  spec.controller.name = "mmreliable";
  spec.run.duration_s = 0.1;
  spec.run.faults.probe_drop_prob = 0.2;
  spec.trials = 6;
  spec.jobs = 2;
  spec.seed = 11;
  spec.seed_policy = sim::SeedPolicy::kPerTrialStream;
  spec.customize = [](const sim::TrialContext&, sim::ScenarioSpec&,
                      sim::ControllerSpec&, sim::RunConfig&) {
    if (g_block_late_trials && g_trials_started.fetch_add(1) >= 2) {
      for (;;) ::pause();
    }
  };
  spec.label = [](const sim::TrialContext& ctx) {
    return "rep" + std::to_string(ctx.index);
  };
  return spec;
}

/// The same campaign as a small network: 2 cells x 2 UEs with faults on,
/// and cells close enough that UEs hand over within the run, so replay
/// has to restore every link's report and fault stream and the handovers.
sim::ExperimentSpec crash_network_spec() {
  sim::ExperimentSpec spec = crash_spec();
  spec.name = "crash_resume_network_demo";
  spec.scenario.name = "indoor_crowd";
  spec.scenario.config.tx_power_dbm = 14.0;
  spec.scenario.ue_velocity = {1.0, 0.0};
  net::NetworkLayout layout;
  layout.num_cells = 2;
  layout.ues_per_cell = 2;
  layout.cell_spacing_m = 12.0;
  spec.network = layout;
  return spec;
}

/// A finished campaign's outputs: its --json-out bytes, then its network
/// record for a network campaign.
std::string outputs(const sim::ExperimentSpec& spec,
                    const sim::EngineResult& result,
                    const std::string& json_out) {
  std::ostringstream os;
  os << read_all(json_out);
  if (spec.network) sim::write_network_json(os, spec, result);
  return os.str();
}

class CrashResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/mmr_crash_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
  }
  std::string dir_;
};

TEST_F(CrashResumeTest, SigkilledCampaignResumesByteIdentically) {
  for (const sim::ExperimentSpec& spec : {crash_spec(), crash_network_spec()}) {
    SCOPED_TRACE(spec.name);
    const std::string journal_base = dir_ + "/ckpt";
    const std::string journal_file =
        bench::detail::journal_path(journal_base, spec.name);
    const std::string out = dir_ + "/" + spec.name;

    // --- child: run the journaled campaign until we kill it -------------
    const pid_t child = ::fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
      g_block_late_trials = true;
      bench::SweepCliOptions opts;
      opts.jobs = 2;
      opts.resume = journal_base;
      opts.json_out = out + ".child.json";
      opts.freeze_timing = true;
      (void)bench::run_campaign(spec, opts);
      ::_exit(0);  // never reached: the third trial blocks until SIGKILL
    }

    // Wait for the two checkpointed trials, then SIGKILL mid-flight.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      if (count_occurrences(read_all(journal_file), "{\"trial\":") >= 2) {
        break;
      }
      int status = 0;
      if (::waitpid(child, &status, WNOHANG) == child) {
        FAIL() << "the child campaign exited before the kill";
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // The kill must have left a usable journal with partial progress.
    const std::string journal_bytes = read_all(journal_file);
    EXPECT_EQ(count_occurrences(journal_bytes, "{\"trial\":"), 2u);
    // No committed --json-out: the AtomicFile was never committed.
    EXPECT_TRUE(read_all(out + ".child.json").empty());

    // --- parent: resume -------------------------------------------------
    bench::SweepCliOptions resume_opts;
    resume_opts.jobs = 2;
    resume_opts.resume = journal_base;
    resume_opts.json_out = out + ".resumed.json";
    resume_opts.freeze_timing = true;
    const sim::EngineResult resumed = bench::run_campaign(spec, resume_opts);
    EXPECT_EQ(resumed.replayed_trials, 2u);
    EXPECT_TRUE(resumed.failures.empty());

    // --- reference: the same campaign, uninterrupted, no journal --------
    bench::SweepCliOptions ref_opts;
    ref_opts.jobs = 2;
    ref_opts.json_out = out + ".reference.json";
    ref_opts.freeze_timing = true;
    const sim::EngineResult reference = bench::run_campaign(spec, ref_opts);

    const std::string resumed_bytes =
        outputs(spec, resumed, resume_opts.json_out);
    const std::string reference_bytes =
        outputs(spec, reference, ref_opts.json_out);
    ASSERT_FALSE(reference_bytes.empty());
    EXPECT_NE(reference_bytes.find("{\"fault\": "), std::string::npos);
    if (spec.network) {
      EXPECT_NE(reference_bytes.find("{\"handover\": "), std::string::npos);
    }
    EXPECT_EQ(resumed_bytes, reference_bytes)
        << "resumed output must be byte-identical to an uninterrupted run";
  }
}

TEST_F(CrashResumeTest, SecondResumeReplaysEveryTrial) {
  sim::ExperimentSpec spec = crash_spec();
  spec.customize = nullptr;  // no need to be slow here
  spec.trials = 3;
  const std::string path = dir_ + "/done.journal";

  sim::EngineOptions opts;
  opts.freeze_timing = true;
  std::string first_json;
  {
    sim::CampaignJournal journal(path, sim::campaign_key(spec));
    opts.journal = &journal;
    std::ostringstream os;
    sim::JsonLinesSink sink(os);
    const sim::EngineResult r = sim::Engine().run(spec, &sink, opts);
    EXPECT_EQ(r.replayed_trials, 0u);
    first_json = os.str();
  }
  {
    sim::CampaignJournal journal(path, sim::campaign_key(spec));
    EXPECT_EQ(journal.completed().size(), spec.trials);
    opts.journal = &journal;
    std::ostringstream os;
    sim::JsonLinesSink sink(os);
    const sim::EngineResult r = sim::Engine().run(spec, &sink, opts);
    EXPECT_EQ(r.replayed_trials, spec.trials);
    EXPECT_EQ(os.str(), first_json);
  }
}

TEST_F(CrashResumeTest, MismatchedCampaignJournalIsRejected) {
  sim::ExperimentSpec spec = crash_spec();
  spec.customize = nullptr;
  spec.trials = 2;
  const std::string path = dir_ + "/mismatch.journal";
  { sim::CampaignJournal journal(path, sim::campaign_key(spec)); }
  sim::ExperimentSpec other = spec;
  other.run.faults.probe_drop_prob = 0.5;  // different config fingerprint
  EXPECT_THROW(sim::CampaignJournal(path, sim::campaign_key(other)),
               sim::JournalMismatchError);
}

}  // namespace
}  // namespace mmr
