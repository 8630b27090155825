// sim::CampaignJournal: checkpoint round-trip (link and network trials),
// fingerprint-keyed mismatch rejection, torn-tail tolerance, and the
// refusal to replace a journal it cannot read.
#include "sim/journal.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <grp.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

namespace mmr::sim {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/mmr_journal_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    path_ = dir_ + "/campaign.journal";
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
  }

  static ExperimentSpec demo_spec() {
    ExperimentSpec spec;
    spec.name = "journal_demo";
    spec.scenario.name = "indoor";
    spec.controller.name = "mmreliable";
    spec.trials = 8;
    spec.seed = 42;
    return spec;
  }

  static JournalTrial demo_trial(std::size_t index) {
    JournalTrial t;
    t.index = index;
    t.wall_s = 0.25 + 0.125 * static_cast<double>(index);
    t.cpu_s = 0.125;
    t.label = "scheme/rep" + std::to_string(index);
    t.summary.reliability = 0.9990000000001 + 1e-13 * index;
    t.summary.mean_throughput_bps = 1.23456789e9;
    t.summary.mean_spectral_efficiency = 7.654321;
    t.summary.throughput_reliability_product = 1.2333e9;
    t.summary.num_samples = 400;
    core::FaultEvent ev;
    ev.t_s = 0.1 * static_cast<double>(index);
    ev.kind = core::FaultEventKind::kProbeDropped;
    ev.beam = index % 2 == 0 ? core::kNoBeam : index;
    ev.value = 3.0;
    t.faults.push_back(ev);
    return t;
  }

  /// A network trial: two links, each with its own fault events, state
  /// times and final state, and two handovers. Its faults live with its
  /// links; its summary is the network aggregate.
  static JournalTrial demo_network_trial(std::size_t index) {
    JournalTrial t = demo_trial(index);
    t.faults.clear();
    net::NetworkResult& network = t.network.emplace();
    for (std::size_t link = 0; link < 2; ++link) {
      net::LinkReport r;
      r.link = link;
      r.serving_cell = 1 - link;
      r.summary = t.summary;
      r.summary.reliability = 0.5 + 1.0 / 3.0 * static_cast<double>(link);
      r.summary.num_samples = 400 + link;
      r.handovers = link + 1;
      r.time_down_s = 0.01 * static_cast<double>(link);
      r.time_acquisition_s = 0.02;
      r.time_up_s = 0.9 - 0.1 * static_cast<double>(link);
      r.time_unstable_s = 1.0 / 3.0;
      r.final_state =
          link == 0 ? core::LinkState::kUp : core::LinkState::kUnstable;
      r.faults = demo_trial(index + link).faults;
      r.faults.push_back(demo_trial(index + 2).faults.front());
      network.links.push_back(std::move(r));
    }
    for (std::size_t h = 0; h < 2; ++h) {
      core::HandoverEvent ev;
      ev.t_s = 0.37 + 0.1 * static_cast<double>(h);
      ev.link = 1;
      ev.from_cell = h;
      ev.to_cell = 1 - h;
      ev.rsrp_from_db = -71.25 - 1.0 / 3.0;
      ev.rsrp_to_db = -68.0 + static_cast<double>(h);
      network.handovers.push_back(ev);
    }
    network.network = t.summary;
    return t;
  }

  std::string dir_, path_;
};

TEST_F(JournalTest, RoundTripRestoresTrialsBitExactly) {
  const CampaignKey key = campaign_key(demo_spec());
  // Index 5 is a network trial.
  const auto expected_trial = [](std::size_t index) {
    return index == 5 ? demo_network_trial(index) : demo_trial(index);
  };
  {
    CampaignJournal journal(path_, key);
    EXPECT_TRUE(journal.completed().empty());
    for (std::size_t index : {0u, 3u, 5u, 7u}) {
      journal.record(expected_trial(index));
    }
  }
  CampaignJournal reopened(path_, key);
  ASSERT_EQ(reopened.completed().size(), 4u);
  for (std::size_t index : {0u, 3u, 5u, 7u}) {
    const auto it = reopened.completed().find(index);
    ASSERT_NE(it, reopened.completed().end()) << "index " << index;
    const JournalTrial expected = expected_trial(index);
    const JournalTrial& got = it->second;
    // Bit-exact doubles: compare the raw IEEE-754 patterns.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.wall_s),
              std::bit_cast<std::uint64_t>(expected.wall_s));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cpu_s),
              std::bit_cast<std::uint64_t>(expected.cpu_s));
    EXPECT_EQ(got.label, expected.label);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.summary.reliability),
              std::bit_cast<std::uint64_t>(expected.summary.reliability));
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(got.summary.mean_throughput_bps),
        std::bit_cast<std::uint64_t>(expected.summary.mean_throughput_bps));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  got.summary.mean_spectral_efficiency),
              std::bit_cast<std::uint64_t>(
                  expected.summary.mean_spectral_efficiency));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  got.summary.throughput_reliability_product),
              std::bit_cast<std::uint64_t>(
                  expected.summary.throughput_reliability_product));
    EXPECT_EQ(got.summary.num_samples, expected.summary.num_samples);
    ASSERT_EQ(got.faults.size(), expected.faults.size());
    ASSERT_EQ(got.network.has_value(), expected.network.has_value());
    if (!expected.network.has_value()) {
      EXPECT_EQ(got.faults[0].kind, expected.faults[0].kind);
      EXPECT_EQ(got.faults[0].beam, expected.faults[0].beam);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.faults[0].t_s),
                std::bit_cast<std::uint64_t>(expected.faults[0].t_s));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.faults[0].value),
                std::bit_cast<std::uint64_t>(expected.faults[0].value));
      continue;
    }
    // The network record: every link's report and fault stream, every
    // handover, and the aggregate restored from the trial summary.
    const net::NetworkResult& gn = *got.network;
    const net::NetworkResult& en = *expected.network;
    ASSERT_EQ(gn.links.size(), en.links.size());
    for (std::size_t l = 0; l < en.links.size(); ++l) {
      const net::LinkReport& gl = gn.links[l];
      const net::LinkReport& el = en.links[l];
      EXPECT_EQ(gl.link, el.link);
      EXPECT_EQ(gl.serving_cell, el.serving_cell);
      EXPECT_EQ(gl.handovers, el.handovers);
      EXPECT_EQ(gl.final_state, el.final_state);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gl.summary.reliability),
                std::bit_cast<std::uint64_t>(el.summary.reliability));
      EXPECT_EQ(gl.summary.num_samples, el.summary.num_samples);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gl.time_down_s),
                std::bit_cast<std::uint64_t>(el.time_down_s));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gl.time_acquisition_s),
                std::bit_cast<std::uint64_t>(el.time_acquisition_s));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gl.time_up_s),
                std::bit_cast<std::uint64_t>(el.time_up_s));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gl.time_unstable_s),
                std::bit_cast<std::uint64_t>(el.time_unstable_s));
      ASSERT_EQ(gl.faults.size(), el.faults.size());
      for (std::size_t f = 0; f < el.faults.size(); ++f) {
        EXPECT_EQ(gl.faults[f].kind, el.faults[f].kind);
        EXPECT_EQ(gl.faults[f].beam, el.faults[f].beam);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(gl.faults[f].t_s),
                  std::bit_cast<std::uint64_t>(el.faults[f].t_s));
      }
    }
    ASSERT_EQ(gn.handovers.size(), en.handovers.size());
    for (std::size_t h = 0; h < en.handovers.size(); ++h) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gn.handovers[h].t_s),
                std::bit_cast<std::uint64_t>(en.handovers[h].t_s));
      EXPECT_EQ(gn.handovers[h].link, en.handovers[h].link);
      EXPECT_EQ(gn.handovers[h].from_cell, en.handovers[h].from_cell);
      EXPECT_EQ(gn.handovers[h].to_cell, en.handovers[h].to_cell);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gn.handovers[h].rsrp_from_db),
                std::bit_cast<std::uint64_t>(en.handovers[h].rsrp_from_db));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gn.handovers[h].rsrp_to_db),
                std::bit_cast<std::uint64_t>(en.handovers[h].rsrp_to_db));
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(gn.network.mean_throughput_bps),
              std::bit_cast<std::uint64_t>(
                  expected.summary.mean_throughput_bps));
    EXPECT_EQ(journal_trial_line(got), journal_trial_line(expected));
  }
}

TEST_F(JournalTest, RoundTripsAwkwardDoublesAndLabels) {
  const CampaignKey key = campaign_key(demo_spec());
  JournalTrial t;
  t.index = 1;
  t.wall_s = -0.0;  // negative zero must survive
  t.cpu_s = std::numeric_limits<double>::denorm_min();
  t.label = "weird \"label\" with \\ and\nnewline";
  t.summary.reliability = std::numeric_limits<double>::quiet_NaN();
  {
    CampaignJournal journal(path_, key);
    journal.record(t);
  }
  CampaignJournal reopened(path_, key);
  const auto it = reopened.completed().find(1);
  ASSERT_NE(it, reopened.completed().end());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(it->second.wall_s),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(it->second.cpu_s),
            std::bit_cast<std::uint64_t>(
                std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(it->second.label, t.label);
  EXPECT_TRUE(std::isnan(it->second.summary.reliability));
}

TEST_F(JournalTest, MismatchedSeedIsRejected) {
  { CampaignJournal journal(path_, campaign_key(demo_spec())); }
  ExperimentSpec other = demo_spec();
  other.seed = 43;
  EXPECT_THROW(CampaignJournal(path_, campaign_key(other)),
               JournalMismatchError);
}

TEST_F(JournalTest, MismatchedTrialCountIsRejected) {
  { CampaignJournal journal(path_, campaign_key(demo_spec())); }
  ExperimentSpec other = demo_spec();
  other.trials = 9;
  EXPECT_THROW(CampaignJournal(path_, campaign_key(other)),
               JournalMismatchError);
}

TEST_F(JournalTest, MismatchedNameIsRejected) {
  { CampaignJournal journal(path_, campaign_key(demo_spec())); }
  ExperimentSpec other = demo_spec();
  other.name = "different_campaign";
  EXPECT_THROW(CampaignJournal(path_, campaign_key(other)),
               JournalMismatchError);
}

TEST_F(JournalTest, ConfigChangeFlipsTheFingerprintAndIsRejected) {
  { CampaignJournal journal(path_, campaign_key(demo_spec())); }
  // Any config scalar drift -- here the run duration -- must be caught by
  // the fingerprint even though name/seed/trials all still match.
  ExperimentSpec other = demo_spec();
  other.run.duration_s = 2.0;
  EXPECT_NE(fingerprint_spec(other), fingerprint_spec(demo_spec()));
  EXPECT_THROW(CampaignJournal(path_, campaign_key(other)),
               JournalMismatchError);

  // A link campaign's fingerprint and trial line are the bytes journals
  // written before network campaigns existed carry, so they still resume.
  EXPECT_EQ(fingerprint_spec(demo_spec()), 0x9f56ff72a7d7dde3ull);
  EXPECT_EQ(journal_trial_line(demo_trial(3)),
            "{\"trial\": {\"index\": 3, \"wall_bits\": "
            "\"0x3fe4000000000000\", \"cpu_bits\": \"0x3fc0000000000000\", "
            "\"label\": \"scheme/rep3\", \"summary_bits\": "
            "[\"0x3feff7ced916953e\", \"0x41d26580b4800000\", "
            "\"0x401e9e0653005815\", \"0x41d260aa88000000\"], "
            "\"num_samples\": 400, \"faults\": [{\"kind\": "
            "\"probe_dropped\", \"t_bits\": \"0x3fd3333333333334\", "
            "\"beam\": 3, \"value_bits\": \"0x4008000000000000\"}]}}\n");

  // A network layout keys the campaign apart from the same link spec,
  // and every layout field moves the fingerprint.
  ExperimentSpec network = demo_spec();
  network.network = net::NetworkLayout{};
  const std::uint64_t base = fingerprint_spec(network);
  EXPECT_NE(base, fingerprint_spec(demo_spec()));
  const std::vector<std::function<void(net::NetworkLayout&)>> edits = {
      [](net::NetworkLayout& n) { n.num_cells = 2; },
      [](net::NetworkLayout& n) { n.ues_per_cell = 2; },
      [](net::NetworkLayout& n) { n.cell_spacing_m = 12.0; },
      [](net::NetworkLayout& n) { n.link_state.min_up_dwell_s = 0.02; },
      [](net::NetworkLayout& n) { n.link_state.max_unstable_s = 0.05; },
      [](net::NetworkLayout& n) { n.link_state.max_acquisition_s = 0.2; },
      [](net::NetworkLayout& n) { n.handover.enabled = false; },
      [](net::NetworkLayout& n) { n.handover.hysteresis_db = 1.0; },
      [](net::NetworkLayout& n) { n.handover.time_to_trigger_s = 0.02; },
      [](net::NetworkLayout& n) { n.handover.min_interval_s = 0.2; },
      [](net::NetworkLayout& n) { n.interference.enabled = false; },
      [](net::NetworkLayout& n) { n.interference.coupling_loss_db = 3.0; },
      [](net::NetworkLayout& n) { n.ue_placement_jitter_m = 1.0; },
  };
  { CampaignJournal journal(dir_ + "/network.journal", campaign_key(network)); }
  for (std::size_t i = 0; i < edits.size(); ++i) {
    ExperimentSpec changed = network;
    edits[i](*changed.network);
    EXPECT_NE(fingerprint_spec(changed), base) << "layout field " << i;
    EXPECT_THROW(
        CampaignJournal(dir_ + "/network.journal", campaign_key(changed)),
        JournalMismatchError)
        << "layout field " << i;
  }
}

TEST_F(JournalTest, FaultPlanChangeFlipsTheFingerprint) {
  ExperimentSpec a = demo_spec();
  ExperimentSpec b = demo_spec();
  b.run.faults.probe_drop_prob = 0.05;
  EXPECT_NE(fingerprint_spec(a), fingerprint_spec(b));
}

TEST_F(JournalTest, GarbageHeaderIsRejected) {
  {
    std::ofstream out(path_);
    out << "not a journal at all\n";
  }
  EXPECT_THROW(CampaignJournal(path_, campaign_key(demo_spec())),
               JournalMismatchError);
}

TEST_F(JournalTest, UnknownExtraHeaderFieldIsRejectedAsUnreadable) {
  // Forward-compat contract: the header parser is strict and positional,
  // so a journal written by a FUTURE format that appends an extra header
  // field must be refused as unreadable -- never half-understood and
  // resumed with the unknown field silently dropped. (Adding a field
  // means bumping kJournalFormat; the shard field is the one sanctioned
  // extension and is parsed explicitly.)
  const CampaignKey key = campaign_key(demo_spec());
  std::string header = journal_header_line(key);
  ASSERT_EQ(header.substr(header.size() - 3), "}}\n");
  header.insert(header.size() - 3, ", \"future_knob\": 1");
  {
    std::ofstream out(path_, std::ios::binary);
    out << header;
  }
  try {
    CampaignJournal journal(path_, key);
    FAIL() << "resumed a journal with an unknown extra header field";
  } catch (const JournalMismatchError& e) {
    EXPECT_NE(std::string(e.what()).find("unreadable header"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(read_journal_file(path_), JournalMismatchError);
}

TEST_F(JournalTest, TornTrailingLineIsDroppedNotFatal) {
  const CampaignKey key = campaign_key(demo_spec());
  {
    CampaignJournal journal(path_, key);
    journal.record(demo_trial(0));
    journal.record(demo_trial(1));
  }
  // Simulate a SIGKILL mid-append: chop the file mid-way through the last
  // record's line.
  std::string content;
  {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    content = os.str();
  }
  const std::size_t cut = content.size() - 25;
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(cut));
  }
  CampaignJournal reopened(path_, key);
  EXPECT_EQ(reopened.completed().size(), 1u);
  EXPECT_TRUE(reopened.completed().count(0));
  EXPECT_FALSE(reopened.completed().count(1));
  // The reopen rewrote the file as the header plus the intact record,
  // re-serialized to exactly the bytes the writer produces.
  EXPECT_EQ(read_all(path_),
            journal_header_line(key) + journal_trial_line(demo_trial(0)));
  // And the journal still accepts new records after the torn tail.
  reopened.record(demo_trial(1));
}

TEST_F(JournalTest, RecordCutBeforeItsNewlineIsTorn) {
  // A tear can stop one byte short: the last record parses, but its
  // newline never reached the disk. Appending after it would glue the
  // next record onto the same line, so it counts as torn -- a link
  // trial's record and a network trial's alike.
  const CampaignKey key = campaign_key(demo_spec());
  for (const JournalTrial& last : {demo_trial(1), demo_network_trial(1)}) {
    std::remove(path_.c_str());
    {
      CampaignJournal journal(path_, key);
      journal.record(demo_trial(0));
      journal.record(last);
    }
    std::string content = read_all(path_);
    content.pop_back();
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out << content;
    }
    {
      CampaignJournal reopened(path_, key);
      EXPECT_EQ(reopened.completed().size(), 1u);
      EXPECT_EQ(read_all(path_),
                journal_header_line(key) + journal_trial_line(demo_trial(0)));
      reopened.record(last);
    }
    CampaignJournal again(path_, key);
    EXPECT_EQ(again.completed().size(), 2u);
    EXPECT_EQ(again.completed().at(1).network.has_value(),
              last.network.has_value());
  }
}

TEST_F(JournalTest, UnreadableJournalIsNeverReplaced) {
  // A journal that exists but cannot be read is not a fresh one: opening
  // it must throw, naming the path, and leave every byte where it was.
  const CampaignKey key = campaign_key(demo_spec());
  {
    CampaignJournal journal(path_, key);
    for (std::size_t t = 0; t < 3; ++t) journal.record(demo_trial(t));
  }
  const std::string before = read_all(path_);
  const auto reopen_throws = [&] {
    try {
      CampaignJournal reopened(path_, key);
    } catch (const std::runtime_error& e) {
      return std::string(e.what()).find(path_) != std::string::npos;
    }
    return false;
  };
  if (::geteuid() != 0) {
    ASSERT_EQ(::chmod(path_.c_str(), 0200), 0);
    EXPECT_TRUE(reopen_throws());
  } else {
    // Root reads any file: hand the journal and its directory to an
    // unprivileged owner and reopen from a child running as that owner.
    const uid_t nobody = 65534;
    ASSERT_EQ(::chown(dir_.c_str(), nobody, nobody), 0);
    ASSERT_EQ(::chown(path_.c_str(), nobody, nobody), 0);
    ASSERT_EQ(::chmod(path_.c_str(), 0200), 0);
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      if (::setgroups(0, nullptr) != 0 || ::setgid(nobody) != 0 ||
          ::setuid(nobody) != 0) {
        ::_exit(3);
      }
      ::_exit(reopen_throws() ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_NE(WEXITSTATUS(status), 3) << "could not drop to uid 65534";
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "reopening an unreadable journal did not throw naming its path";
  }
  ASSERT_EQ(::chmod(path_.c_str(), 0600), 0);
  EXPECT_EQ(read_all(path_), before);
}

TEST_F(JournalTest, DuplicateIndexKeepsTheFirstRecord) {
  const CampaignKey key = campaign_key(demo_spec());
  {
    CampaignJournal journal(path_, key);
    JournalTrial first = demo_trial(2);
    first.label = "first";
    JournalTrial second = demo_trial(2);
    second.label = "second";
    journal.record(first);
    journal.record(second);
  }
  CampaignJournal reopened(path_, key);
  ASSERT_EQ(reopened.completed().size(), 1u);
  EXPECT_EQ(reopened.completed().at(2).label, "first");
}

TEST_F(JournalTest, FrozenCampaignJournalIsAPureFunctionOfSpecAndSeed) {
  // Two identical frozen campaigns into fresh journals leave the same
  // bytes: under freeze_timing the trials' measured wall and CPU time are
  // journaled as 0.0, just as the JSON record zeroes them.
  ExperimentSpec spec = demo_spec();
  spec.run.duration_s = 0.05;
  spec.trials = 3;
  spec.jobs = 1;  // one append order
  auto run_into = [&spec](const std::string& path) {
    CampaignJournal journal(path, campaign_key(spec));
    EngineOptions opts;
    opts.freeze_timing = true;
    opts.journal = &journal;
    (void)Engine().run(spec, nullptr, opts);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  const std::string first = run_into(dir_ + "/first.journal");
  const std::string second = run_into(dir_ + "/second.journal");
  EXPECT_NE(first.find("{\"trial\": {\"index\": 2"), std::string::npos)
      << first;
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace mmr::sim
