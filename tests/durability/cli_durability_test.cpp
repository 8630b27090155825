// The durability-facing half of the bench CLI: strict parse_f64, the
// --resume / --trial-retries / --trial-timeout-s / --freeze-timing flags,
// the exit(2) error paths the flags add, and the one --json-out writer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <grp.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/parse.h"
#include "sim/engine.h"
#include "sweep_cli.h"

namespace mmr {
namespace {

TEST(ParseF64, AcceptsPlainNonNegativeDecimals) {
  double v = -1.0;
  EXPECT_TRUE(parse_f64("0", v));
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(parse_f64("2.5", v));
  EXPECT_EQ(v, 2.5);
  EXPECT_TRUE(parse_f64("0.125", v));
  EXPECT_EQ(v, 0.125);
  EXPECT_TRUE(parse_f64(".5", v));
  EXPECT_EQ(v, 0.5);
  EXPECT_TRUE(parse_f64("1e3", v));
  EXPECT_EQ(v, 1000.0);
}

TEST(ParseF64, RejectsGarbageSignsAndNonFinites) {
  double v = 7.0;
  EXPECT_FALSE(parse_f64(nullptr, v));
  EXPECT_FALSE(parse_f64("", v));
  EXPECT_FALSE(parse_f64("abc", v));
  EXPECT_FALSE(parse_f64("1.5x", v));   // trailing garbage
  EXPECT_FALSE(parse_f64("-1.5", v));   // negative
  EXPECT_FALSE(parse_f64("+1.5", v));   // sign
  EXPECT_FALSE(parse_f64(" 1.5", v));   // leading whitespace
  EXPECT_FALSE(parse_f64("inf", v));
  EXPECT_FALSE(parse_f64("nan", v));
  EXPECT_FALSE(parse_f64("0x10", v));   // hex floats
  EXPECT_FALSE(parse_f64("1e400", v));  // overflow
  EXPECT_EQ(v, 7.0) << "failed parse must not clobber the output";
}

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

TEST(SweepCliDurability, ParsesTheDurabilityFlags) {
  std::vector<std::string> args = {
      "prog",          "--resume",          "/tmp/ckpt",
      "--trial-retries=2", "--trial-timeout-s", "1.5",
      "--freeze-timing"};
  auto argv = argv_of(args);
  const bench::SweepCliOptions opts =
      bench::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(opts.resume, "/tmp/ckpt");
  EXPECT_EQ(opts.trial_retries, 2u);
  EXPECT_EQ(opts.trial_timeout_s, 1.5);
  EXPECT_TRUE(opts.freeze_timing);
}

TEST(SweepCliDurability, DurabilityDefaultsAreOff) {
  std::vector<std::string> args = {"prog"};
  auto argv = argv_of(args);
  const bench::SweepCliOptions opts =
      bench::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(opts.resume.empty());
  EXPECT_EQ(opts.trial_retries, 0u);
  EXPECT_EQ(opts.trial_timeout_s, 0.0);
  EXPECT_FALSE(opts.freeze_timing);
}

TEST(SweepCliDurability, JournalPathIsPerCampaignAndSanitized) {
  EXPECT_EQ(bench::detail::journal_path("/tmp/ckpt", "fig16_blockage"),
            "/tmp/ckpt.fig16_blockage.journal");
  EXPECT_EQ(bench::detail::journal_path("base", "weird name/with:stuff"),
            "base.weird_name_with_stuff.journal");
}

int run_cli(std::vector<std::string> args) {
  auto argv = argv_of(args);
  bench::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  return 0;
}

TEST(SweepCliDurabilityDeathTest, GarbageTimeoutExits2) {
  EXPECT_EXIT(run_cli({"prog", "--trial-timeout-s", "fast"}),
              ::testing::ExitedWithCode(2),
              "invalid value for --trial-timeout-s");
}

TEST(SweepCliDurabilityDeathTest, NegativeTimeoutExits2) {
  EXPECT_EXIT(run_cli({"prog", "--trial-timeout-s=-1"}),
              ::testing::ExitedWithCode(2),
              "invalid value for --trial-timeout-s");
}

TEST(SweepCliDurabilityDeathTest, GarbageRetriesExits2) {
  EXPECT_EXIT(run_cli({"prog", "--trial-retries", "lots"}),
              ::testing::ExitedWithCode(2),
              "invalid value for --trial-retries");
}

// An unwritable --json-out exits when it is parsed: a bench may compute
// and print before its first campaign (fig15's 15a/15b tables), and
// none of that may happen for a run that cannot write its record.
TEST(SweepCliDurabilityDeathTest, UnwritableJsonOutExits2WhenParsed) {
  EXPECT_EXIT(run_cli({"prog", "--json-out", "/nonexistent_dir/x.json"}),
              ::testing::ExitedWithCode(2),
              "cannot open --json-out file: /nonexistent_dir/x.json");
}

TEST(SweepCliDurabilityDeathTest, EmptyResumeBaseExits2) {
  EXPECT_EXIT(run_cli({"prog", "--resume="}), ::testing::ExitedWithCode(2),
              "--resume needs a journal base path");
}

int resume_sampled_campaign() {
  sim::ExperimentSpec spec;
  spec.name = "sampled";
  spec.scenario.name = "indoor";
  spec.controller.name = "mmreliable";
  spec.run.duration_s = 0.05;
  spec.record_samples = true;  // journals cannot replay per-tick samples
  bench::SweepCliOptions opts;
  opts.resume = "/tmp/mmr_cli_durability_ckpt";
  (void)bench::run_campaign(spec, opts);
  return 0;
}

TEST(SweepCliDurabilityDeathTest, ResumeWithRecordedSamplesExits2) {
  EXPECT_EXIT(resume_sampled_campaign(), ::testing::ExitedWithCode(2),
              "--resume is not supported for campaign 'sampled'");
}

int campaign_to_unwritable_json() {
  sim::ExperimentSpec spec;
  spec.name = "unwritable";
  spec.scenario.name = "indoor";
  spec.controller.name = "mmreliable";
  spec.run.duration_s = 0.05;
  bench::SweepCliOptions opts;
  opts.json_out = "/no/such/dir/out.json";
  (void)bench::run_campaign(spec, opts);
  return 0;
}

TEST(SweepCliDurabilityDeathTest, UnwritableJsonOutExits2BeforeSweeping) {
  EXPECT_EXIT(campaign_to_unwritable_json(), ::testing::ExitedWithCode(2),
              "cannot open --json-out file");
}

/// The work a bench would run after opening its --json-out file; an
/// open that let an unwritable FILE through reaches it and exits 0.
int work_after_opening(const char* path, const char* flag) {
  bench::JsonOutFile file(path, flag);
  std::exit(0);
}

TEST(SweepCliDurabilityDeathTest, JsonOutFileExits2BeforeTheWork) {
  EXPECT_EXIT(work_after_opening("/no/such/dir/out.json", "--json-out"),
              ::testing::ExitedWithCode(2),
              "cannot open --json-out file: /no/such/dir/out.json");
  EXPECT_EXIT(
      work_after_opening("/no/such/dir/net.json", "--network-json-out"),
      ::testing::ExitedWithCode(2),
      "cannot open --network-json-out file: /no/such/dir/net.json");
}

class JsonOutFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/mmr_json_out_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static std::string read_all(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  std::string dir_;
};

TEST_F(JsonOutFileTest, CommitsAppendByteForByte) {
  const std::string path = dir_ + "/out.json";
  const std::string first = "{\"run\": 1}\n";
  const std::string second = "{\"run\": 2, \"bytes\": \"\\u0000\\t\"}\n";
  {
    bench::JsonOutFile file(path);
    file.stream() << first;
    // Nothing reaches FILE before the commit.
    EXPECT_EQ(read_all(path), "");
    file.commit();
  }
  EXPECT_EQ(read_all(path), first);
  {
    bench::JsonOutFile file(path);
    file.stream() << second;
    file.commit();
  }
  EXPECT_EQ(read_all(path), first + second);
}

/// Opens FILE; a root test run first drops to uid `owner`, since root
/// reads any file. Reaching the work exits 0.
int open_as(const std::string& path, uid_t owner) {
  if (::geteuid() == 0 && (::setgroups(0, nullptr) != 0 ||
                           ::setgid(owner) != 0 || ::setuid(owner) != 0)) {
    std::exit(3);
  }
  bench::JsonOutFile file(path);
  std::exit(0);
}

TEST_F(JsonOutFileTest, UnreadableFileExits2AndKeepsItsBytes) {
  // FILE's records are kept by reading them: one that can be appended to
  // but not read must not be replaced by the new run's records alone.
  const std::string path = dir_ + "/out.json";
  std::ofstream(path) << "{\"kept\": 1}\n";
  const uid_t owner = 65534;
  if (::geteuid() == 0) {
    ASSERT_EQ(::chown(dir_.c_str(), owner, owner), 0);
    ASSERT_EQ(::chown(path.c_str(), owner, owner), 0);
  }
  ASSERT_EQ(::chmod(path.c_str(), 0200), 0);
  EXPECT_EXIT(open_as(path, owner), ::testing::ExitedWithCode(2),
              "cannot open --json-out file: " + path);
  ASSERT_EQ(::chmod(path.c_str(), 0600), 0);
  EXPECT_EQ(read_all(path), "{\"kept\": 1}\n");
}

/// Opens FILE, then removes its directory, so the commit cannot stage.
int commit_after_removing_the_directory(const std::string& dir) {
  bench::JsonOutFile file(dir + "/out.json");
  file.stream() << "{}\n";
  std::filesystem::remove_all(dir);
  file.commit();
  return 0;
}

TEST_F(JsonOutFileTest, FailedCommitExits2NamingTheFile) {
  const std::string sub = dir_ + "/gone";
  std::filesystem::create_directory(sub);
  EXPECT_EXIT(commit_after_removing_the_directory(sub),
              ::testing::ExitedWithCode(2),
              "cannot write --json-out file " + sub + "/out.json");
}

}  // namespace
}  // namespace mmr
