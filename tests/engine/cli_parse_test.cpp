// Strict numeric parsing for the bench CLI (common/parse.h) and the
// sweep_cli flag handling itself. The old strtoull-based parsing accepted
// "abc" as 0 (= every hardware thread) and "12x" as 12; these pins make
// sure garbage exits with status 2 instead of being silently truncated.
#include <gtest/gtest.h>

#include <clocale>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/parse.h"
#include "dsp/backend.h"
#include "net/network.h"
#include "sweep_cli.h"

namespace mmr {
namespace {

TEST(ParseU64, AcceptsFullBase10Integers) {
  std::uint64_t v = 99;
  EXPECT_TRUE(parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("42", v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseU64, RejectsGarbageAndLeavesOutputUntouched) {
  std::uint64_t v = 7;
  EXPECT_FALSE(parse_u64(nullptr, v));
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("abc", v));
  EXPECT_FALSE(parse_u64("12x", v));       // trailing garbage
  EXPECT_FALSE(parse_u64("-1", v));        // sign
  EXPECT_FALSE(parse_u64("+1", v));        // sign
  EXPECT_FALSE(parse_u64(" 1", v));        // leading whitespace
  EXPECT_FALSE(parse_u64("1 ", v));        // trailing whitespace
  EXPECT_FALSE(parse_u64("0x10", v));      // hex
  EXPECT_FALSE(parse_u64("1e3", v));       // float notation
  EXPECT_FALSE(parse_u64("18446744073709551616", v));  // uint64 overflow
  EXPECT_EQ(v, 7u) << "failed parse must not clobber the output";
}

TEST(ParseU64, ExactOverflowBoundary) {
  // UINT64_MAX parses, UINT64_MAX + 1 does not -- the boundary must be
  // exact, not "some large numbers fail".
  std::uint64_t v = 7;
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(parse_u64("18446744073709551614", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max() - 1);
  EXPECT_FALSE(parse_u64("18446744073709551616", v));
  EXPECT_FALSE(parse_u64("99999999999999999999", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max() - 1);
}

TEST(ParseU64, RejectsHexAndSignPrefixesEvenWithValidDigits) {
  std::uint64_t v = 7;
  EXPECT_FALSE(parse_u64("0xff", v));
  EXPECT_FALSE(parse_u64("0Xff", v));
  EXPECT_FALSE(parse_u64("+0", v));
  EXPECT_FALSE(parse_u64("++1", v));
  // But a plain leading zero is just base 10, not octal.
  EXPECT_TRUE(parse_u64("010", v));
  EXPECT_EQ(v, 10u);
}

TEST(ParseSize, TracksU64Semantics) {
  std::size_t v = 3;
  EXPECT_TRUE(parse_size("123", v));
  EXPECT_EQ(v, 123u);
  EXPECT_FALSE(parse_size("nope", v));
  EXPECT_EQ(v, 123u);
}

TEST(ParseF64, RejectsSignedAndHexFloatSpellings) {
  double v = 9.0;
  EXPECT_FALSE(parse_f64("+1.5", v));    // explicit sign
  EXPECT_FALSE(parse_f64("-1.5", v));
  EXPECT_FALSE(parse_f64("0x1p3", v));   // hex float
  EXPECT_FALSE(parse_f64("0x10", v));    // hex int spelling of 16.0
  EXPECT_FALSE(parse_f64("1.5.5", v));
  EXPECT_FALSE(parse_f64("1e", v));      // dangling exponent
  EXPECT_EQ(v, 9.0);
}

TEST(ParseF64, IsLocaleIndependent) {
  // A comma-decimal locale must not change what "1.5" (or "1,5") means.
  // The container may only ship the C locale; then there is nothing to
  // vary and the test skips.
  const char* comma_locale = nullptr;
  for (const char* name : {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8", "fr_FR",
                           "nl_NL.UTF-8"}) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      comma_locale = name;
      break;
    }
  }
  if (comma_locale == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  double v = 0.0;
  const bool dot_ok = parse_f64("1.5", v);
  const bool comma_ok = parse_f64("1,5", v);
  std::setlocale(LC_NUMERIC, "C");
  EXPECT_TRUE(dot_ok);
  EXPECT_EQ(v, 1.5);
  EXPECT_FALSE(comma_ok);
}

// --- sweep_cli flag handling -------------------------------------------

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

TEST(SweepCli, ParsesAllFlagsInBothForms) {
  std::vector<std::string> args = {"prog",       "--jobs",     "4",
                                   "--trials=9", "--seed",     "77",
                                   "--scenario", "outdoor",    "--controller=reactive",
                                   "--json-out", "/tmp/x.json"};
  auto argv = argv_of(args);
  const bench::SweepCliOptions opts =
      bench::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(opts.jobs, 4u);
  EXPECT_EQ(opts.trials, 9u);
  EXPECT_EQ(opts.seed, 77u);
  EXPECT_EQ(opts.scenario, "outdoor");
  EXPECT_EQ(opts.controller, "reactive");
  EXPECT_EQ(opts.json_out, "/tmp/x.json");
}

TEST(SweepCli, DefaultsWhenNoFlags) {
  std::vector<std::string> args = {"prog"};
  auto argv = argv_of(args);
  const bench::SweepCliOptions opts =
      bench::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(opts.jobs, 1u);
  EXPECT_EQ(opts.trials, 0u);
  EXPECT_EQ(opts.seed, 0u);
  EXPECT_TRUE(opts.scenario.empty());
  EXPECT_TRUE(opts.controller.empty());
  EXPECT_TRUE(opts.json_out.empty());
}

int run_cli(std::vector<std::string> args) {
  auto argv = argv_of(args);
  bench::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  return 0;
}

TEST(SweepCliDeathTest, GarbageJobsExits2) {
  EXPECT_EXIT(run_cli({"prog", "--jobs", "abc"}),
              ::testing::ExitedWithCode(2), "invalid value for --jobs");
}

TEST(SweepCliDeathTest, TrailingGarbageTrialsExits2) {
  EXPECT_EXIT(run_cli({"prog", "--trials=12x"}),
              ::testing::ExitedWithCode(2), "invalid value for --trials");
}

TEST(SweepCliDeathTest, NegativeSeedExits2) {
  EXPECT_EXIT(run_cli({"prog", "--seed", "-1"}),
              ::testing::ExitedWithCode(2), "invalid value for --seed");
}

TEST(SweepCliDeathTest, MissingValueExits2) {
  EXPECT_EXIT(run_cli({"prog", "--jobs"}), ::testing::ExitedWithCode(2),
              "unknown argument");
}

TEST(SweepCliDeathTest, UnknownFlagExits2) {
  EXPECT_EXIT(run_cli({"prog", "--frobnicate"}),
              ::testing::ExitedWithCode(2), "unknown argument");
}

TEST(SweepCliDeathTest, ListExits0AndPrintsRegistries) {
  EXPECT_EXIT(run_cli({"prog", "--list"}), ::testing::ExitedWithCode(0),
              "");
}

// --- distributed-campaign flags ----------------------------------------

TEST(SweepCli, ParsesShardAndMergeFlags) {
  std::vector<std::string> args = {"prog", "--resume", "/tmp/base",
                                   "--shard", "1/3"};
  auto argv = argv_of(args);
  const bench::SweepCliOptions opts =
      bench::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(opts.shard.enabled());
  EXPECT_EQ(opts.shard.index, 1u);
  EXPECT_EQ(opts.shard.count, 3u);
  EXPECT_TRUE(bench::distributed_mode(opts));

  std::vector<std::string> margs = {"prog", "--merge=/tmp/base"};
  auto margv = argv_of(margs);
  const bench::SweepCliOptions mopts =
      bench::parse_sweep_cli(static_cast<int>(margv.size()), margv.data());
  EXPECT_EQ(mopts.merge, "/tmp/base");
  EXPECT_TRUE(bench::distributed_mode(mopts));
}

TEST(SweepCliDeathTest, MalformedShardSpecExits2) {
  EXPECT_EXIT(run_cli({"prog", "--resume", "/tmp/b", "--shard", "3/3"}),
              ::testing::ExitedWithCode(2), "invalid value for --shard");
  EXPECT_EXIT(run_cli({"prog", "--resume", "/tmp/b", "--shard", "0x1/3"}),
              ::testing::ExitedWithCode(2), "invalid value for --shard");
  EXPECT_EXIT(run_cli({"prog", "--resume", "/tmp/b", "--shard", "a/b"}),
              ::testing::ExitedWithCode(2), "invalid value for --shard");
}

TEST(SweepCliDeathTest, ShardWithoutResumeExits2) {
  EXPECT_EXIT(run_cli({"prog", "--shard", "0/2"}),
              ::testing::ExitedWithCode(2), "--resume");
}

TEST(SweepCliDeathTest, ShardCombinedWithQueueExits2) {
  EXPECT_EXIT(run_cli({"prog", "--resume", "/tmp/b", "--shard", "0/2",
                       "--shard-queue", "/tmp/q"}),
              ::testing::ExitedWithCode(2), "--shard-queue");
}

TEST(SweepCliDeathTest, ShardsWithoutQueueExits2) {
  EXPECT_EXIT(run_cli({"prog", "--resume", "/tmp/b", "--shards", "3"}),
              ::testing::ExitedWithCode(2),
              "--shards requires --shard-queue");
}

TEST(SweepCliDeathTest, ZeroShardsExits2) {
  EXPECT_EXIT(run_cli({"prog", "--resume", "/tmp/b", "--shard-queue",
                       "/tmp/q", "--shards", "0"}),
              ::testing::ExitedWithCode(2), "--shards");
}

TEST(SweepCliDeathTest, MergeCombinedWithWorkerFlagsExits2) {
  EXPECT_EXIT(run_cli({"prog", "--merge", "/tmp/b", "--resume", "/tmp/b"}),
              ::testing::ExitedWithCode(2), "standalone");
  EXPECT_EXIT(run_cli({"prog", "--merge", "/tmp/b", "--shard", "0/2"}),
              ::testing::ExitedWithCode(2), "standalone");
}

// --- benches without a journaled trial campaign ------------------------

// An unknown registry name exits 2 as it is parsed, listing the
// registered names the way --list prints them, instead of reaching the
// engine, whose std::invalid_argument would abort the bench and lose its
// buffered stdout.
TEST(SweepCliDeathTest, UnknownControllerExits2ListingTheRegistry) {
  EXPECT_EXIT(run_cli({"prog", "--trials", "1", "--controller", "bogus"}),
              ::testing::ExitedWithCode(2),
              "unknown controller 'bogus'; registered controllers:");
  EXPECT_EXIT(run_cli({"prog", "--controller=bogus"}),
              ::testing::ExitedWithCode(2), "\n  mmreliable\n");
}

TEST(SweepCliDeathTest, UnknownScenarioExits2ListingTheRegistry) {
  EXPECT_EXIT(run_cli({"prog", "--trials", "1", "--scenario", "bogus"}),
              ::testing::ExitedWithCode(2),
              "unknown scenario 'bogus'; registered scenarios:");
  EXPECT_EXIT(run_cli({"prog", "--scenario=bogus"}),
              ::testing::ExitedWithCode(2), "\n  indoor_sparse\n");
}

// bench_network's parse: the shared grammar after its own flags, with the
// network builtins (indoor_crowd, terragraph) registered first.
bool network_flags(int& i, int argc, char** argv) {
  return bench::detail::flag_value(i, argc, argv, "--cells") != nullptr;
}

int run_network_cli(std::vector<std::string> args) {
  net::register_net_builtins();
  auto argv = argv_of(args);
  bench::parse_sweep_cli(static_cast<int>(argv.size()), argv.data(),
                         network_flags, nullptr);
  return 0;
}

TEST(SweepCli, NetworkParseAcceptsTheNetworkBuiltins) {
  EXPECT_EQ(run_network_cli({"prog", "--cells", "2", "--scenario",
                             "indoor_crowd", "--controller", "terragraph"}),
            0);
}

TEST(SweepCliDeathTest, NetworkParseExits2OnUnknownNames) {
  EXPECT_EXIT(run_network_cli({"prog", "--trials", "1", "--controller",
                               "bogus"}),
              ::testing::ExitedWithCode(2),
              "unknown controller 'bogus'; registered controllers:");
  EXPECT_EXIT(run_network_cli({"prog", "--controller", "bogus"}),
              ::testing::ExitedWithCode(2), "\n  terragraph\n");
  EXPECT_EXIT(run_network_cli({"prog", "--scenario", "bogus"}),
              ::testing::ExitedWithCode(2), "\n  indoor_crowd\n");
}

// fig16, fig18 and fig19 name every trial's controller in their customize
// hooks, so they refuse --controller instead of ignoring it.
int run_fixed_controller_cli(std::vector<std::string> args) {
  auto argv = argv_of(args);
  bench::parse_sweep_cli(static_cast<int>(argv.size()), argv.data(),
                         bench::refuse_controller_flag, nullptr);
  return 0;
}

TEST(SweepCliDeathTest, RefusedControllerFlagExits2) {
  EXPECT_EXIT(run_fixed_controller_cli({"prog", "--controller", "reactive"}),
              ::testing::ExitedWithCode(2), "--controller is not supported");
  EXPECT_EXIT(run_fixed_controller_cli({"prog", "--controller=reactive"}),
              ::testing::ExitedWithCode(2), "--controller is not supported");
  EXPECT_EQ(run_fixed_controller_cli({"prog", "--scenario", "outdoor"}), 0);
}

// The first step of bench_streaming's ExtraFlagHandler (its own --shards
// sizes the session table and is not refused).
bool refuse_as_bench_streaming(int& i, int /*argc*/, char** argv) {
  bench::refuse_campaign_flags(argv[i], argv[0], {"--trials", "--faults"},
                               "the streaming service runs live sessions");
  return false;
}

int run_refusing_cli(std::vector<std::string> args) {
  auto argv = argv_of(args);
  bench::parse_sweep_cli(static_cast<int>(argv.size()), argv.data(),
                         refuse_as_bench_streaming, nullptr);
  return 0;
}

TEST(SweepCliDeathTest, RefusedShardQueueLeavesEveryTicketInTodo) {
  char tmpl[] = "/tmp/mmr_refuse_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  const std::string queue = root + "/queue";
  sim::ShardQueue::init(queue, 2);
  EXPECT_EXIT(run_refusing_cli({"prog", "--shard-queue", queue, "--shards",
                                "2", "--resume", root + "/b"}),
              ::testing::ExitedWithCode(2), "--shard-queue is not supported");
  const sim::ShardQueue::Counts counts = sim::ShardQueue::counts(queue);
  EXPECT_EQ(counts.todo, 2u);
  EXPECT_EQ(counts.claimed, 0u);
  EXPECT_EQ(counts.done, 0u);
  std::filesystem::remove_all(root);
}

TEST(SweepCliDeathTest, RefusedJournalFlagsExit2) {
  EXPECT_EXIT(run_refusing_cli({"prog", "--resume", "/tmp/b"}),
              ::testing::ExitedWithCode(2), "--resume is not supported");
  EXPECT_EXIT(run_refusing_cli({"prog", "--trial-retries=2"}),
              ::testing::ExitedWithCode(2),
              "--trial-retries is not supported");
  EXPECT_EXIT(run_refusing_cli({"prog", "--trial-timeout-s", "5"}),
              ::testing::ExitedWithCode(2),
              "--trial-timeout-s is not supported");
  EXPECT_EXIT(run_refusing_cli({"prog", "--faults", "light"}),
              ::testing::ExitedWithCode(2), "--faults is not supported");
}

// --kernel-backend: scalar/portable are compiled on every target, so
// forcing them must succeed and switch the process-global dispatch.
TEST(SweepCli, KernelBackendFlagAppliesEagerly) {
  const dsp::Backend before = dsp::active_backend();
  std::vector<std::string> args = {"prog", "--kernel-backend", "scalar"};
  auto argv = argv_of(args);
  const bench::SweepCliOptions opts =
      bench::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(opts.kernel_backend, "scalar");
  EXPECT_EQ(dsp::active_backend(), dsp::Backend::kScalar);
  dsp::set_backend(before);  // restore for the rest of the binary
}

TEST(SweepCli, KernelBackendAutoPicksBestBackend) {
  const dsp::Backend before = dsp::active_backend();
  std::vector<std::string> args = {"prog", "--kernel-backend=auto"};
  auto argv = argv_of(args);
  (void)bench::parse_sweep_cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(dsp::active_backend(), dsp::best_backend());
  dsp::set_backend(before);
}

TEST(SweepCliDeathTest, UnknownKernelBackendExits2) {
  EXPECT_EXIT(run_cli({"prog", "--kernel-backend", "sse9"}),
              ::testing::ExitedWithCode(2), "unknown --kernel-backend");
}

TEST(SweepCli, ApplyCliOverridesRegistryNamesAndJobs) {
  bench::SweepCliOptions opts;
  opts.jobs = 3;
  opts.scenario = "outdoor";
  opts.controller = "reactive";
  sim::ExperimentSpec spec;
  bench::apply_cli(opts, spec);
  EXPECT_EQ(spec.jobs, 3u);
  EXPECT_EQ(spec.scenario.name, "outdoor");
  EXPECT_EQ(spec.controller.name, "reactive");

  // Empty overrides keep the bench's defaults.
  bench::SweepCliOptions defaults;
  sim::ExperimentSpec spec2;
  spec2.scenario.name = "indoor_sparse";
  spec2.controller.name = "beamspy";
  bench::apply_cli(defaults, spec2);
  EXPECT_EQ(spec2.scenario.name, "indoor_sparse");
  EXPECT_EQ(spec2.controller.name, "beamspy");
}

}  // namespace
}  // namespace mmr
