// The shard module's filesystem calls under injected faults: the queue's
// directory creation, shard-count read, ticket and lease-age stats,
// pre-claim mtime refresh and ticket renames, and the shard-journal
// listing, all go through the fsio table, so transient errnos are retried
// and a permanent error surfaces as a typed IoError naming the operation
// and path, with the ticket left where it was.
#include "sim/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>

#include "common/fs_ops.h"
#include "common/io_error.h"
#include "tests/fsfaults/fault_ops.h"

namespace mmr::sim {
namespace {

class QueueFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/mmr_queue_faults_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    root_ = tmpl;
    dir_ = root_ + "/queue";
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + root_ + "'";
    (void)std::system(cmd.c_str());
  }

  /// Backdate a claimed shard's lease by `seconds` (raw syscalls, before
  /// any fault is installed): its holder stopped heartbeating that long
  /// ago.
  void backdate_lease(const ShardPlan& plan, double seconds) {
    const std::string path = dir_ + "/claimed/" + plan.suffix();
    struct stat st;
    ASSERT_EQ(::stat(path.c_str(), &st), 0) << path;
    struct timespec times[2] = {st.st_atim, st.st_mtim};
    times[1].tv_sec -= static_cast<time_t>(seconds);
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
  }

  std::string root_, dir_;
};

TEST_F(QueueFaultTest, FailedClaimRenameLeavesTheTicketInTodo) {
  ShardQueue::init(dir_, 1);
  fsfaults::ScopedFaults faults;
  fsfaults::script().fail_rename = 1;
  fsfaults::script().rename_errno = EACCES;
  try {
    (void)ShardQueue::claim(dir_, LeaseOptions{});
    FAIL() << "claim succeeded through a failing rename";
  } catch (const IoError& e) {
    EXPECT_EQ(e.op(), "rename");
    EXPECT_EQ(e.code(), EACCES);
    const std::string claimed = dir_ + "/claimed/" + ShardPlan{0, 1}.suffix();
    EXPECT_EQ(e.path(), claimed);
  }
  // A permanent errno is not retried.
  EXPECT_TRUE(fsfaults::script().slept.empty());
  const ShardQueue::Counts counts = ShardQueue::counts(dir_);
  EXPECT_EQ(counts.todo, 1u);
  EXPECT_EQ(counts.claimed, 0u);
  EXPECT_EQ(counts.done, 0u);

  // With the fault spent, the next claim takes the ticket normally.
  const std::optional<ShardPlan> plan =
      ShardQueue::claim(dir_, LeaseOptions{});
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->index, 0u);
  EXPECT_EQ(ShardQueue::counts(dir_).claimed, 1u);
}

TEST_F(QueueFaultTest, LeaseAgeStatEintrStormIsRetried) {
  ShardQueue::init(dir_, 1);
  const std::optional<ShardPlan> held =
      ShardQueue::claim(dir_, LeaseOptions{});
  ASSERT_TRUE(held.has_value());
  // Past the default ttl + grace (375 s): the next claimer reclaims it.
  backdate_lease(*held, 400.0);
  fsfaults::ScopedFaults faults;
  fsfaults::script().fail_stat = 3;
  const std::optional<ShardPlan> plan =
      ShardQueue::claim(dir_, LeaseOptions{});
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(*plan, *held);
  // Three EINTRs on the lease-age stat = three doubling backoffs.
  EXPECT_EQ(fsfaults::script().fail_stat, 0);
  ASSERT_EQ(fsfaults::script().slept.size(), 3u);
  EXPECT_DOUBLE_EQ(fsfaults::script().slept[2],
                   4.0 * fsfaults::script().slept[0]);
  EXPECT_EQ(ShardQueue::counts(dir_).claimed, 1u);
}

TEST_F(QueueFaultTest, PermanentInitMkdirErrorThrowsIoErrorNamingTheDir) {
  fsfaults::ScopedFaults faults;
  fsfaults::script().fail_mkdir = 1;
  fsfaults::script().mkdir_errno = EACCES;
  try {
    ShardQueue::init(dir_, 2);
    FAIL() << "init succeeded through a failing mkdir";
  } catch (const IoError& e) {
    EXPECT_EQ(e.op(), "mkdir");
    EXPECT_EQ(e.code(), EACCES);
    EXPECT_EQ(e.path(), dir_);
  }
  // A permanent errno is not retried.
  EXPECT_TRUE(fsfaults::script().slept.empty());
}

TEST_F(QueueFaultTest, UnreadableShardCountThrowsAndKeepsTheQueue) {
  // A shard count that exists but cannot be read is not a missing one:
  // re-stamping it would offer tickets for a second shard count.
  ShardQueue::init(dir_, 2);
  const std::string meta = dir_ + "/shard-count";
  const auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  const std::string count_before = read_all(meta);
  std::vector<std::string> tickets_before = fsio::list_dir(dir_ + "/tickets");
  std::sort(tickets_before.begin(), tickets_before.end());
  {
    fsfaults::ScopedFaults faults;
    fsfaults::script().fail_open = 1;  // init's first open is the count
    fsfaults::script().open_errno = EACCES;
    try {
      ShardQueue::init(dir_, 3);
      FAIL() << "init re-initialized a queue whose count it could not read";
    } catch (const IoError& e) {
      EXPECT_EQ(e.op(), "open");
      EXPECT_EQ(e.code(), EACCES);
      EXPECT_EQ(e.path(), meta);
    }
  }
  EXPECT_EQ(read_all(meta), count_before);
  std::vector<std::string> tickets_after = fsio::list_dir(dir_ + "/tickets");
  std::sort(tickets_after.begin(), tickets_after.end());
  EXPECT_EQ(tickets_after, tickets_before);
  EXPECT_EQ(ShardQueue::counts(dir_).todo, 2u);
}

TEST_F(QueueFaultTest, FailedClaimRefreshLeavesTheTicketInTodo) {
  ShardQueue::init(dir_, 1);
  fsfaults::ScopedFaults faults;
  fsfaults::script().fail_touch = 1;
  fsfaults::script().touch_errno = EPERM;
  try {
    (void)ShardQueue::claim(dir_, LeaseOptions{});
    FAIL() << "claim succeeded through a failing mtime refresh";
  } catch (const IoError& e) {
    EXPECT_EQ(e.op(), "utimensat");
    EXPECT_EQ(e.code(), EPERM);
    const std::string todo = dir_ + "/todo/" + ShardPlan{0, 1}.suffix();
    EXPECT_EQ(e.path(), todo);
  }
  const ShardQueue::Counts counts = ShardQueue::counts(dir_);
  EXPECT_EQ(counts.todo, 1u);
  EXPECT_EQ(counts.claimed, 0u);
}

TEST_F(QueueFaultTest, PermanentCompleteStatErrorThrowsIoError) {
  ShardQueue::init(dir_, 1);
  const std::optional<ShardPlan> plan =
      ShardQueue::claim(dir_, LeaseOptions{});
  ASSERT_TRUE(plan.has_value());
  fsfaults::ScopedFaults faults;
  fsfaults::script().fail_stat = 1;
  fsfaults::script().stat_errno = EACCES;
  try {
    ShardQueue::complete(dir_, *plan);
    FAIL() << "complete succeeded through a failing ticket stat";
  } catch (const IoError& e) {
    EXPECT_EQ(e.op(), "stat");
    EXPECT_EQ(e.code(), EACCES);
    EXPECT_EQ(e.path(), dir_ + "/tickets/" + plan->suffix());
  }
  EXPECT_TRUE(fsfaults::script().slept.empty());
  const ShardQueue::Counts counts = ShardQueue::counts(dir_);
  EXPECT_EQ(counts.claimed, 1u);
  EXPECT_EQ(counts.done, 0u);
}

TEST_F(QueueFaultTest, CompleteStatEintrStormIsRetried) {
  ShardQueue::init(dir_, 1);
  const std::optional<ShardPlan> plan =
      ShardQueue::claim(dir_, LeaseOptions{});
  ASSERT_TRUE(plan.has_value());
  fsfaults::ScopedFaults faults;
  fsfaults::script().fail_stat = 2;
  ShardQueue::complete(dir_, *plan);
  EXPECT_EQ(fsfaults::script().fail_stat, 0);
  EXPECT_EQ(fsfaults::script().slept.size(), 2u);
  EXPECT_EQ(ShardQueue::counts(dir_).done, 1u);
}

TEST_F(QueueFaultTest, UnlistableJournalDirectoryThrowsIoErrorNamingIt) {
  // A directory that cannot be listed must never read as "no shard
  // journals": --merge would report none, --merge --watch wait forever.
  fsfaults::ScopedFaults faults;
  fsfaults::script().fail_list_dir = 1;
  fsfaults::script().list_dir_errno = EACCES;
  try {
    (void)discover_shard_journals(root_ + "/base.demo.journal");
    FAIL() << "an unlistable directory read as holding no journals";
  } catch (const IoError& e) {
    EXPECT_EQ(e.op(), "opendir");
    EXPECT_EQ(e.code(), EACCES);
    EXPECT_EQ(e.path(), root_);
  }
  EXPECT_TRUE(fsfaults::script().slept.empty());
}

}  // namespace
}  // namespace mmr::sim
