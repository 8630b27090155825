// The shard queue's ticket renames under injected faults: they go through
// the fsio table, so a permanent rename error surfaces as a typed IoError
// from the rename itself and the ticket stays where it was.
#include "sim/shard.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <optional>
#include <string>

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

}  // namespace
}  // namespace mmr::sim
