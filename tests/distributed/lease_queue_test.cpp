// Lease-based shard reclamation: a claim stamps a host/pid lease,
// heartbeats renew it, stale leases are auto-reclaimed by the next
// claimer while fresh ones are left to their holder, and staleness is
// measured on the queue filesystem's clock (probe file), so
// cross-machine wall-clock skew cannot fake a death.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "sim/shard.h"

namespace mmr::sim {
namespace {

class LeaseQueueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/mmr_lease_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    root_ = tmpl;
    dir_ = root_ + "/queue";
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + root_ + "'";
    (void)std::system(cmd.c_str());
  }

  /// Shift a claimed shard's lease mtime by `seconds` (negative =
  /// backdate, positive = future-date for the clock-skew tests).
  void shift_lease(const ShardPlan& plan, double seconds) {
    const std::string path = dir_ + "/claimed/" + plan.suffix();
    struct stat st;
    ASSERT_EQ(::stat(path.c_str(), &st), 0) << path;
    struct timespec times[2];
    times[0] = st.st_atim;
    times[1] = st.st_mtim;
    times[1].tv_sec += static_cast<time_t>(seconds);
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
  }

  std::string root_, dir_;
};

TEST_F(LeaseQueueTest, ClaimStampsThisProcessAsHolder) {
  ShardQueue::init(dir_, 2);
  const auto plan = ShardQueue::claim(dir_);
  ASSERT_TRUE(plan.has_value());
  const auto lease = ShardQueue::holder(dir_, *plan);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->pid, static_cast<long>(::getpid()));
  EXPECT_FALSE(lease->host.empty());
  EXPECT_EQ(lease->renewals, 0u);
}

TEST_F(LeaseQueueTest, RenewBumpsTheRenewalCountAndRefreshesTheLease) {
  ShardQueue::init(dir_, 1);
  const auto plan = ShardQueue::claim(dir_);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(ShardQueue::renew(dir_, *plan));
  EXPECT_TRUE(ShardQueue::renew(dir_, *plan));
  const auto lease = ShardQueue::holder(dir_, *plan);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->renewals, 2u);
}

TEST_F(LeaseQueueTest, RenewOfAForeignLeaseReturnsFalse) {
  ShardQueue::init(dir_, 1);
  const auto plan = ShardQueue::claim(dir_);
  ASSERT_TRUE(plan.has_value());
  // The shard lapsed and was re-claimed by a worker on another machine:
  // its lease now names that holder. Our renewal must report the loss
  // instead of silently overwriting the new holder's lease.
  std::ofstream(dir_ + "/claimed/" + plan->suffix())
      << "host elsewhere\npid 12345\nrenewals 3\n";
  EXPECT_FALSE(ShardQueue::renew(dir_, *plan));
}

TEST_F(LeaseQueueTest, RenewOfAnUnclaimedShardReturnsFalse) {
  ShardQueue::init(dir_, 1);
  EXPECT_FALSE(ShardQueue::renew(dir_, ShardPlan{0, 1}));
}

TEST_F(LeaseQueueTest, StaleLeaseIsAutoReclaimedByTheNextClaimer) {
  ShardQueue::init(dir_, 2);
  const auto first = ShardQueue::claim(dir_);
  const auto second = ShardQueue::claim(dir_);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(ShardQueue::claim(dir_).has_value());
  // First worker "dies": its lease ages past ttl + grace.
  shift_lease(*first, -400.0);
  const auto reclaimed = ShardQueue::claim(dir_);
  ASSERT_TRUE(reclaimed.has_value());
  EXPECT_EQ(*reclaimed, *first);
  // The second worker's lease is fresh; nothing else to claim.
  EXPECT_FALSE(ShardQueue::claim(dir_).has_value());
}

TEST_F(LeaseQueueTest, ShortTtlReclaimsWithoutMtimeForgery) {
  ShardQueue::init(dir_, 1);
  LeaseOptions opts;
  opts.ttl_s = 0.05;
  opts.grace_s = 0.0125;
  const auto plan = ShardQueue::claim(dir_, opts);
  ASSERT_TRUE(plan.has_value());
  // No heartbeat: after ttl + grace the shard is genuinely reclaimable.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  const auto reclaimed = ShardQueue::claim(dir_, opts);
  ASSERT_TRUE(reclaimed.has_value());
  EXPECT_EQ(*reclaimed, *plan);
}

TEST_F(LeaseQueueTest, FutureDatedLeaseIsNotStale) {
  // Clock-skew guard: a worker on a fast-clocked machine writes lease
  // mtimes in the probe's future. That must read as FRESH -- reclaiming
  // it would steal a live worker's shard.
  ShardQueue::init(dir_, 1);
  LeaseOptions opts;
  opts.ttl_s = 0.05;
  opts.grace_s = 0.0125;
  const auto plan = ShardQueue::claim(dir_, opts);
  ASSERT_TRUE(plan.has_value());
  shift_lease(*plan, 3600.0);  // one hour in the future
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(ShardQueue::claim(dir_, opts).has_value());
  EXPECT_EQ(ShardQueue::counts(dir_).claimed, 1u);
}

TEST_F(LeaseQueueTest, CompleteRetiresAShardForGood) {
  ShardQueue::init(dir_, 1);
  const auto plan = ShardQueue::claim(dir_);
  ASSERT_TRUE(plan.has_value());
  ShardQueue::complete(dir_, *plan);
  ShardQueue::complete(dir_, *plan);  // idempotent
  // A done shard is never claimable again, not even through the stale-
  // lease reclaim of an expired TTL.
  EXPECT_FALSE(ShardQueue::claim(dir_).has_value());
  LeaseOptions expired;
  expired.ttl_s = 0.0;
  expired.grace_s = 0.0;
  EXPECT_FALSE(ShardQueue::claim(dir_, expired).has_value());
  const auto c = ShardQueue::counts(dir_);
  EXPECT_EQ(c.todo, 0u);
  EXPECT_EQ(c.claimed, 0u);
  EXPECT_EQ(c.done, 1u);
}

TEST_F(LeaseQueueTest, CountsTrackTheQueuePopulations) {
  ShardQueue::init(dir_, 3);
  auto c = ShardQueue::counts(dir_);
  EXPECT_EQ(c.todo, 3u);
  const auto a = ShardQueue::claim(dir_);
  const auto b = ShardQueue::claim(dir_);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ShardQueue::complete(dir_, *a);
  c = ShardQueue::counts(dir_);
  EXPECT_EQ(c.todo, 1u);
  EXPECT_EQ(c.claimed, 1u);
  EXPECT_EQ(c.done, 1u);
}

TEST_F(LeaseQueueTest, LeaseKeeperHeartbeatsAndCompletesOnDestruction) {
  ShardQueue::init(dir_, 1);
  LeaseOptions opts;
  opts.ttl_s = 0.08;  // heartbeat every 20ms
  const auto plan = ShardQueue::claim(dir_, opts);
  ASSERT_TRUE(plan.has_value());
  {
    ShardLeaseKeeper keeper(dir_, *plan, opts);
    // Across several TTLs the lease must stay fresh: heartbeats land.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_FALSE(keeper.lost());
    EXPECT_FALSE(ShardQueue::claim(dir_, opts).has_value())
        << "heartbeat failed to keep the lease fresh";
    const auto lease = ShardQueue::holder(dir_, *plan);
    ASSERT_TRUE(lease.has_value());
    EXPECT_GT(lease->renewals, 0u);
  }
  // Normal destruction marks the shard done.
  const auto c = ShardQueue::counts(dir_);
  EXPECT_EQ(c.done, 1u);
  EXPECT_EQ(c.claimed, 0u);
}

}  // namespace
}  // namespace mmr::sim
