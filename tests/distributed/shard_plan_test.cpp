// ShardPlan partition algebra and the file-based ShardQueue. The plan is
// the whole correctness story for sharding: the shards must be DISJOINT
// (no trial runs twice) and COVERING (no trial is lost) for every trial
// count, and the queue must hand each shard to exactly one claimant.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "sim/shard.h"

namespace mmr::sim {
namespace {

TEST(ShardPlanTest, DefaultPlanIsDisabledAndOwnsEverything) {
  const ShardPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_TRUE(plan.valid());
  for (std::size_t t = 0; t < 10; ++t) EXPECT_TRUE(plan.owns(t));
  EXPECT_EQ(plan.owned_of(10), 10u);
}

TEST(ShardPlanTest, SingleShardPlanIsEnabledAndOwnsEverything) {
  const ShardPlan plan{0, 1};
  EXPECT_TRUE(plan.enabled());
  EXPECT_TRUE(plan.valid());
  for (std::size_t t = 0; t < 10; ++t) EXPECT_TRUE(plan.owns(t));
  EXPECT_EQ(plan.owned_of(10), 10u);
  EXPECT_EQ(plan.suffix(), "shard-0-of-1");
}

TEST(ShardPlanTest, ShardsPartitionEveryTrialSpace) {
  // Disjoint + covering for every (N, trials) in a broad grid, including
  // trials < N (some shards own nothing) and trials % N != 0.
  for (std::size_t count = 1; count <= 8; ++count) {
    for (std::size_t trials : {0u, 1u, 5u, 6u, 7u, 37u, 100u}) {
      std::size_t total_owned = 0;
      for (std::size_t t = 0; t < trials; ++t) {
        std::size_t owners = 0;
        for (std::size_t i = 0; i < count; ++i) {
          if (ShardPlan{i, count}.owns(t)) ++owners;
        }
        EXPECT_EQ(owners, 1u) << "trial " << t << " of " << trials
                              << " with " << count << " shards";
      }
      for (std::size_t i = 0; i < count; ++i) {
        total_owned += ShardPlan{i, count}.owned_of(trials);
      }
      EXPECT_EQ(total_owned, trials) << count << " shards";
    }
  }
}

TEST(ShardPlanTest, OwnedOfMatchesOwns) {
  for (std::size_t count = 1; count <= 5; ++count) {
    for (std::size_t i = 0; i < count; ++i) {
      const ShardPlan plan{i, count};
      for (std::size_t trials : {0u, 3u, 11u, 24u}) {
        std::size_t by_hand = 0;
        for (std::size_t t = 0; t < trials; ++t) {
          if (plan.owns(t)) ++by_hand;
        }
        EXPECT_EQ(plan.owned_of(trials), by_hand);
      }
    }
  }
}

TEST(ShardPlanTest, ParseAcceptsStrictIOverN) {
  const auto p = ShardPlan::parse("0/3");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->index, 0u);
  EXPECT_EQ(p->count, 3u);
  const auto q = ShardPlan::parse("7/8");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ((ShardPlan{7, 8}), *q);
  EXPECT_TRUE(ShardPlan::parse("0/1").has_value());
}

TEST(ShardPlanTest, ParseRejectsMalformedSpecs) {
  for (const char* bad :
       {"", "/", "3", "3/", "/3", "3/3", "4/3", "a/3", "1/b", "-1/3",
        "1/-3", "0x1/3", "1/0x3", " 1/3", "1/3 ", "1 /3", "1/ 3", "1//3",
        "1/3/5", "+1/3", "1/0"}) {
    EXPECT_FALSE(ShardPlan::parse(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(ShardPlanTest, SuffixRoundTripsThroughParseSuffix) {
  for (std::size_t count = 1; count <= 4; ++count) {
    for (std::size_t i = 0; i < count; ++i) {
      const ShardPlan plan{i, count};
      const auto back = ShardPlan::parse_suffix(plan.suffix());
      ASSERT_TRUE(back.has_value()) << plan.suffix();
      EXPECT_EQ(plan, *back);
    }
  }
}

TEST(ShardPlanTest, ParseSuffixRejectsForeignNames) {
  for (const char* bad :
       {"", "shard", "shard-0", "shard-0-of", "shard-0-of-", "shard--of-3",
        "shard-3-of-3", "shard-a-of-3", "shard-0-of-b", "shard-0-of-0",
        "xshard-0-of-3", "shard-0-of-3x", "shard-0-of-3.journal"}) {
    EXPECT_FALSE(ShardPlan::parse_suffix(bad).has_value())
        << "'" << bad << "'";
  }
}

class ShardQueueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/mmr_shardq_XXXXXX";
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

TEST_F(ShardQueueTest, ClaimsEachShardExactlyOnce) {
  ShardQueue::init(dir_, 4);
  std::set<std::size_t> claimed;
  for (int i = 0; i < 4; ++i) {
    const auto plan = ShardQueue::claim(dir_);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->count, 4u);
    EXPECT_TRUE(claimed.insert(plan->index).second)
        << "shard " << plan->index << " claimed twice";
  }
  EXPECT_EQ(claimed.size(), 4u);
  EXPECT_FALSE(ShardQueue::claim(dir_).has_value());
}

TEST_F(ShardQueueTest, ClaimsLowestIndexFirst) {
  ShardQueue::init(dir_, 3);
  for (std::size_t expect : {0u, 1u, 2u}) {
    const auto plan = ShardQueue::claim(dir_);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->index, expect);
  }
}

TEST_F(ShardQueueTest, ReinitIsIdempotentButCountChangeThrows) {
  ShardQueue::init(dir_, 3);
  ASSERT_TRUE(ShardQueue::claim(dir_).has_value());
  // Same count: a late-starting worker re-running init must NOT
  // resurrect the claimed shard.
  ShardQueue::init(dir_, 3);
  std::set<std::size_t> rest;
  while (const auto plan = ShardQueue::claim(dir_)) {
    rest.insert(plan->index);
  }
  EXPECT_EQ(rest.size(), 2u);
  EXPECT_THROW(ShardQueue::init(dir_, 5), std::runtime_error);
}

}  // namespace
}  // namespace mmr::sim
