#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mmr {
namespace {

TEST(ThreadPool, ZeroThreadsMeansHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.size(), ThreadPool::hardware_jobs());
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  const std::size_t n = 500;
  std::vector<int> hits(n, 0);
  pool.parallel_for(n, [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(n));
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 7) throw std::invalid_argument("seven");
      if (i == 31) throw std::runtime_error("thirty-one");
      ++completed;
    });
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "seven");
  }
  // Every non-throwing iteration still ran.
  EXPECT_EQ(completed.load(), 62);
  // The pool survives a throwing job, and the next job starts clean.
  std::atomic<int> again{0};
  pool.parallel_for(10, [&](std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 10);
}

TEST(ThreadPool, ConcurrentSubmissionStress) {
  // Many jobs of varying size back to back on one pool, from several
  // calling threads at once: every index of every job runs exactly once.
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  std::vector<std::thread> callers;
  for (int p = 0; p < 4; ++p) {
    callers.emplace_back([&pool, &sum, p] {
      for (int rep = 0; rep < 50; ++rep) {
        const auto n = static_cast<std::size_t>(rep % 7);
        pool.parallel_for(n, [&](std::size_t i) {
          sum += p * 1000 + static_cast<long>(i);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  long expected = 0;
  for (int p = 0; p < 4; ++p) {
    for (int rep = 0; rep < 50; ++rep) {
      for (int i = 0; i < rep % 7; ++i) expected += p * 1000 + i;
    }
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, WorkIsStolenAcrossQueues) {
  // Uneven work: index 0 blocks until every other index has run. Workers
  // claim indices from one shared counter, so the other workers must take
  // all 40 fast indices while one worker is stuck, or this test times out.
  ThreadPool pool(4);
  std::atomic<int> fast_done{0};
  bool released = false;
  pool.parallel_for(41, [&](std::size_t i) {
    if (i != 0) {
      ++fast_done;
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (fast_done.load() < 40 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    released = fast_done.load() == 40;
  });
  EXPECT_TRUE(released);
  EXPECT_EQ(fast_done.load(), 40);
}

}  // namespace
}  // namespace mmr
