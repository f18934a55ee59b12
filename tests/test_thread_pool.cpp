// Work-stealing pool stress tests: exact coverage, thread-count
// invariance of results written through the pool, exception propagation
// under concurrency, and deliberate hammering of the steal path (verified
// through PoolStats). Runs under TSan in CI (ctest label "stress").
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "search/thread_pool.h"

using namespace aalign;

namespace {

TEST(ThreadPoolStress, CoversAllIndicesExactlyOnce) {
  for (int threads : {1, 2, 3, 8, 16}) {
    for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{17}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(count);
      search::PoolStats stats;
      search::parallel_for_work_stealing(
          count, threads,
          [&](int id, std::size_t i) {
            EXPECT_GE(id, 0);
            EXPECT_LT(id, threads);
            hits[i].fetch_add(1, std::memory_order_relaxed);
          },
          &stats);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "item " << i << " threads " << threads;
      }
    }
  }
}

// Results produced through the pool must not depend on the worker count:
// each item writes to its own slot, so the assembled vector is
// bit-identical for 1, 2, and 8 threads.
TEST(ThreadPoolStress, ThreadCountInvariance) {
  constexpr std::size_t kCount = 4096;
  std::vector<std::uint64_t> first;
  for (int threads : {1, 2, 8}) {
    std::vector<std::uint64_t> out(kCount, 0);
    search::parallel_for_work_stealing(kCount, threads,
                                       [&](int, std::size_t i) {
                                         // Deterministic per-item work.
                                         std::uint64_t h = i * 0x9E3779B97F4A7C15ull;
                                         h ^= h >> 31;
                                         out[i] = h;
                                       });
    if (first.empty()) {
      first = out;
    } else {
      EXPECT_EQ(out, first) << "threads=" << threads;
    }
  }
}

TEST(ThreadPoolStress, PropagatesExceptions) {
  EXPECT_THROW(
      search::parallel_for_work_stealing(
          200, 4,
          [&](int, std::size_t i) {
            if (i == 37) throw std::runtime_error("item 37");
          }),
      std::runtime_error);

  // Serial path (threads == 1) must propagate too.
  EXPECT_THROW(search::parallel_for_work_stealing(
                   10, 1,
                   [&](int, std::size_t i) {
                     if (i == 3) throw std::logic_error("serial");
                   }),
               std::logic_error);
}

TEST(ThreadPoolStress, ExceptionAbandonsRemainingWorkButJoins) {
  // After the throw, the pool must abort the remaining items (not hang)
  // and still join every worker before rethrowing.
  std::atomic<std::size_t> executed{0};
  try {
    search::parallel_for_work_stealing(100000, 4, [&](int, std::size_t i) {
      if (i == 0) throw std::runtime_error("early");
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error&) {
  }
  // Some items ran, but the abort kept the pool from draining all 100k.
  EXPECT_LT(executed.load(), 100000u);
}

// Hammer the steal path: striped distribution gives worker 0 all the slow
// items and worker 1 all the instant ones, so worker 1 must drain its own
// deque and then steal half of worker 0's backlog (repeatedly).
TEST(ThreadPoolStress, SlowOwnerForcesSteals) {
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  search::PoolStats stats;
  search::parallel_for_work_stealing(
      kCount, 2,
      [&](int, std::size_t i) {
        if (i % 2 == 0) {  // worker 0's stripe: slow
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        hits[i].fetch_add(1, std::memory_order_relaxed);
      },
      &stats);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(stats.steals, 1u);
  EXPECT_GE(stats.stolen_items, stats.steals);  // each steal moves >= 1 item
}

// Many tiny items across many workers: exercises concurrent pop/steal
// races as hard as this machine allows. The assertion is exact coverage
// plus a coherent stats invariant; TSan turns any locking mistake into a
// hard failure.
TEST(ThreadPoolStress, TinyItemHammer) {
  constexpr std::size_t kCount = 20000;
  for (int round = 0; round < 5; ++round) {
    std::vector<std::atomic<std::uint8_t>> hits(kCount);
    std::atomic<std::uint64_t> sum{0};
    search::PoolStats stats;
    search::parallel_for_work_stealing(
        kCount, 8,
        [&](int, std::size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
          sum.fetch_add(i, std::memory_order_relaxed);
        },
        &stats);
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " item " << i;
    }
    EXPECT_EQ(sum.load(), kCount * (kCount - 1) / 2);
    EXPECT_LE(stats.stolen_items, kCount);  // can't migrate more than exist
  }
}

TEST(ThreadPoolStress, SerialPathResetsStats) {
  search::PoolStats stats;
  stats.steals = 99;
  stats.stolen_items = 99;
  stats.steal_scans = 99;
  search::parallel_for_work_stealing(5, 1, [](int, std::size_t) {}, &stats);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.stolen_items, 0u);
  EXPECT_EQ(stats.steal_scans, 0u);
}

TEST(ThreadPoolStress, DefaultThreadCountPositive) {
  EXPECT_GE(search::default_thread_count(), 1);
}

}  // namespace
