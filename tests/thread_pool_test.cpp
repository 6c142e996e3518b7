// ThreadPool protocol tests.  Written to be meaningful under
// ThreadSanitizer: the stress cases drive many generations through the
// pool so TSan can observe the generation-counter handshake (invariants
// I1-I5 in thread_pool.hpp) under real contention.
#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace sysmap::support {
namespace {

TEST(ThreadPoolTest, RunsJobOnEveryWorker) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::vector<int> hits(pool.size(), 0);
  pool.run([&](std::size_t w) { hits[w] += 1; });
  for (std::size_t w = 0; w < pool.size(); ++w) {
    EXPECT_EQ(hits[w], 1) << "worker " << w;
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.run([&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 1);
}

// I3: per-worker slots written by workers are visible to the caller after
// run() returns, with no atomics on the slots themselves.  This is the
// exact access pattern of the space sweeps' per-worker LocalBest slots.
TEST(ThreadPoolTest, WorkerSlotWritesAreVisibleAfterJoin) {
  ThreadPool pool(8);
  constexpr int kGenerations = 200;
  std::vector<std::uint64_t> slot(pool.size(), 0);
  for (int g = 1; g <= kGenerations; ++g) {
    pool.run([&](std::size_t w) { slot[w] += static_cast<std::uint64_t>(g); });
  }
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kGenerations) * (kGenerations + 1) / 2;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    EXPECT_EQ(slot[w], expected) << "worker " << w;
  }
}

// I2: every worker runs the job exactly once per generation, even when
// generations are retired as fast as the pool can take them.
TEST(ThreadPoolTest, ExactlyOnceAcrossManyGenerations) {
  ThreadPool pool(4);
  constexpr int kGenerations = 500;
  std::atomic<std::uint64_t> total(0);
  for (int g = 0; g < kGenerations; ++g) {
    pool.run([&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(kGenerations) *
                              pool.size());
}

// I4: the first exception is rethrown from run(); the pool stays usable
// for the next generation.
TEST(ThreadPoolTest, RethrowsWorkerExceptionAndRecovers) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run([](std::size_t w) {
        if (w == 2) throw std::runtime_error("worker 2 failed");
      }),
      std::runtime_error);

  // A failure must not poison the next generation (I4: error_ cleared).
  std::vector<int> hits(pool.size(), 0);
  pool.run([&](std::size_t w) { hits[w] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(pool.size()));
}

TEST(ThreadPoolTest, AllWorkersThrowingKeepsFirstOnly) {
  ThreadPool pool(8);
  // Every worker throws; run() must surface exactly one and swallow the
  // rest without deadlocking the join.
  EXPECT_THROW(pool.run([](std::size_t w) {
                 throw std::runtime_error("fail " + std::to_string(w));
               }),
               std::runtime_error);
  std::atomic<int> ran{0};
  pool.run([&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), static_cast<int>(pool.size()));
}

// Destruction with no job ever submitted, and destruction immediately
// after a job, both have to shut the workers down cleanly.
TEST(ThreadPoolTest, CleanShutdownIdleAndBusy) {
  { ThreadPool pool(4); }
  {
    ThreadPool pool(4);
    pool.run([](std::size_t) {});
  }
  SUCCEED();
}

}  // namespace
}  // namespace sysmap::support
