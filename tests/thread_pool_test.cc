#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace ranomaly::util {
namespace {

TEST(ThreadPoolTest, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(),
                   [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "chunk " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<int> order;
  pool.ParallelFor(8, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // inline: no synchronization needed
  });
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ZeroChunksReturnsImmediately) {
  ThreadPool pool(3);
  bool called = false;
  pool.ParallelFor(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ChunkResultsMergeInChunkOrder) {
  // The determinism contract: callers store per-chunk results and merge
  // them by index; the outcome must not depend on scheduling.
  ThreadPool pool(4);
  constexpr std::size_t kChunks = 257;
  std::vector<std::uint64_t> partial(kChunks, 0);
  pool.ParallelFor(kChunks, [&](std::size_t i) { partial[i] = i * i; });
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kChunks; ++i) total += partial[i];
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kChunks; ++i) expected += i * i;
  EXPECT_EQ(total, expected);
}

TEST(ThreadPoolTest, BackToBackJobsDoNotLeakChunks) {
  // Generation tagging: a straggler from job N must never claim a chunk
  // of job N+1.  Exercise many short jobs to shake races out (run under
  // RANOMALY_SANITIZE=thread in CI).
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    const std::size_t chunks = 1 + static_cast<std::size_t>(round % 7);
    pool.ParallelFor(chunks, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), static_cast<int>(chunks)) << "round " << round;
  }
}

TEST(ThreadPoolTest, WorkerWakingAfterItsJobFinishedSkipsIt) {
  // Two-chunk jobs on an eight-lane pool, with a pause between jobs: the
  // caller usually finishes a job before most workers wake, and those
  // then find the job already retired.  They must skip it rather than
  // run its reset function (under -fno-sanitize-recover=undefined that
  // is an abort).
  ThreadPool pool(8);
  std::atomic<int> count{0};
  for (int round = 0; round < 2000; ++round) {
    pool.ParallelFor(2, [&](std::size_t) { count.fetch_add(1); });
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  EXPECT_EQ(count.load(), 4000);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  // A stemming shard count issued from inside a parallel spike window
  // must not wait on the already-busy pool.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, [&](std::size_t) {
    pool.ParallelFor(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPoolTest, ChunksForAndChunkRangeCoverItemsExactly) {
  EXPECT_EQ(ThreadPool::ChunksFor(0, 8), 0u);
  EXPECT_EQ(ThreadPool::ChunksFor(1, 8), 1u);
  EXPECT_EQ(ThreadPool::ChunksFor(8, 8), 1u);
  EXPECT_EQ(ThreadPool::ChunksFor(9, 8), 2u);
  EXPECT_EQ(ThreadPool::ChunksFor(7, 0), 7u);  // grain 0 treated as 1
  for (const std::size_t items : {1u, 7u, 8u, 9u, 63u, 64u, 65u}) {
    for (const std::size_t grain : {1u, 3u, 8u, 100u}) {
      const std::size_t chunks = ThreadPool::ChunksFor(items, grain);
      std::size_t covered = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [begin, end] = ThreadPool::ChunkRange(items, grain, c);
        EXPECT_EQ(begin, covered) << items << "/" << grain << "/" << c;
        EXPECT_GT(end, begin);
        EXPECT_LE(end - begin, grain == 0 ? 1 : grain);
        covered = end;
      }
      EXPECT_EQ(covered, items) << items << "/" << grain;
    }
  }
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvironment) {
  ::setenv("RANOMALY_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3u);
  ::setenv("RANOMALY_THREADS", "0", 1);  // invalid: falls back to hardware
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  ::setenv("RANOMALY_THREADS", "9999", 1);  // clamped down
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 256u);
  ::unsetenv("RANOMALY_THREADS");
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

}  // namespace
}  // namespace ranomaly::util
