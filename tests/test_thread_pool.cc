#include "common/thread_pool.h"

#include <atomic>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dcs {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, 1000, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  ParallelFor(&pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, ParallelForCountSmallerThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  ParallelFor(&pool, 3, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    ParallelFor(&pool, 50, [&counter](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  RunShards(&pool, MakeShards(5, 5), [&order](const ShardRange& shard) {
    order.push_back(shard.index);
  });
  // One worker executes in FIFO order.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, NullPoolRunsEveryIndexInOrderOnTheCaller) {
  // A null pool is the serial engine: one shard, run inline.
  const auto shards = ShardsFor(nullptr, 100);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].begin, 0u);
  EXPECT_EQ(shards[0].end, 100u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  ParallelFor(nullptr, 100, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(MakeShardsTest, CoversRangeExactlyOnce) {
  for (const std::size_t count : {1u, 2u, 7u, 64u, 1000u}) {
    for (const std::size_t max_shards : {1u, 3u, 8u, 2000u}) {
      const auto shards = MakeShards(count, max_shards);
      ASSERT_FALSE(shards.empty());
      EXPECT_LE(shards.size(), std::min(count, max_shards));
      std::size_t next = 0;
      for (std::size_t s = 0; s < shards.size(); ++s) {
        EXPECT_EQ(shards[s].index, s);
        EXPECT_EQ(shards[s].begin, next);
        EXPECT_LT(shards[s].begin, shards[s].end) << "empty shard";
        next = shards[s].end;
      }
      EXPECT_EQ(next, count);
    }
  }
}

TEST(MakeShardsTest, ZeroCountAndZeroShards) {
  EXPECT_TRUE(MakeShards(0, 4).empty());
  // max_shards clamps to 1 rather than silently dropping the range.
  const auto shards = MakeShards(5, 0);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].begin, 0u);
  EXPECT_EQ(shards[0].end, 5u);
}

TEST(MakeShardsTest, NearEqualSizes) {
  const auto shards = MakeShards(10, 3);
  ASSERT_EQ(shards.size(), 3u);
  // 10 = 4 + 3 + 3.
  EXPECT_EQ(shards[0].end - shards[0].begin, 4u);
  EXPECT_EQ(shards[1].end - shards[1].begin, 3u);
  EXPECT_EQ(shards[2].end - shards[2].begin, 3u);
}

TEST(ThreadPoolTest, RunShardsExecutesEveryShardOnce) {
  ThreadPool pool(4);
  const auto shards = ShardsFor(&pool, 100);
  std::vector<std::atomic<int>> hits(100);
  RunShards(&pool, shards, [&hits](const ShardRange& shard) {
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForRunsEveryTaskOfABatchOnce) {
  // The ingest server's drain shape: one closure per item, in any order.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(37);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  ParallelFor(&pool, tasks.size(), [&tasks](std::size_t i) { tasks[i](); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingleBatch) {
  ThreadPool pool(2);
  ParallelFor(&pool, 0, [](std::size_t) { FAIL(); });  // Must not deadlock.
  std::atomic<int> counter{0};
  ParallelFor(&pool, 1, [&](std::size_t) {
    EXPECT_FALSE(pool.OnWorkerThread());  // A single item runs inline.
    counter.fetch_add(1);
  });
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineInOrder) {
  // A fork-join from a worker thread must not deadlock waiting on itself; it
  // degrades to inline execution, preserving index order. (A two-item
  // batch, because a single item runs inline on the caller and would not
  // reach a worker thread at all.)
  ThreadPool pool(2);
  std::vector<std::size_t> order;
  std::atomic<int> other{0};
  ParallelFor(&pool, 2, [&](std::size_t outer) {
    if (outer == 1) {
      other.fetch_add(1);
      return;
    }
    EXPECT_TRUE(pool.OnWorkerThread());
    ParallelFor(&pool, 5, [&order](std::size_t i) { order.push_back(i); });
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(other.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A ParallelFor issued from inside a pool task must not deadlock waiting
  // on itself; it degrades to inline execution on the worker.
  ThreadPool pool(3);
  std::atomic<int> inner_total{0};
  std::atomic<int> inline_calls{0};
  ParallelFor(&pool, 6, [&](std::size_t) {
    EXPECT_TRUE(pool.OnWorkerThread());
    inline_calls.fetch_add(1);
    ParallelFor(&pool, 50, [&inner_total](std::size_t) {
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inline_calls.load(), 6);
  EXPECT_EQ(inner_total.load(), 6 * 50);
  EXPECT_FALSE(pool.OnWorkerThread());
}

TEST(ThreadPoolTest, BackToBackParallelFor) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    ParallelFor(&pool, 101, [&sum](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 101u * 100u / 2u) << "round " << round;
  }
}

TEST(ThreadPoolTest, ConcurrentRunShardsCallersAreIndependent) {
  // Two external threads drive the same pool at once; each caller's
  // RunShards must return only after its own shards completed.
  ThreadPool pool(4);
  std::atomic<int> a_done{0};
  std::atomic<int> b_done{0};
  std::thread ta([&] {
    RunShards(&pool, ShardsFor(&pool, 64), [&a_done](const ShardRange& shard) {
      a_done.fetch_add(static_cast<int>(shard.end - shard.begin));
    });
    EXPECT_EQ(a_done.load(), 64);
  });
  std::thread tb([&] {
    RunShards(&pool, ShardsFor(&pool, 32), [&b_done](const ShardRange& shard) {
      b_done.fetch_add(static_cast<int>(shard.end - shard.begin));
    });
    EXPECT_EQ(b_done.load(), 32);
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a_done.load(), 64);
  EXPECT_EQ(b_done.load(), 32);
}

// ---------------------------------------------------------------------------
// Latch lifetime. This is the race TSan is pointed at explicitly in CI
// (ctest -R "test_sync|test_thread_pool" in the sanitizer job): every
// RunShards call keeps its completion latch on the caller's stack, so the
// caller must not be able to return while the last worker still touches it.
// ---------------------------------------------------------------------------

TEST(ThreadPoolLatchTest, StormOfTinyTwoShardBatches) {
  // Oversubscribed (16 workers, more than most hosts have cores) and
  // back-to-back: shards this small often finish before the caller blocks,
  // which is when a latch released outside its mutex lets the caller tear
  // it down under the last worker. Four callers share the pool so latches
  // of different calls are live at once.
  ThreadPool pool(16);
  constexpr int kCallers = 4;
  constexpr int kCallsPerCaller = 3000;
  const std::vector<ShardRange> shards = MakeShards(2, 2);
  std::atomic<int> incomplete{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int call = 0; call < kCallsPerCaller; ++call) {
        int ran[2] = {0, 0};
        RunShards(&pool, shards,
                  [&ran](const ShardRange& shard) { ran[shard.index] = 1; });
        if (ran[0] + ran[1] != 2) incomplete.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(incomplete.load(), 0);
}

TEST(ThreadPoolTest, ParallelForManyMoreShardsThanThreads) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(10000);
  ParallelFor(&pool, 10000, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

}  // namespace
}  // namespace dcs
