#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/parallel.hpp"

namespace fgcs {
namespace {

TEST(ThreadPoolTest, WorkerCountRespectsConstructorArg) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  ThreadPool autodetect(0);
  EXPECT_GE(autodetect.worker_count(), 1u);
}

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(2);
  std::future<int> result = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(result.get(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  std::future<void> result =
      pool.submit([]() -> void { throw std::runtime_error("submit boom"); });
  EXPECT_THROW(result.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ManyQueuedSubmitsAllExecute) {
  ThreadPool pool(2);
  constexpr int kTasks = 500;
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (int t = 0; t < kTasks; ++t)
    futures.push_back(pool.submit([&ran] { ++ran; }));
  for (std::future<void>& f : futures) f.get();
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPoolTest, OversubscribedRangeVisitsEveryIndexOnce) {
  // Far more indices than workers: chunk claiming + stealing must still
  // cover the range exactly once.
  ThreadPool pool(2);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> visits(kCount);
  pool.for_each_index(kCount, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kCount; ++i)
    ASSERT_EQ(visits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, SerialCapRunsInOrderOnCaller) {
  ThreadPool pool(4);
  std::vector<std::size_t> order;
  pool.for_each_index(8, [&](std::size_t i) { order.push_back(i); },
                      /*max_concurrency=*/1);
  std::vector<std::size_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ZeroCountIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.for_each_index(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, NestedForEachDoesNotDeadlock) {
  // Every outer chunk starts a full inner loop on the same (tiny) pool.
  // The caller of each loop participates in its own range, so progress never
  // depends on a free worker — this must finish even though the two workers
  // are all occupied by outer chunks while the inner loops run.
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 8;
  std::atomic<int> total{0};
  pool.for_each_index(
      kOuter,
      [&](std::size_t) {
        pool.for_each_index(kInner, [&](std::size_t) { ++total; }, 4);
      },
      4);
  EXPECT_EQ(total.load(), static_cast<int>(kOuter * kInner));
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  std::atomic<int> total{0};
  parallel_for(4, [&](std::size_t) {
    parallel_for(8, [&](std::size_t) { ++total; }, 4);
  }, 4);
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, ForEachPropagatesFirstException) {
  ThreadPool pool(4);
  try {
    pool.for_each_index(64, [](std::size_t i) {
      if (i == 13) throw std::runtime_error("pool boom");
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "pool boom");
  }
}

TEST(ThreadPoolTest, ParallelForExceptionMessageSurfacesIntact) {
  // The pool-backed parallel_for rethrows the (single) thrown exception at
  // the call site with its message intact.
  const auto throwing_body = [](std::size_t i) {
    if (i == 7) throw std::runtime_error("pool boom");
  };
  std::string message;
  try {
    parallel_for(32, throwing_body, 4);
  } catch (const std::runtime_error& error) {
    message = error.what();
  }
  EXPECT_EQ(message, "pool boom");
}

TEST(ThreadPoolTest, DefaultPoolIsAProcessSingleton) {
  ThreadPool& a = ThreadPool::default_pool();
  ThreadPool& b = ThreadPool::default_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.worker_count(), 1u);
}

TEST(ThreadPoolTest, StatsReflectActivity) {
  ThreadPool pool(2);
  const PoolStats before = pool.stats();
  EXPECT_EQ(before.workers, 2u);
  EXPECT_FALSE(before.started);  // lazily started: no work yet
  EXPECT_EQ(before.tasks_submitted, 0u);

  std::atomic<int> ran{0};
  pool.for_each_index(256, [&](std::size_t) { ++ran; });
  pool.submit([] {}).get();

  const PoolStats after = pool.stats();
  EXPECT_TRUE(after.started);
  EXPECT_EQ(after.parallel_fors, 1u);
  EXPECT_GE(after.tasks_submitted, 1u);
  EXPECT_LE(after.tasks_executed, after.tasks_submitted);
  EXPECT_GE(after.queue_depth_high_water, 1u);
  EXPECT_GE(after.utilization(), 0.0);
  EXPECT_LE(after.utilization(), 1.0);
}

// Stress: many back-to-back loops and submits racing on one small pool.
// Primarily a TSan target (CI runs this suite under -fsanitize=thread); the
// assertions also catch lost or double-run indices under contention.
TEST(ThreadPoolTest, StressManySmallLoopsAndSubmits) {
  ThreadPool pool(4);
  constexpr int kRounds = 200;
  constexpr std::size_t kCount = 64;
  std::atomic<long> sum{0};
  for (int round = 0; round < kRounds; ++round) {
    pool.for_each_index(kCount, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i) + 1, std::memory_order_relaxed);
    });
    pool.submit([&sum] { sum.fetch_add(1, std::memory_order_relaxed); }).get();
  }
  const long per_loop = static_cast<long>(kCount * (kCount + 1) / 2);
  EXPECT_EQ(sum.load(), kRounds * (per_loop + 1));
}

}  // namespace
}  // namespace fgcs
