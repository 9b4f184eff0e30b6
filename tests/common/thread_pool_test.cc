#include "common/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace spa {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ThreadCountRespected) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPoolTest, PendingTasksReportsQueueDepth) {
  ThreadPool pool(1);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool started = false;
  bool release = false;
  // Occupy the single worker behind a gate, then queue two more tasks:
  // the queue depth is exactly 2 until the gate opens.
  pool.Submit([&] {
    {
      std::lock_guard<std::mutex> lock(gate_mu);
      started = true;
    }
    gate_cv.notify_all();
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return started; });
  }
  pool.Submit([] {});
  pool.Submit([] {});
  EXPECT_EQ(pool.pending_tasks(), 2u);
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    release = true;
  }
  gate_cv.notify_all();
  pool.Wait();
  EXPECT_EQ(pool.pending_tasks(), 0u);
}

TEST(ParallelForTest, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 10000;
  std::vector<int> hits(n, 0);
  ParallelFor(&pool, n, [&hits](size_t i) { hits[i] += 1; });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelForTest, SumMatchesSerial) {
  ThreadPool pool(8);
  const size_t n = 100000;
  std::vector<int64_t> values(n);
  std::iota(values.begin(), values.end(), 0);
  std::atomic<int64_t> sum{0};
  ParallelFor(&pool, n, [&](size_t i) { sum.fetch_add(values[i]); });
  EXPECT_EQ(sum.load(), static_cast<int64_t>(n) * (n - 1) / 2);
}

TEST(ParallelForTest, ZeroElements) {
  ThreadPool pool(2);
  bool touched = false;
  ParallelFor(&pool, 0, [&touched](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelForTest, FewerElementsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  ParallelFor(&pool, 3, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ParallelForTest, OneChunkRunsOnTheCallingThread) {
  // A one-worker pool always makes one chunk, and so does n == 1 on a
  // wider pool: either runs on the caller, in index order.
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool one(1);
  std::vector<size_t> order;
  std::vector<std::thread::id> ran_on;
  ParallelFor(&one, 5, [&](size_t i) {
    order.push_back(i);
    ran_on.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  ThreadPool four(4);
  ParallelFor(&four, 1,
              [&](size_t) { ran_on.push_back(std::this_thread::get_id()); });
  ASSERT_EQ(ran_on.size(), 6u);
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
}

}  // namespace
}  // namespace spa
