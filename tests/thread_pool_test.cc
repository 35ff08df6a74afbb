// Unit coverage of the parallel runtime's pool (thread_pool.h): every task
// runs exactly once, on the pool threads and the caller, and concurrent
// callers take turns. The fragment-local kernel the executor runs on it
// is covered in physical_plan_test; the end-to-end determinism story —
// threaded == simulate == serial — lives in serial_parallel_oracle_test.

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/parallel/thread_pool.h"

namespace txmod::parallel {
namespace {

TEST(ThreadPoolTest, ZeroWorkerPoolRunsEverythingOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(3);
  pool.Run(seen.size(),
           [&seen](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, SequentialRunsReuseTheSamePool) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.Run(3, [&count](std::size_t) { ++count; });
    ASSERT_EQ(count.load(), 3) << "round " << round;
  }
}

TEST(ThreadPoolTest, EveryTaskRunsExactlyOnceOnANarrowerPool) {
  // 100 tasks on 2 threads plus the caller: each participant takes many,
  // and none may be skipped or taken twice.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> runs(100);
  pool.Run(runs.size(), [&runs](std::size_t i) { ++runs[i]; });
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, TwoCallersOnOnePoolBothComplete) {
  ThreadPool pool(2);
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  std::thread other([&] {
    for (int round = 0; round < 20; ++round) {
      pool.Run(8, [&second](std::size_t) { ++second; });
    }
  });
  for (int round = 0; round < 20; ++round) {
    pool.Run(8, [&first](std::size_t) { ++first; });
  }
  other.join();
  EXPECT_EQ(first.load(), 160);
  EXPECT_EQ(second.load(), 160);
}

}  // namespace
}  // namespace txmod::parallel
