// util::ThreadPool: task execution and exception propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([&count] { ++count; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  util::ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(util::ThreadPool::hardware_threads(), 1u);
}

}  // namespace
