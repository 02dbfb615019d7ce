#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "util/error.h"
#include "util/spans.h"

namespace util {

unsigned ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned workers) {
  if (MetricsRegistry* reg = MetricsRegistry::global()) {
    tasks_submitted_ = reg->counter("util.thread_pool.tasks");
    busy_ns_ = reg->counter("util.thread_pool.busy_ns");
    queue_depth_ = reg->histogram("util.thread_pool.queue_depth",
                                  {0, 1, 2, 4, 8, 16, 32, 64, 128});
    timing_ = true;
  }
  if (workers == 0) workers = hardware_threads();
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  // Carry the submitter's span position into the task so fanned-out work
  // nests under the submitting phase (util/spans.h).  Timing is only worth
  // a clock read when a registry is attached.
  const SpanToken token = current_span_token();
  std::packaged_task<void()> packaged(
      [task = std::move(task), token, this] {
        SpanTokenScope scope(token);
        if (timing_) {
          const auto start = std::chrono::steady_clock::now();
          task();
          busy_ns_.add(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count()));
        } else {
          task();
        }
      });
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    AHS_REQUIRE(!stop_, "submit on a stopping ThreadPool");
    queue_.push(std::move(packaged));
    queue_depth_.record(static_cast<double>(queue_.size()));
  }
  tasks_submitted_.inc();
  cv_.notify_one();
  return future;
}

}  // namespace util
