// A small fixed-size worker pool with a shared FIFO task queue — the one
// threading primitive the parallel layers build on (sweep fan-out and
// sensitivity fan-out; each CTMC solve runs on one thread).
//
// Design constraints, in priority order:
//   1. Determinism support: the pool never reorders results — callers index
//      output slots by task id, so numerical output is independent of the
//      worker count and of scheduling.
//   2. No work stealing, no per-thread queues: the workloads here are
//      coarse (one sweep point or one sensitivity solve per task), so a
//      single mutex-guarded queue is never the bottleneck and keeps the
//      code auditable under ThreadSanitizer.
//
// Telemetry: submit() captures the submitter's phase-span token and
// re-establishes it inside the task (see util/spans.h), so fanned-out work
// aggregates under the submitting phase for any worker count.  When a
// metrics registry is attached at pool construction, the pool also records
// queue depth at submit, task count, and per-task busy time
// ("util.thread_pool.*").
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/metrics.h"

namespace util {

class ThreadPool {
 public:
  /// Spawns `workers` threads; 0 picks the hardware concurrency.
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (>= 1).
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues a task; the future resolves when it finishes (exceptions
  /// propagate through the future).
  std::future<void> submit(std::function<void()> task);

  /// hardware_concurrency with a floor of 1 (the standard allows 0).
  static unsigned hardware_threads();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;

  // Telemetry (no-ops when no registry was attached at construction).
  Counter tasks_submitted_;
  Counter busy_ns_;
  HistogramHandle queue_depth_;
  bool timing_ = false;  ///< measure per-task busy time
};

}  // namespace util
