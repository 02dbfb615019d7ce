// Priority job queue of the ahs_server daemon, behind a pluggable
// SchedulePolicy.  The unit of scheduling is one task: the points of one
// job that share a structure, which one worker process evaluates together
// (serve/worker.h).  A policy decision is "which pending task gets the
// next free worker slot".
//
// Three policies ship:
//   fifo  — strict arrival order; the baseline every queue needs.
//   sjf   — shortest-expected-task-first: a task's expected seconds are
//           the sum of its points' estimates from the server's cost model
//           (an EWMA of completed per-point durations keyed by structural
//           fingerprint — the per-point seconds telemetry run_sweep
//           already records, reused service-side).  Classic
//           mean-waiting-time optimizer; starves long tasks under
//           sustained load, which is why it is a policy and not the
//           default.
//   fair  — fair-share across clients: the pending task whose client has
//           the fewest dispatched points goes first (FIFO within a
//           client), so a 3-point probe that arrives behind another
//           client's 500-point grid waits for the grid's running tasks
//           (at most serve::kMaxTaskPoints points each), not for the grid.
//
// The Scheduler wrapper owns the queue and the per-policy accounting:
// throughput (points dispatched per second since the first enqueue) and
// waiting time (enqueue → dispatch), both exposed via stats() and the
// ahs.serve.* metrics.  Every count is charged per point a task carries, so the
// numbers keep their per-point meaning however points are grouped.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace serve {

/// One schedulable unit: the points at `point_indices` of one job's
/// request, evaluated by one worker.  `expected_seconds` <= 0 means "no
/// estimate yet" (policies must order unknowns stably, not randomly).
struct PendingTask {
  std::vector<std::size_t> point_indices;
  std::vector<std::uint64_t> point_ids;  ///< one per point; names its result
  std::string client;
  double expected_seconds = 0.0;
  std::uint64_t enqueue_order = 0;  ///< global arrival counter
  double enqueue_seconds = 0.0;     ///< server clock at enqueue
  std::size_t points() const { return point_indices.size(); }
};

/// Pure pick function: choose an element of `pending` (non-empty).
/// `dispatched_by_client` is the running count of dispatched points per
/// client since server start — the state fair-share needs.
/// Implementations must be deterministic given (pending,
/// dispatched_by_client).
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  virtual const char* name() const = 0;
  virtual std::size_t pick(
      const std::vector<PendingTask>& pending,
      const std::map<std::string, std::uint64_t>& dispatched_by_client) = 0;
};

/// Factory for "fifo" | "sjf" | "fair"; throws util::PreconditionError on
/// anything else.
std::unique_ptr<SchedulePolicy> make_policy(const std::string& name);

/// Thread-safe queue + accounting around a policy.
class Scheduler {
 public:
  explicit Scheduler(std::unique_ptr<SchedulePolicy> policy);

  /// Enqueues a task; stamps its arrival order.  `now_seconds` is the
  /// server's monotonic clock (injected for testability).
  void enqueue(PendingTask task, double now_seconds);

  /// Applies the policy and removes the pick.  Returns false on an empty
  /// queue.  Charges the task's waiting time to each point it carries.
  bool pop(PendingTask* out, double now_seconds);

  /// Points waiting in the queue.
  std::size_t depth() const;

  struct Stats {
    std::string policy;
    std::uint64_t enqueued = 0;    ///< points
    std::uint64_t dispatched = 0;  ///< points
    double total_wait_seconds = 0.0;   ///< Σ over points (dispatch − enqueue)
    double max_wait_seconds = 0.0;
    double first_enqueue_seconds = -1.0;
    double last_dispatch_seconds = 0.0;
    /// Mean enqueue→dispatch latency over every dispatched point.
    double mean_wait_seconds() const {
      return dispatched != 0
                 ? total_wait_seconds / static_cast<double>(dispatched)
                 : 0.0;
    }
    /// Points dispatched per second over the busy span (first enqueue →
    /// last dispatch); 0 before the first dispatch.
    double dispatch_per_second() const {
      const double span = last_dispatch_seconds - first_enqueue_seconds;
      return dispatched != 0 && span > 0.0
                 ? static_cast<double>(dispatched) / span
                 : 0.0;
    }
  };
  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::unique_ptr<SchedulePolicy> policy_;
  std::vector<PendingTask> pending_;
  std::map<std::string, std::uint64_t> dispatched_by_client_;
  std::uint64_t next_order_ = 0;
  Stats stats_;
};

}  // namespace serve
