// The ahs_server evaluation daemon: accepts study/sweep requests as JSON
// over a local Unix socket (serve/protocol.h), claims their points in the
// ResultStore (serve/result_store.h) so points shared across concurrent
// requests are computed exactly once, groups each request's claimed points
// into tasks by structure, queues the tasks behind a pluggable
// SchedulePolicy (serve/schedule.h), and fans them out to worker
// *processes* supervised over the durable point-file protocol
// (serve/supervisor.h).
//
// A task is the points of one request that share an ahs::StudyCache key
// (CTMC engines; a simulation point is a task of its own), split into
// chunks of min(ceil(group size / max_workers), kMaxTaskPoints) points: a
// one-structure grid still keeps every worker busy, and no task holds a
// worker for more than kMaxTaskPoints points.  One worker explores the
// structure once for all of its task's points.  Tasks never mix requests.
//
// Threading model:
//   * one accept loop (run() itself) spawning a thread per connection —
//     connections are few (clients, monitors), points are many.  A submit
//     claims every point first, then enqueues its tasks, and only then
//     waits on points other requests compute: waiting while holding
//     claims not yet enqueued could deadlock two requests on each other;
//   * one dispatch loop thread owning the supervisor: it fills free worker
//     slots from the scheduler and polls completions.  All process
//     supervision lives on this single thread, so there are no waitpid
//     races by construction.
//
// Observability: the server owns a TelemetrySession and (optionally) a
// TelemetryTap publishing the standard `ahs.telemetry.live.v1` file.  It
// feeds the exact counters/gauges run_sweep feeds ("ahs.sweep.points",
// "ahs.sweep.points_total", ...), so examples/ahs_top monitors a server
// exactly as it monitors a local sweep — unmodified.  Service-specific
// metrics live under "ahs.serve.*" (docs/OBSERVABILITY.md).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/result_store.h"
#include "serve/schedule.h"
#include "serve/supervisor.h"
#include "util/socket.h"

namespace util {
class TelemetryTap;
class TelemetrySession;
}  // namespace util

namespace serve {

/// The most points one task carries.  A longer structure group is split,
/// so whatever queues behind a running task waits for at most this many of
/// its points.  Each split costs one more exploration: at most about 7% of
/// an 8-point task on fig12's structures (docs/SERVICE.md, "Tasks").
inline constexpr std::size_t kMaxTaskPoints = 8;

struct ServerOptions {
  std::string socket_path;
  /// Task/result file directory (created if absent).
  std::string work_dir;
  /// Concurrent worker processes (>= 1).  A structure group is split into
  /// at most this many tasks, or into tasks of kMaxTaskPoints points when
  /// it is longer.
  int max_workers = 2;
  /// "fifo" | "sjf" | "fair".
  std::string policy = "fifo";
  /// Live telemetry tap file ("" disables); ahs_top-compatible.
  std::string tap_path;
  double tap_interval_seconds = 0.5;
  /// Worker spawn attempts per task.
  int max_attempts = 3;
  /// Executable for worker processes ("" = this binary).
  std::string worker_exe;
  /// Test knob forwarded into every worker task (see
  /// WorkerTask::debug_delay_seconds).
  double debug_worker_delay_seconds = 0.0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves until shutdown() (from a connection's shutdown op or another
  /// thread).  Blocks.
  void run();

  /// Asynchronous stop: closes the listener, wakes idle connections, kills
  /// live workers.  Replies already being computed (the shutdown op's
  /// acknowledgment, failed in-flight submits) are still sent.  Idempotent,
  /// thread-safe.
  void shutdown();

  /// The socket path (for tests that construct with an ephemeral dir).
  const std::string& socket_path() const { return options_.socket_path; }

 private:
  struct Job {
    std::uint64_t id = 0;
    std::string client;
    SubmitRequest request;
    std::vector<std::uint64_t> identity;       ///< per point
    std::vector<ahs::UnsafetyCurve> curves;    ///< per point
    std::vector<std::string> outcome;          ///< "computed"|"cached"|"failed"
    std::vector<std::string> error;            ///< per point, "" when fine
    std::size_t unresolved = 0;
    std::condition_variable done_cv;
    std::mutex done_mutex;
  };

  void handle_connection(util::Socket socket);
  std::string handle_request(const std::string& line);
  std::string handle_submit(const util::JsonValue& doc);
  /// Registers the points at `indices` of `job` (claimed kCompute) and
  /// enqueues them as tasks, one per structure-group chunk.  Fails them
  /// instead once the server is stopping.
  void enqueue_tasks(const std::shared_ptr<Job>& job,
                     const std::vector<std::size_t>& indices);
  std::string handle_stats();
  void dispatch_loop();
  double now_seconds() const;
  /// EWMA per-point cost estimate for SJF, keyed on structural fingerprint.
  double expected_seconds(const ahs::Parameters& params) const;
  void record_seconds(const ahs::Parameters& params, double seconds);

  ServerOptions options_;
  std::unique_ptr<util::TelemetrySession> session_;
  std::unique_ptr<util::TelemetryTap> tap_;
  std::unique_ptr<util::UnixListener> listener_;
  Scheduler scheduler_;
  ResultStore store_;
  std::unique_ptr<WorkerSupervisor> supervisor_;

  std::atomic<bool> stopping_{false};
  std::thread dispatcher_;
  std::mutex connections_mutex_;
  std::vector<std::thread> connections_;
  /// Sockets of the live connections.  shutdown() shuts their read side
  /// down so a thread parked in recv_line on an idle client wakes up; a
  /// connection removes its fd before closing it, so a recycled fd number
  /// is never shut down.
  std::set<int> connection_fds_;

  std::mutex jobs_mutex_;  ///< guards the ids and point_owner_ below
  std::uint64_t next_job_id_ = 1;
  std::uint64_t next_point_id_ = 0;
  /// point id → (job, point) of the request that claimed the computation.
  std::map<std::uint64_t, std::pair<std::shared_ptr<Job>, std::size_t>>
      point_owner_;
  /// Task ids are dense from 0, one per dispatch, so task_<id>.task exists
  /// for every id below the number of tasks dispatched.  Dispatcher thread
  /// only.
  std::uint64_t next_task_id_ = 0;

  mutable std::mutex cost_mutex_;
  std::map<std::uint64_t, double> cost_ewma_;  ///< fingerprint → seconds

  std::chrono::steady_clock::time_point start_;
  /// Unique identities ever accepted / completed — the ahs_top progress
  /// denominator and numerator.
  std::atomic<std::uint64_t> points_total_{0};
};

}  // namespace serve
