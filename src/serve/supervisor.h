// Worker-process supervisor of the ahs_server daemon: spawns one process
// per dispatched task (re-execing the server binary in --worker mode),
// reaps exits non-blockingly, and harvests results from the durable
// point-result files, one per point of the task.
//
// The file protocol carries ALL of the crash-safety (see serve/worker.h):
// poll() decides each point's success purely by "does a valid,
// identity-matching result file exist", never by how the process exited.
// A point whose file was renamed before a SIGKILL is a success; the points
// without a file are retried (the task file is rewritten with only those)
// up to max_attempts; a result file whose header mismatches its point's
// identity throws util::SnapshotError, which fails that point alone
// (reject-don't-merge, same as sweep resume).
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace serve {

class WorkerSupervisor {
 public:
  struct Options {
    /// Directory for task + result files (created by the server).
    std::string work_dir;
    /// Executable to spawn; the supervisor appends
    /// `--worker --task <file>`.  Normally util::self_exe_path().
    std::string worker_exe;
    /// Spawn attempts per task before reporting failure (>= 1).
    int max_attempts = 3;
  };

  explicit WorkerSupervisor(Options options);
  ~WorkerSupervisor();

  WorkerSupervisor(const WorkerSupervisor&) = delete;
  WorkerSupervisor& operator=(const WorkerSupervisor&) = delete;

  /// Writes the task file and spawns a worker for it.  Non-blocking; the
  /// completions, one per point, arrive via poll().
  void dispatch(const WorkerTask& task);

  /// The outcome of one point of a task.
  struct Completion {
    std::uint64_t point_id = 0;
    bool ok = false;
    ahs::UnsafetyCurve curve;   ///< valid when ok
    std::string error;          ///< last failure when !ok
    int attempts = 0;           ///< spawns consumed (1 = clean first run)
    /// The task's dispatch → completion wall clock over the points it was
    /// dispatched with: the per-point cost the server's estimates record.
    double seconds = 0.0;
  };

  /// Reaps exited workers.  For each, every point with a valid result file
  /// is a success (even if the process died by signal); the points without
  /// one are respawned as a smaller task while attempts remain, else
  /// fail.  Never blocks.
  std::vector<Completion> poll();

  /// Tasks currently running (spawned, not yet completed/failed).
  std::size_t active() const;

  /// Pids of the live worker processes — exposed through the stats op so
  /// the crash tests can aim kill(2) at a real worker.
  std::vector<pid_t> active_pids() const;

  /// SIGKILLs every live worker (shutdown path).  Their tasks are not
  /// retried; destructor calls this too.
  void kill_all();

  std::uint64_t spawned() const;
  std::uint64_t retries() const;

 private:
  struct Active {
    WorkerTask task;  ///< the points still without a result file
    std::size_t dispatched_points = 0;
    pid_t pid = -1;
    int attempt = 1;
    double started_seconds = 0.0;
  };

  /// Spawns (or respawns) the worker process for `a`'s task file.
  void spawn_locked(Active* a);
  double now_seconds() const;

  Options options_;
  mutable std::mutex mutex_;
  std::vector<Active> active_;
  std::uint64_t spawned_ = 0;
  std::uint64_t retries_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace serve
