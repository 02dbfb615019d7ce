#include "serve/supervisor.h"

#include <utility>

#include "util/error.h"
#include "util/logging.h"
#include "util/snapshot.h"
#include "util/subprocess.h"

namespace serve {

WorkerSupervisor::WorkerSupervisor(Options options)
    : options_(std::move(options)),
      start_(std::chrono::steady_clock::now()) {
  AHS_REQUIRE(!options_.work_dir.empty(), "supervisor needs a work_dir");
  AHS_REQUIRE(!options_.worker_exe.empty(), "supervisor needs a worker_exe");
  AHS_REQUIRE(options_.max_attempts >= 1, "max_attempts must be >= 1");
}

WorkerSupervisor::~WorkerSupervisor() { kill_all(); }

double WorkerSupervisor::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void WorkerSupervisor::spawn_locked(Active* a) {
  a->pid = util::spawn_process({options_.worker_exe, "--worker", "--task",
                                task_path(options_.work_dir,
                                          a->task.task_id)});
  ++spawned_;
}

void WorkerSupervisor::dispatch(const WorkerTask& task) {
  // The task file is written atomically so a worker never reads a torn
  // spec.
  util::atomic_write_file(task_path(options_.work_dir, task.task_id),
                          encode_task(task));
  std::lock_guard<std::mutex> lock(mutex_);
  Active a;
  a.task = task;
  a.dispatched_points = task.points.size();
  a.started_seconds = now_seconds();
  spawn_locked(&a);
  active_.push_back(std::move(a));
}

std::vector<WorkerSupervisor::Completion> WorkerSupervisor::poll() {
  std::vector<Completion> done;
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < active_.size();) {
    Active& a = active_[i];
    int exit_code = 0;
    if (!util::try_wait_process(a.pid, &exit_code)) {
      ++i;
      continue;
    }

    const auto complete = [&](std::size_t k) -> Completion& {
      Completion& c = done.emplace_back();
      c.point_id = a.task.point_ids[k];
      c.attempts = a.attempt;
      c.seconds = (now_seconds() - a.started_seconds) /
                  static_cast<double>(a.dispatched_points);
      return c;
    };

    // The exit code is advisory; the durable files are the truth.  This is
    // what makes a SIGKILLed worker free to "restart": the points it
    // committed are simply harvested here.
    WorkerTask missing = a.task;
    missing.points.clear();
    missing.point_ids.clear();
    for (std::size_t k = 0; k < a.task.points.size(); ++k) {
      const std::uint64_t id = a.task.point_ids[k];
      std::string payload;
      try {
        if (!util::read_snapshot(
                point_result_path(options_.work_dir, id),
                ahs::point_result_header(id, a.task.points[k], a.task.times,
                                         a.task.study),
                &payload)) {
          missing.points.push_back(a.task.points[k]);
          missing.point_ids.push_back(id);
          continue;
        }
      } catch (const util::SnapshotError& e) {
        // Identity mismatch or corruption: reject-don't-merge.  Surfaced
        // as this point's failure, never as someone else's curve.
        complete(k).error = e.what();
        continue;
      }
      Completion& c = complete(k);
      c.ok = true;
      c.curve = ahs::decode_curve(payload);
    }

    if (missing.points.empty()) {
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }

    std::string error;
    if (exit_code == 0) {
      error = "worker exited 0 without writing its result file";
    } else if (exit_code < 0) {
      error = "worker killed by signal " + std::to_string(-exit_code);
    } else {
      error = "worker exited " + std::to_string(exit_code);
    }

    if (a.attempt < options_.max_attempts) {
      ++a.attempt;
      ++retries_;
      AHS_LOGM_WARN("serve")
          << "task " << a.task.task_id << " (" << missing.points.size()
          << " of " << a.task.points.size() << " point(s) unfinished, first "
          << missing.points.front().label << "): " << error << " — retry "
          << a.attempt << "/" << options_.max_attempts;
      // Only the unfinished points run again.
      a.task = std::move(missing);
      util::atomic_write_file(task_path(options_.work_dir, a.task.task_id),
                              encode_task(a.task));
      spawn_locked(&a);
      ++i;
      continue;
    }

    a.task = std::move(missing);
    for (std::size_t k = 0; k < a.task.points.size(); ++k)
      complete(k).error =
          error + " after " + std::to_string(a.attempt) + " attempt(s)";
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return done;
}

std::size_t WorkerSupervisor::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_.size();
}

std::vector<pid_t> WorkerSupervisor::active_pids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<pid_t> pids;
  pids.reserve(active_.size());
  for (const Active& a : active_) pids.push_back(a.pid);
  return pids;
}

void WorkerSupervisor::kill_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Active& a : active_) {
    util::kill_process(a.pid, /*hard=*/true);
    util::wait_process(a.pid);
  }
  active_.clear();
}

std::uint64_t WorkerSupervisor::spawned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spawned_;
}

std::uint64_t WorkerSupervisor::retries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retries_;
}

}  // namespace serve
