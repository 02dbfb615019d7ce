#include "serve/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "util/error.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/snapshot.h"
#include "util/string_util.h"
#include "util/subprocess.h"
#include "util/telemetry.h"

namespace serve {

namespace {

/// EWMA weight for the per-fingerprint point-cost model: recent points
/// dominate (the sweep axes drift rates, not structure, so cost moves
/// slowly within a fingerprint).
constexpr double kCostAlpha = 0.3;

ResultIdentity identity_of(const ahs::Parameters& params,
                           const std::vector<double>& times,
                           const ahs::StudyOptions& study) {
  ResultIdentity id;
  id.params_hash = params.structural_fingerprint();
  std::uint64_t th = 0;
  for (double t : times) th = util::hash_mix(th, t);
  id.times_hash = util::hash_mix(th, static_cast<std::uint64_t>(times.size()));
  id.seed = study.seed;
  return id;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      scheduler_(make_policy(options_.policy)),
      start_(std::chrono::steady_clock::now()) {
  AHS_REQUIRE(!options_.socket_path.empty(), "server needs a socket path");
  AHS_REQUIRE(!options_.work_dir.empty(), "server needs a work dir");
  AHS_REQUIRE(options_.max_workers >= 1, "max_workers must be >= 1");
  std::filesystem::create_directories(options_.work_dir);

  // The session attaches the process-wide registry the tap (and every
  // instrumented component) reads; create it before everything else.
  session_ = std::make_unique<util::TelemetrySession>();
  if (!options_.tap_path.empty())
    tap_ = std::make_unique<util::TelemetryTap>(
        options_.tap_path, options_.tap_interval_seconds);

  WorkerSupervisor::Options sup;
  sup.work_dir = options_.work_dir;
  sup.worker_exe = options_.worker_exe.empty() ? util::self_exe_path()
                                               : options_.worker_exe;
  sup.max_attempts = options_.max_attempts;
  supervisor_ = std::make_unique<WorkerSupervisor>(std::move(sup));

  listener_ = std::make_unique<util::UnixListener>(options_.socket_path);
  AHS_LOGM_INFO("serve")
      << "ahs_server listening on " << options_.socket_path << " (policy "
      << options_.policy << ", workers " << options_.max_workers << ")";
}

Server::~Server() { shutdown(); }

double Server::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

double Server::expected_seconds(const ahs::Parameters& params) const {
  std::lock_guard<std::mutex> lock(cost_mutex_);
  const auto it = cost_ewma_.find(params.structural_fingerprint());
  return it != cost_ewma_.end() ? it->second : 0.0;
}

void Server::record_seconds(const ahs::Parameters& params, double seconds) {
  std::lock_guard<std::mutex> lock(cost_mutex_);
  auto [it, inserted] =
      cost_ewma_.emplace(params.structural_fingerprint(), seconds);
  if (!inserted)
    it->second = (1.0 - kCostAlpha) * it->second + kCostAlpha * seconds;
}

void Server::run() {
  dispatcher_ = std::thread([this] { dispatch_loop(); });
  for (;;) {
    util::Socket socket = listener_->accept_connection();
    if (!socket.valid()) break;  // listener closed → shutting down
    std::lock_guard<std::mutex> lock(connections_mutex_);
    // shutdown() sets stopping_ before it takes this lock to wake the
    // registered fds, so a connection accepted after that is dropped here.
    if (stopping_.load()) continue;
    connection_fds_.insert(socket.fd());
    connections_.emplace_back(
        [this](util::Socket s) { handle_connection(std::move(s)); },
        std::move(socket));
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  supervisor_->kill_all();

  // Fail whatever is still unresolved so no submit thread hangs forever.
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    for (auto& [point_id, owner] : point_owner_) {
      const auto& [job, i] = owner;
      std::lock_guard<std::mutex> jlock(job->done_mutex);
      if (job->outcome[i].empty()) {
        job->outcome[i] = "failed";
        job->error[i] = "server shut down before the point was evaluated";
        --job->unresolved;
      }
      store_.abandon(job->identity[i]);
      job->done_cv.notify_all();
    }
    point_owner_.clear();
  }

  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    conns.swap(connections_);
  }
  for (std::thread& t : conns)
    if (t.joinable()) t.join();
}

void Server::shutdown() {
  if (stopping_.exchange(true)) return;
  AHS_LOGM_INFO("serve") << "ahs_server shutting down";
  {
    // run() joins every connection thread, and one parked in recv_line on
    // an idle client socket would never return: shutting the read side
    // down makes its recv see end-of-file (the trick UnixListener::close
    // plays on accept).  The write side stays open, so replies in progress
    // still reach their clients.
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RD);
  }
  listener_->close();
}

void Server::handle_connection(util::Socket socket) {
  const auto error_reply = [](const std::exception& e) {
    return std::string("{\"ok\":false,\"error\":\"") +
           util::json_escape(e.what()) + "\"}";
  };
  std::string line;
  for (;;) {
    try {
      if (!socket.recv_line(&line)) break;
    } catch (const util::IoError& e) {
      // An overlong line or a failed read loses the stream's framing:
      // answer if the peer still listens, then close this connection only.
      AHS_LOGM_WARN("serve") << "closing a connection: " << e.what();
      try {
        socket.send_line(error_reply(e));
      } catch (const util::IoError& send_error) {
        AHS_LOGM_WARN("serve") << "error reply not sent: " << send_error.what();
      }
      break;
    }
    std::string reply;
    try {
      reply = handle_request(line);
    } catch (const std::exception& e) {
      reply = error_reply(e);
    }
    if (!socket.send_line(reply)) break;
    // handle_request flags shutdown by throwing nothing: check afterwards
    // so the requester still gets its acknowledgment.
    if (stopping_.load(std::memory_order_relaxed)) break;
  }
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connection_fds_.erase(socket.fd());
}

std::string Server::handle_request(const std::string& line) {
  const util::JsonValue doc = util::parse_json(line);
  const std::string op = doc.string_at("op");
  if (op == "ping") return "{\"ok\":true,\"op\":\"ping\"}";
  if (op == "stats") return handle_stats();
  if (op == "shutdown") {
    shutdown();
    return "{\"ok\":true,\"op\":\"shutdown\"}";
  }
  if (op == "submit") return handle_submit(doc);
  throw util::PreconditionError("unknown op \"" + op + "\"");
}

std::string Server::handle_submit(const util::JsonValue& doc) {
  SubmitRequest req = decode_submit(doc);
  const std::size_t n = req.points.size();

  auto job = std::make_shared<Job>();
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    job->id = next_job_id_++;
  }
  job->client = req.client;
  job->request = std::move(req);
  job->identity.resize(n, 0);
  job->curves.resize(n);
  job->outcome.assign(n, std::string());
  job->error.assign(n, std::string());

  AHS_LOGM_INFO("serve")
      << "job " << job->id << " from " << job->client << ": " << n
      << " point(s), " << job->request.times.size() << " time(s)";

  // Resolve every point against the cross-request store: the first
  // claimant computes it, later requests share the pending computation or
  // take the finished curve.  Every claim comes first, then this job's
  // tasks are enqueued, and only then does it wait on points other jobs
  // compute: a job that waited while holding claims it had not enqueued
  // could deadlock against a job waiting on one of them.
  std::vector<std::size_t> owned, shared;
  for (std::size_t i = 0; i < n; ++i) {
    const ahs::SweepPoint& point = job->request.points[i];
    job->identity[i] = ahs::point_identity_hash(
        point.params, job->request.times, job->request.study);
    switch (store_.claim(job->identity[i],
                         identity_of(point.params, job->request.times,
                                     job->request.study))) {
      case ResultStore::Claim::kReady:
        store_.find(job->identity[i], &job->curves[i]);
        job->outcome[i] = "cached";
        break;
      case ResultStore::Claim::kCompute: owned.push_back(i); break;
      case ResultStore::Claim::kWait: shared.push_back(i); break;
    }
  }
  enqueue_tasks(job, owned);

  // A shared point whose owner abandons it (a failed computation is not
  // cached) is re-claimed, possibly becoming this job's own task.
  for (const std::size_t i : shared) {
    const ahs::SweepPoint& point = job->request.points[i];
    for (;;) {
      if (store_.wait_for(job->identity[i], &job->curves[i])) {
        job->outcome[i] = "cached";
        break;
      }
      if (stopping_.load(std::memory_order_relaxed)) {
        job->outcome[i] = "failed";
        job->error[i] = "server shutting down";
        break;
      }
      const ResultStore::Claim c = store_.claim(
          job->identity[i],
          identity_of(point.params, job->request.times, job->request.study));
      if (c == ResultStore::Claim::kReady) {
        store_.find(job->identity[i], &job->curves[i]);
        job->outcome[i] = "cached";
        break;
      }
      if (c == ResultStore::Claim::kCompute) {
        enqueue_tasks(job, {i});
        break;
      }
    }
  }

  // Block until the dispatcher resolved every point this job owns.
  {
    std::unique_lock<std::mutex> lock(job->done_mutex);
    job->done_cv.wait(lock, [&job] { return job->unresolved == 0; });
  }

  std::ostringstream os;
  os << "{\"ok\":true,\"job\":" << job->id << ",\"results\":[";
  bool all_ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    const bool ok = job->outcome[i] != "failed";
    all_ok = all_ok && ok;
    os << (i != 0 ? "," : "") << "{\"label\":\""
       << util::json_escape(job->request.points[i].label)
       << "\",\"outcome\":\"" << job->outcome[i] << "\",\"from_cache\":"
       << (job->outcome[i] == "cached" ? "true" : "false");
    if (!job->error[i].empty())
      os << ",\"error\":\"" << util::json_escape(job->error[i]) << "\"";
    if (ok) os << ",\"curve\":" << encode_curve_json(job->curves[i]);
    os << "}";
  }
  os << "]}";
  return os.str();
}

void Server::enqueue_tasks(const std::shared_ptr<Job>& job,
                           const std::vector<std::size_t>& indices) {
  if (indices.empty()) return;
  std::vector<std::uint64_t> ids(indices.size());
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    // run() fails the registered points once it stops; past that sweep a
    // point could never resolve, so a stopping server fails it here.  A
    // point claimed during shutdown thus always resolves, and so does every
    // job waiting on it.
    if (stopping_.load()) {
      for (const std::size_t i : indices) {
        job->outcome[i] = "failed";
        job->error[i] = "server shutting down";
        store_.abandon(job->identity[i]);
      }
      return;
    }
    for (std::size_t k = 0; k < indices.size(); ++k) {
      ids[k] = next_point_id_++;
      point_owner_[ids[k]] = {job, indices[k]};
    }
    std::lock_guard<std::mutex> jlock(job->done_mutex);
    job->unresolved += indices.size();
  }
  const std::uint64_t total =
      points_total_.fetch_add(indices.size(), std::memory_order_relaxed) +
      indices.size();
  if (util::MetricsRegistry* reg = util::MetricsRegistry::global())
    reg->gauge("ahs.sweep.points_total").set(static_cast<double>(total));

  // Structure groups in the order of their first point: the CTMC engines
  // share a StudyCache key's structure (run_sweep's caching rule), a
  // simulation point shares nothing.
  const SubmitRequest& req = job->request;
  const bool grouping = req.study.engine == ahs::Engine::kLumpedCtmc ||
                        req.study.engine == ahs::Engine::kFullCtmc;
  std::vector<std::vector<std::size_t>> groups;  // positions in `indices`
  std::unordered_map<std::uint64_t, std::size_t> group_of;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    if (!grouping) {
      groups.push_back({k});
      continue;
    }
    const auto [it, fresh] = group_of.try_emplace(
        ahs::StudyCache::key(req.points[indices[k]].params, req.study.engine),
        groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(k);
  }

  const auto workers = static_cast<std::size_t>(options_.max_workers);
  for (const std::vector<std::size_t>& group : groups) {
    const std::size_t chunk =
        std::min((group.size() + workers - 1) / workers, kMaxTaskPoints);
    for (std::size_t begin = 0; begin < group.size(); begin += chunk) {
      PendingTask t;
      t.client = job->client;
      for (std::size_t k = begin; k < std::min(begin + chunk, group.size());
           ++k) {
        const std::size_t i = indices[group[k]];
        t.point_indices.push_back(i);
        t.point_ids.push_back(ids[group[k]]);
        t.expected_seconds += expected_seconds(req.points[i].params);
      }
      scheduler_.enqueue(std::move(t), now_seconds());
    }
  }
}

std::string Server::handle_stats() {
  const Scheduler::Stats s = scheduler_.stats();
  std::ostringstream os;
  os << "{\"ok\":true,\"op\":\"stats\",\"policy\":\"" << s.policy
     << "\",\"queue_depth\":" << scheduler_.depth()
     << ",\"enqueued\":" << s.enqueued << ",\"dispatched\":" << s.dispatched
     << ",\"mean_wait_seconds\":" << util::json_number(s.mean_wait_seconds())
     << ",\"max_wait_seconds\":" << util::json_number(s.max_wait_seconds)
     << ",\"dispatch_per_second\":"
     << util::json_number(s.dispatch_per_second())
     << ",\"store\":{\"entries\":" << store_.size()
     << ",\"hits\":" << store_.hits() << ",\"misses\":" << store_.misses()
     << "},\"workers\":{\"active\":" << supervisor_->active()
     << ",\"spawned\":" << supervisor_->spawned()
     << ",\"retries\":" << supervisor_->retries() << ",\"pids\":[";
  const std::vector<pid_t> pids = supervisor_->active_pids();
  for (std::size_t i = 0; i < pids.size(); ++i)
    os << (i != 0 ? "," : "") << pids[i];
  os << "]}}";
  return os.str();
}

void Server::dispatch_loop() {
  util::MetricsRegistry* reg = util::MetricsRegistry::global();
  util::Counter tm_points, tm_failed, tm_retried;
  util::HistogramHandle tm_seconds;
  if (reg != nullptr) {
    tm_points = reg->counter("ahs.sweep.points");
    tm_failed = reg->counter("ahs.serve.points_failed");
    tm_retried = reg->counter("ahs.serve.worker_retries");
    tm_seconds = reg->histogram(
        "ahs.sweep.point_seconds", {0, 0.001, 0.01, 0.1, 0.5, 1, 5, 30, 120});
    reg->gauge("ahs.sweep.points_total").set(0.0);
  }
  std::uint64_t last_retries = 0;

  while (!stopping_.load(std::memory_order_relaxed)) {
    bool progress = false;

    while (supervisor_->active() <
           static_cast<std::size_t>(options_.max_workers)) {
      PendingTask p;
      if (!scheduler_.pop(&p, now_seconds())) break;
      std::shared_ptr<Job> job;
      {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        const auto it = point_owner_.find(p.point_ids.front());
        AHS_ASSERT(it != point_owner_.end(), "dispatched point has no owner");
        job = it->second.first;
      }
      WorkerTask task;
      task.task_id = next_task_id_++;
      for (const std::size_t i : p.point_indices)
        task.points.push_back(job->request.points[i]);
      task.point_ids = std::move(p.point_ids);
      task.times = job->request.times;
      task.study = job->request.study;
      task.debug_delay_seconds = options_.debug_worker_delay_seconds;
      supervisor_->dispatch(task);
      progress = true;
    }

    for (const WorkerSupervisor::Completion& c : supervisor_->poll()) {
      progress = true;
      std::shared_ptr<Job> job;
      std::size_t index = 0;
      {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        const auto it = point_owner_.find(c.point_id);
        if (it == point_owner_.end()) continue;  // shutdown raced us
        job = it->second.first;
        index = it->second.second;
        point_owner_.erase(it);
      }
      const std::uint64_t key = job->identity[index];
      const ahs::SweepPoint& point = job->request.points[index];
      if (c.ok) {
        record_seconds(point.params, c.seconds);
        store_.publish(key,
                       identity_of(point.params, job->request.times,
                                   job->request.study),
                       c.curve);
        if (reg != nullptr) {
          tm_points.inc();
          tm_seconds.record(c.seconds);
        }
      } else {
        store_.abandon(key);
        if (reg != nullptr) tm_failed.inc();
        AHS_LOGM_WARN("serve")
            << "job " << job->id << " point " << index << " ("
            << point.label << ") failed: " << c.error;
      }
      {
        std::lock_guard<std::mutex> jlock(job->done_mutex);
        job->curves[index] = c.curve;
        job->outcome[index] = c.ok ? "computed" : "failed";
        job->error[index] = c.error;
        --job->unresolved;
      }
      job->done_cv.notify_all();
    }

    if (reg != nullptr) {
      reg->gauge("ahs.serve.queue_depth")
          .set(static_cast<double>(scheduler_.depth()));
      reg->gauge("ahs.serve.workers_active")
          .set(static_cast<double>(supervisor_->active()));
      reg->gauge("ahs.serve.store_hits")
          .set(static_cast<double>(store_.hits()));
      reg->gauge("ahs.serve.store_misses")
          .set(static_cast<double>(store_.misses()));
      const Scheduler::Stats s = scheduler_.stats();
      reg->gauge("ahs.serve.mean_wait_seconds").set(s.mean_wait_seconds());
      reg->gauge("ahs.serve.dispatch_per_second")
          .set(s.dispatch_per_second());
      const std::uint64_t retries = supervisor_->retries();
      while (last_retries < retries) {
        tm_retried.inc();
        ++last_retries;
      }
    }

    if (!progress)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace serve
