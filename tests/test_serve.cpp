// Service-layer conformance for the ahs_server daemon: wire-protocol
// round-trips (bitwise for every double), schedule-policy ordering and
// accounting, the compute-once ResultStore protocol (including
// reject-don't-merge), worker-process crash safety (SIGKILL mid-point →
// retried, result bitwise equal to a direct computation), and an
// end-to-end server with two concurrent clients whose overlapping grids
// share points computed exactly once.
//
// This binary is its own worker executable: main() handles the
// `--worker --task <file>` argv contract before gtest sees the arguments,
// so WorkerSupervisor can re-exec the test binary just as ahs_server
// re-execs itself.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <csignal>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "ahs/study.h"
#include "ahs/sweep.h"
#include "serve/protocol.h"
#include "serve/result_store.h"
#include "serve/schedule.h"
#include "serve/server.h"
#include "serve/supervisor.h"
#include "serve/worker.h"
#include "util/error.h"
#include "util/json.h"
#include "util/snapshot.h"
#include "util/socket.h"
#include "util/subprocess.h"

namespace {

namespace fs = std::filesystem;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_curves_bitwise_equal(const ahs::UnsafetyCurve& a,
                                 const ahs::UnsafetyCurve& b) {
  ASSERT_EQ(a.times.size(), b.times.size());
  ASSERT_EQ(a.unsafety.size(), b.unsafety.size());
  ASSERT_EQ(a.half_width.size(), b.half_width.size());
  for (std::size_t i = 0; i < a.times.size(); ++i)
    EXPECT_EQ(bits(a.times[i]), bits(b.times[i])) << i;
  for (std::size_t i = 0; i < a.unsafety.size(); ++i)
    EXPECT_EQ(bits(a.unsafety[i]), bits(b.unsafety[i])) << i;
  for (std::size_t i = 0; i < a.half_width.size(); ++i)
    EXPECT_EQ(bits(a.half_width[i]), bits(b.half_width[i])) << i;
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
  EXPECT_EQ(a.converged, b.converged);
}

/// A small, fast fixture point (lumped CTMC solves in milliseconds).
ahs::Parameters small_params(int n = 5, double lambda = 1e-5) {
  ahs::Parameters p;
  p.max_per_platoon = n;
  p.join_rate = 12.0;
  p.leave_rate = 4.0;
  p.base_failure_rate = lambda;
  return p;
}

ahs::StudyOptions lumped_study() {
  ahs::StudyOptions s;
  s.engine = ahs::Engine::kLumpedCtmc;
  return s;
}

/// Fresh scratch directory per test, short enough for sun_path.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ahs_serve_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// ---- protocol ----------------------------------------------------------

TEST(ServeProtocol, ParamsRoundTripBitwise) {
  ahs::Parameters p = small_params(7, 3.14159265358979312e-5);
  p.q_intrinsic = 0.12345678901234567;
  p.change_rate = 55.5;
  p.strategy = ahs::parse_strategy("CC");
  p.failure_mode_enabled[1] = false;
  p.rate_multipliers[2] = 1.75e-3;
  const ahs::Parameters q =
      serve::decode_params(util::parse_json(serve::encode_params(p)));
  EXPECT_EQ(p.structural_fingerprint(), q.structural_fingerprint());
  EXPECT_EQ(bits(p.base_failure_rate), bits(q.base_failure_rate));
  EXPECT_EQ(bits(p.q_intrinsic), bits(q.q_intrinsic));
  EXPECT_EQ(bits(p.rate_multipliers[2]), bits(q.rate_multipliers[2]));
  EXPECT_EQ(p.max_per_platoon, q.max_per_platoon);
  EXPECT_EQ(p.strategy, q.strategy);
  EXPECT_EQ(p.failure_mode_enabled, q.failure_mode_enabled);
}

TEST(ServeProtocol, StudyRoundTrip) {
  ahs::StudyOptions s;
  s.engine = ahs::Engine::kSimulationIS;
  s.solver = ctmc::TransientSolver::kKrylov;
  s.seed = 991;
  s.min_replications = 123;
  s.max_replications = 456789;
  s.rel_half_width = 0.07;
  s.abs_half_width = 1e-9;
  s.confidence = 0.99;
  s.failure_boost = 33.25;
  s.fail_case_bias = 0.125;
  s.max_states = 54321;
  const ahs::StudyOptions t =
      serve::decode_study(util::parse_json(serve::encode_study(s)));
  EXPECT_EQ(s.engine, t.engine);
  EXPECT_EQ(s.solver, t.solver);
  EXPECT_EQ(s.seed, t.seed);
  EXPECT_EQ(s.min_replications, t.min_replications);
  EXPECT_EQ(s.max_replications, t.max_replications);
  EXPECT_EQ(bits(s.rel_half_width), bits(t.rel_half_width));
  EXPECT_EQ(bits(s.abs_half_width), bits(t.abs_half_width));
  EXPECT_EQ(bits(s.confidence), bits(t.confidence));
  EXPECT_EQ(bits(s.failure_boost), bits(t.failure_boost));
  EXPECT_EQ(bits(s.fail_case_bias), bits(t.fail_case_bias));
  EXPECT_EQ(s.max_states, t.max_states);
}

TEST(ServeProtocol, CurveRoundTripBitwise) {
  ahs::UnsafetyCurve c;
  c.times = {1.5, 6.0};
  c.unsafety = {1.2345678901234567e-7, 0.99999999999999989};
  c.half_width = {0.0, 3.5e-16};
  c.replications = 40000;
  c.solver_iterations = 777;
  c.converged = true;
  c.timed_out = false;
  const ahs::UnsafetyCurve d =
      serve::decode_curve_json(util::parse_json(serve::encode_curve_json(c)));
  expect_curves_bitwise_equal(c, d);
  EXPECT_EQ(c.cancelled, d.cancelled);
  EXPECT_EQ(c.resumed, d.resumed);
}

TEST(ServeProtocol, SubmitRoundTripPreservesPointIdentity) {
  serve::SubmitRequest req;
  req.client = "alice \"test\"";
  req.times = {2.0, 6.0};
  req.study = lumped_study();
  req.study.seed = 17;
  for (int n : {4, 5})
    req.points.push_back({"n=" + std::to_string(n), small_params(n)});
  const serve::SubmitRequest out =
      serve::decode_submit(util::parse_json(serve::encode_submit(req)));
  EXPECT_EQ(req.client, out.client);
  ASSERT_EQ(req.points.size(), out.points.size());
  for (std::size_t i = 0; i < req.points.size(); ++i) {
    EXPECT_EQ(req.points[i].label, out.points[i].label);
    // The served identity key — what the ResultStore merges on — must
    // survive the wire exactly.
    EXPECT_EQ(ahs::point_identity_hash(req.points[i].params, req.times,
                                       req.study),
              ahs::point_identity_hash(out.points[i].params, out.times,
                                       out.study));
  }
}

TEST(ServeProtocol, TaskRoundTripAndPaths) {
  serve::WorkerTask t;
  t.task_id = 42;
  t.point = {"p", small_params(6, 2e-6)};
  t.times = {6.0};
  t.study = lumped_study();
  t.debug_delay_seconds = 0.25;
  const serve::WorkerTask u =
      serve::decode_task(util::parse_json(serve::encode_task(t)));
  EXPECT_EQ(t.task_id, u.task_id);
  EXPECT_EQ(t.point.label, u.point.label);
  EXPECT_EQ(bits(t.debug_delay_seconds), bits(u.debug_delay_seconds));
  EXPECT_EQ(ahs::point_identity_hash(t.point.params, t.times, t.study),
            ahs::point_identity_hash(u.point.params, u.times, u.study));
  EXPECT_EQ(serve::task_path("/w", 42), "/w/point_42.task");
  EXPECT_EQ(serve::task_result_path("/w", 42), "/w/point_42.result");
}

// ---- schedule policies -------------------------------------------------

serve::PendingPoint pending(const std::string& client, double expected) {
  serve::PendingPoint p;
  p.client = client;
  p.expected_seconds = expected;
  return p;
}

TEST(Schedule, FifoDispatchesInArrivalOrder) {
  serve::Scheduler s(serve::make_policy("fifo"));
  for (int i = 0; i < 3; ++i) {
    serve::PendingPoint p = pending("a", 3.0 - i);
    p.point_index = static_cast<std::size_t>(i);
    s.enqueue(p, 0.0);
  }
  serve::PendingPoint out;
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(s.pop(&out, 1.0));
    EXPECT_EQ(out.point_index, i);
  }
  EXPECT_FALSE(s.pop(&out, 1.0));
}

TEST(Schedule, ShortestFirstOrdersByExpectedSecondsUnknownsLast) {
  serve::Scheduler s(serve::make_policy("sjf"));
  serve::PendingPoint slow = pending("a", 9.0);
  slow.point_index = 0;
  serve::PendingPoint unknown = pending("a", 0.0);  // no estimate yet
  unknown.point_index = 1;
  serve::PendingPoint fast = pending("a", 0.5);
  fast.point_index = 2;
  s.enqueue(slow, 0.0);
  s.enqueue(unknown, 0.0);
  s.enqueue(fast, 0.0);
  serve::PendingPoint out;
  ASSERT_TRUE(s.pop(&out, 0.0));
  EXPECT_EQ(out.point_index, 2u);  // fastest estimate first
  ASSERT_TRUE(s.pop(&out, 0.0));
  EXPECT_EQ(out.point_index, 0u);  // then the slow-but-known point
  ASSERT_TRUE(s.pop(&out, 0.0));
  EXPECT_EQ(out.point_index, 1u);  // unknown cost goes last
}

TEST(Schedule, FairShareRotatesAcrossClients) {
  serve::Scheduler s(serve::make_policy("fair"));
  // alice floods the queue before bob's probe arrives.
  for (int i = 0; i < 3; ++i) {
    serve::PendingPoint p = pending("alice", 0.0);
    p.point_index = static_cast<std::size_t>(i);
    s.enqueue(p, 0.0);
  }
  serve::PendingPoint probe = pending("bob", 0.0);
  probe.point_index = 99;
  s.enqueue(probe, 0.0);

  serve::PendingPoint out;
  ASSERT_TRUE(s.pop(&out, 0.0));
  EXPECT_EQ(out.client, "alice");  // ties (0 each) break by arrival
  ASSERT_TRUE(s.pop(&out, 0.0));
  EXPECT_EQ(out.client, "bob");  // bob (0 dispatched) beats alice (1)
  ASSERT_TRUE(s.pop(&out, 0.0));
  EXPECT_EQ(out.client, "alice");
}

TEST(Schedule, StatsAccountWaitingTimeAndThroughput) {
  serve::Scheduler s(serve::make_policy("fifo"));
  s.enqueue(pending("a", 0.0), 1.0);
  s.enqueue(pending("a", 0.0), 2.0);
  serve::PendingPoint out;
  ASSERT_TRUE(s.pop(&out, 3.0));  // waited 2 s
  ASSERT_TRUE(s.pop(&out, 5.0));  // waited 3 s
  const serve::Scheduler::Stats st = s.stats();
  EXPECT_EQ(st.policy, "fifo");
  EXPECT_EQ(st.enqueued, 2u);
  EXPECT_EQ(st.dispatched, 2u);
  EXPECT_DOUBLE_EQ(st.mean_wait_seconds(), 2.5);
  EXPECT_DOUBLE_EQ(st.max_wait_seconds, 3.0);
  // 2 dispatches over the 1 s → 5 s busy span.
  EXPECT_DOUBLE_EQ(st.dispatch_per_second(), 0.5);
}

TEST(Schedule, UnknownPolicyRejected) {
  EXPECT_THROW(serve::make_policy("lifo"), util::PreconditionError);
}

// ---- result store ------------------------------------------------------

serve::ResultIdentity identity(std::uint64_t a, std::uint64_t b,
                               std::uint64_t c) {
  serve::ResultIdentity id;
  id.params_hash = a;
  id.times_hash = b;
  id.seed = c;
  return id;
}

TEST(ResultStore, ComputeOnceProtocol) {
  serve::ResultStore store;
  const serve::ResultIdentity id = identity(1, 2, 3);
  EXPECT_EQ(store.claim(7, id), serve::ResultStore::Claim::kCompute);
  EXPECT_EQ(store.claim(7, id), serve::ResultStore::Claim::kWait);
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), 1u);

  ahs::UnsafetyCurve curve;
  curve.times = {6.0};
  curve.unsafety = {1.25e-6};
  store.publish(7, id, curve);
  EXPECT_EQ(store.claim(7, id), serve::ResultStore::Claim::kReady);
  ahs::UnsafetyCurve out;
  ASSERT_TRUE(store.find(7, &out));
  EXPECT_EQ(bits(out.unsafety[0]), bits(1.25e-6));
  ASSERT_TRUE(store.wait_for(7, &out));  // already done → returns at once
  EXPECT_EQ(store.size(), 1u);
}

TEST(ResultStore, AbandonWakesWaitersForRetry) {
  serve::ResultStore store;
  const serve::ResultIdentity id = identity(1, 2, 3);
  ASSERT_EQ(store.claim(9, id), serve::ResultStore::Claim::kCompute);

  bool woke_empty = false;
  std::thread waiter([&] {
    ahs::UnsafetyCurve out;
    woke_empty = !store.wait_for(9, &out);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  store.abandon(9);
  waiter.join();
  EXPECT_TRUE(woke_empty);
  // The failure is not cached: the next claimant computes.
  EXPECT_EQ(store.claim(9, id), serve::ResultStore::Claim::kCompute);
}

TEST(ResultStore, IdentityMismatchRejectedNotMerged) {
  serve::ResultStore store;
  ASSERT_EQ(store.claim(11, identity(1, 2, 3)),
            serve::ResultStore::Claim::kCompute);
  EXPECT_THROW(store.claim(11, identity(1, 2, 4)), util::SnapshotError);
  ahs::UnsafetyCurve curve;
  store.publish(11, identity(1, 2, 3), curve);
  EXPECT_THROW(store.publish(11, identity(9, 2, 3), curve),
               util::SnapshotError);
}

// ---- worker + supervisor (process level) -------------------------------

serve::WorkerTask make_task(std::uint64_t id, double delay = 0.0) {
  serve::WorkerTask t;
  t.task_id = id;
  t.point = {"t" + std::to_string(id), small_params()};
  t.times = {6.0};
  t.study = lumped_study();
  t.debug_delay_seconds = delay;
  return t;
}

TEST_F(ServeTest, WorkerProcessMatchesDirectComputationBitwise) {
  serve::WorkerSupervisor::Options opt;
  opt.work_dir = dir_.string();
  opt.worker_exe = util::self_exe_path();  // this test binary, --worker mode
  serve::WorkerSupervisor sup(opt);
  sup.dispatch(make_task(1));

  std::vector<serve::WorkerSupervisor::Completion> done;
  while (done.empty()) {
    done = sup.poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].ok) << done[0].error;
  EXPECT_EQ(done[0].attempts, 1);

  const ahs::UnsafetyCurve direct =
      ahs::unsafety_curve(small_params(), {6.0}, lumped_study());
  expect_curves_bitwise_equal(done[0].curve, direct);
  EXPECT_EQ(sup.spawned(), 1u);
  EXPECT_EQ(sup.retries(), 0u);
}

TEST_F(ServeTest, SigkilledWorkerIsRetriedAndResultUnchanged) {
  serve::WorkerSupervisor::Options opt;
  opt.work_dir = dir_.string();
  opt.worker_exe = util::self_exe_path();
  serve::WorkerSupervisor sup(opt);
  // The delay guarantees the kill lands before the result file exists.
  sup.dispatch(make_task(2, /*delay=*/1.0));

  const std::vector<pid_t> pids = sup.active_pids();
  ASSERT_EQ(pids.size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);

  std::vector<serve::WorkerSupervisor::Completion> done;
  while (done.empty()) {
    done = sup.poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].ok) << done[0].error;
  EXPECT_EQ(done[0].attempts, 2);  // one kill, one clean rerun
  EXPECT_EQ(sup.retries(), 1u);

  const ahs::UnsafetyCurve direct =
      ahs::unsafety_curve(small_params(), {6.0}, lumped_study());
  expect_curves_bitwise_equal(done[0].curve, direct);
}

TEST_F(ServeTest, WorkerThatNeverWritesResultFailsAfterMaxAttempts) {
  serve::WorkerSupervisor::Options opt;
  opt.work_dir = dir_.string();
  opt.worker_exe = "/bin/true";  // exits 0, writes nothing
  opt.max_attempts = 2;
  serve::WorkerSupervisor sup(opt);
  sup.dispatch(make_task(3));

  std::vector<serve::WorkerSupervisor::Completion> done;
  while (done.empty()) {
    done = sup.poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(done.size(), 1u);
  EXPECT_FALSE(done[0].ok);
  EXPECT_EQ(done[0].attempts, 2);
  EXPECT_NE(done[0].error.find("without writing"), std::string::npos)
      << done[0].error;
  EXPECT_EQ(sup.spawned(), 2u);
}

// ---- end-to-end server -------------------------------------------------

serve::SubmitRequest grid_request(const std::string& client,
                                  const std::vector<int>& sizes) {
  serve::SubmitRequest req;
  req.client = client;
  req.times = {6.0};
  req.study = lumped_study();
  for (int n : sizes)
    for (double lambda : {1e-5, 1e-4})
      req.points.push_back(
          {"n=" + std::to_string(n) + "_lam=" + std::to_string(lambda),
           small_params(n, lambda)});
  return req;
}

util::JsonValue submit_and_parse(const std::string& socket_path,
                                 const serve::SubmitRequest& req) {
  util::Socket s = util::Socket::connect_unix(socket_path);
  EXPECT_TRUE(s.send_line(serve::encode_submit(req)));
  std::string reply;
  EXPECT_TRUE(s.recv_line(&reply));
  return util::parse_json(reply);
}

TEST_F(ServeTest, OverlappingClientsSharePointsComputedOnce) {
  serve::ServerOptions opt;
  opt.socket_path = path("sock");
  opt.work_dir = path("work");
  opt.max_workers = 2;
  opt.policy = "fair";
  serve::Server server(opt);
  std::thread serving([&] { server.run(); });

  // n=5 (× both λ) is common to both grids: 12 claims, 10 unique points.
  const serve::SubmitRequest req_a = grid_request("alice", {4, 5, 6});
  const serve::SubmitRequest req_b = grid_request("bob", {5, 7, 8});

  util::JsonValue reply_a, reply_b;
  std::thread client_a(
      [&] { reply_a = submit_and_parse(opt.socket_path, req_a); });
  std::thread client_b(
      [&] { reply_b = submit_and_parse(opt.socket_path, req_b); });
  client_a.join();
  client_b.join();

  // stats before shutdown: the shared points were computed exactly once.
  util::Socket s = util::Socket::connect_unix(opt.socket_path);
  ASSERT_TRUE(s.send_line("{\"op\":\"stats\"}"));
  std::string line;
  ASSERT_TRUE(s.recv_line(&line));
  const util::JsonValue stats = util::parse_json(line);
  server.shutdown();
  serving.join();

  ASSERT_TRUE(reply_a.find("ok") != nullptr && reply_a.find("ok")->as_bool());
  ASSERT_TRUE(reply_b.find("ok") != nullptr && reply_b.find("ok")->as_bool());
  const util::JsonValue* results_a = reply_a.find("results");
  const util::JsonValue* results_b = reply_b.find("results");
  ASSERT_EQ(results_a->array.size(), req_a.points.size());
  ASSERT_EQ(results_b->array.size(), req_b.points.size());

  const util::JsonValue* store = stats.find("store");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->number_at("entries"), 10.0);  // unique points
  EXPECT_EQ(store->number_at("misses"), 10.0);   // one compute each
  EXPECT_GE(store->number_at("hits"), 2.0);      // the shared n=5 pair

  // No point was evaluated twice: one worker spawn per unique point (no
  // retries in this test) …
  const util::JsonValue* workers = stats.find("workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->number_at("spawned"), 10.0);
  EXPECT_EQ(workers->number_at("retries"), 0.0);

  // … and the shared points came back bitwise identical to both clients.
  const ahs::UnsafetyCurve direct_lo =
      ahs::unsafety_curve(small_params(5, 1e-5), {6.0}, lumped_study());
  const ahs::UnsafetyCurve direct_hi =
      ahs::unsafety_curve(small_params(5, 1e-4), {6.0}, lumped_study());
  int shared_checked = 0;
  for (const util::JsonValue* results : {results_a, results_b}) {
    for (const util::JsonValue& r : results->array) {
      const std::string label = r.string_at("label");
      if (label.rfind("n=5_", 0) != 0) continue;
      EXPECT_NE(r.string_at("outcome"), "failed") << label;
      const ahs::UnsafetyCurve got =
          serve::decode_curve_json(*r.find("curve"));
      expect_curves_bitwise_equal(
          got, label.find("0.000100") != std::string::npos ? direct_hi
                                                           : direct_lo);
      ++shared_checked;
    }
  }
  EXPECT_EQ(shared_checked, 4);  // 2 shared points × 2 clients
}

TEST_F(ServeTest, ShutdownReturnsWithAnIdleConnectionOpen) {
  // A client that holds a connection open without sending parks its
  // server thread in recv_line.  Shutdown must still let run() return, and
  // the shutdown op must still get its acknowledgment.
  serve::ServerOptions opt;
  opt.socket_path = path("sock");
  opt.work_dir = path("work");
  serve::Server server(opt);
  std::future<void> served =
      std::async(std::launch::async, [&] { server.run(); });

  // One round trip, so the server has accepted the idle connection.
  util::Socket idle = util::Socket::connect_unix(opt.socket_path);
  std::string line;
  ASSERT_TRUE(idle.send_line("{\"op\":\"ping\"}"));
  ASSERT_TRUE(idle.recv_line(&line));

  util::Socket control = util::Socket::connect_unix(opt.socket_path);
  ASSERT_TRUE(control.send_line("{\"op\":\"shutdown\"}"));
  ASSERT_TRUE(control.recv_line(&line));
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;

  const bool returned = served.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  idle.close();  // lets a blocked run() return, so the test fails, not hangs
  served.get();
  EXPECT_TRUE(returned) << "run() stayed blocked on an idle connection";
}

TEST_F(ServeTest, MalformedLinesDoNotKillTheServer) {
  serve::ServerOptions opt;
  opt.socket_path = path("sock");
  opt.work_dir = path("work");
  serve::Server server(opt);
  std::thread serving([&] { server.run(); });

  // Each hostile client gets an error reply or a closed connection.
  const auto expect_error_or_close = [](util::Socket& s) {
    std::string reply;
    if (s.recv_line(&reply)) {
      EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
    }
  };

  // Nesting deep enough to overflow an uncapped recursive parser.
  {
    util::Socket s = util::Socket::connect_unix(opt.socket_path);
    ASSERT_TRUE(
        s.send_line(std::string(200000, '[') + std::string(200000, ']')));
    expect_error_or_close(s);
  }
  // 17 MiB without a newline: past the line cap, so the server stops
  // reading instead of buffering without bound.
  {
    util::Socket s = util::Socket::connect_unix(opt.socket_path);
    const std::string chunk(1 << 20, 'x');
    for (int i = 0; i < 17; ++i) {
      std::size_t off = 0;
      while (off < chunk.size()) {
        const ssize_t n = ::send(s.fd(), chunk.data() + off,
                                 chunk.size() - off, MSG_NOSIGNAL);
        if (n <= 0) break;  // the server closed the connection
        off += static_cast<std::size_t>(n);
      }
      if (off < chunk.size()) break;
    }
    ::shutdown(s.fd(), SHUT_WR);
    expect_error_or_close(s);
  }

  // A fresh client is still answered.
  util::Socket s = util::Socket::connect_unix(opt.socket_path);
  ASSERT_TRUE(s.send_line("{\"op\":\"ping\"}"));
  std::string line;
  ASSERT_TRUE(s.recv_line(&line));
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;

  server.shutdown();
  serving.join();
}

TEST_F(ServeTest, ServerSurvivesWorkerSigkillMidSubmit) {
  serve::ServerOptions opt;
  opt.socket_path = path("sock");
  opt.work_dir = path("work");
  opt.max_workers = 1;
  opt.debug_worker_delay_seconds = 0.8;  // window for the kill below
  serve::Server server(opt);
  std::thread serving([&] { server.run(); });

  serve::SubmitRequest req;
  req.client = "crash";
  req.times = {6.0};
  req.study = lumped_study();
  req.points.push_back({"p0", small_params(5)});

  util::JsonValue reply;
  std::thread client([&] { reply = submit_and_parse(opt.socket_path, req); });

  // Aim SIGKILL at the live worker pid from the stats op — exactly what
  // the CI job does with ahs_client --op stats.
  pid_t victim = -1;
  for (int tries = 0; tries < 200 && victim <= 0; ++tries) {
    util::Socket s = util::Socket::connect_unix(opt.socket_path);
    ASSERT_TRUE(s.send_line("{\"op\":\"stats\"}"));
    std::string line;
    ASSERT_TRUE(s.recv_line(&line));
    const util::JsonValue stats = util::parse_json(line);
    const util::JsonValue* workers = stats.find("workers");
    if (workers != nullptr) {
      const util::JsonValue* pids = workers->find("pids");
      if (pids != nullptr && !pids->array.empty())
        victim = static_cast<pid_t>(pids->array[0].as_number());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  client.join();
  server.shutdown();
  serving.join();

  ASSERT_TRUE(reply.find("ok") != nullptr && reply.find("ok")->as_bool());
  const util::JsonValue& r = reply.find("results")->array.at(0);
  EXPECT_EQ(r.string_at("outcome"), "computed");
  const ahs::UnsafetyCurve direct =
      ahs::unsafety_curve(small_params(5), {6.0}, lumped_study());
  expect_curves_bitwise_equal(serve::decode_curve_json(*r.find("curve")),
                              direct);
}

}  // namespace

int main(int argc, char** argv) {
  // Worker mode first — the supervisor re-execs this binary with
  // `--worker --task <file>` (same contract as examples/ahs_server.cpp).
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--worker") {
      std::string task;
      for (int j = 1; j + 1 < argc; ++j)
        if (std::string(argv[j]) == "--task") task = argv[j + 1];
      return task.empty() ? 2 : serve::run_worker(task);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
