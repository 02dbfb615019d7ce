// Service-layer conformance for the ahs_server daemon: wire-protocol
// round-trips (bitwise for every double), schedule-policy ordering and
// per-point accounting, the compute-once ResultStore protocol (including
// reject-don't-merge), worker-process crash safety (SIGKILL mid-task →
// the unfinished points retried, results bitwise equal to a direct
// computation), and end-to-end servers: one structure group per worker
// process, a failing point that fails alone in its group, a fair-share
// probe that waits for one capped task of a large grid, and concurrent
// clients whose overlapping grids share points computed exactly once.
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
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
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

/// A task of `points` points sharing one structure (n = 5, λ = 1e-5,
/// 2e-5, …), with point ids 10·id + k.
serve::WorkerTask make_task(std::uint64_t id, std::size_t points = 1,
                            double delay = 0.0) {
  serve::WorkerTask t;
  t.task_id = id;
  for (std::size_t k = 0; k < points; ++k) {
    t.points.push_back({"t" + std::to_string(id) + "_" + std::to_string(k),
                        small_params(5, 1e-5 * static_cast<double>(k + 1))});
    t.point_ids.push_back(10 * id + k);
  }
  t.times = {6.0};
  t.study = lumped_study();
  t.debug_delay_seconds = delay;
  return t;
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
  const serve::WorkerTask t = make_task(42, /*points=*/3, /*delay=*/0.25);
  const serve::WorkerTask u =
      serve::decode_task(util::parse_json(serve::encode_task(t)));
  EXPECT_EQ(t.task_id, u.task_id);
  EXPECT_EQ(t.point_ids, u.point_ids);
  ASSERT_EQ(t.points.size(), u.points.size());
  for (std::size_t k = 0; k < t.points.size(); ++k) {
    EXPECT_EQ(t.points[k].label, u.points[k].label);
    EXPECT_EQ(ahs::point_identity_hash(t.points[k].params, t.times, t.study),
              ahs::point_identity_hash(u.points[k].params, u.times, u.study));
  }
  EXPECT_EQ(bits(t.debug_delay_seconds), bits(u.debug_delay_seconds));
  EXPECT_EQ(serve::task_path("/w", 42), "/w/task_42.task");
  EXPECT_EQ(serve::point_result_path("/w", 420), "/w/point_420.result");
}

// ---- schedule policies -------------------------------------------------

/// A pending task of `points` points, tagged by its first point index.
serve::PendingTask pending(const std::string& client, double expected,
                           std::size_t index = 0, std::size_t points = 1) {
  serve::PendingTask p;
  p.client = client;
  p.expected_seconds = expected;
  for (std::size_t k = 0; k < points; ++k) {
    p.point_indices.push_back(index + k);
    p.point_ids.push_back(index + k);
  }
  return p;
}

TEST(Schedule, FifoDispatchesInArrivalOrder) {
  serve::Scheduler s(serve::make_policy("fifo"));
  for (std::size_t i = 0; i < 3; ++i)
    s.enqueue(pending("a", 3.0 - static_cast<double>(i), i), 0.0);
  serve::PendingTask out;
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(s.pop(&out, 1.0));
    EXPECT_EQ(out.point_indices.front(), i);
  }
  EXPECT_FALSE(s.pop(&out, 1.0));
}

TEST(Schedule, ShortestFirstOrdersByExpectedSecondsUnknownsLast) {
  serve::Scheduler s(serve::make_policy("sjf"));
  s.enqueue(pending("a", 9.0, 0), 0.0);
  s.enqueue(pending("a", 0.0, 1), 0.0);  // no estimate yet
  s.enqueue(pending("a", 0.5, 2), 0.0);
  serve::PendingTask out;
  ASSERT_TRUE(s.pop(&out, 0.0));
  EXPECT_EQ(out.point_indices.front(), 2u);  // fastest estimate first
  ASSERT_TRUE(s.pop(&out, 0.0));
  EXPECT_EQ(out.point_indices.front(), 0u);  // then the slow-but-known task
  ASSERT_TRUE(s.pop(&out, 0.0));
  EXPECT_EQ(out.point_indices.front(), 1u);  // unknown cost goes last
}

TEST(Schedule, FairShareRotatesAcrossClients) {
  serve::Scheduler s(serve::make_policy("fair"));
  // alice floods the queue before bob's probe arrives.
  for (std::size_t i = 0; i < 3; ++i) s.enqueue(pending("alice", 0.0, i), 0.0);
  s.enqueue(pending("bob", 0.0, 99), 0.0);

  serve::PendingTask out;
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
  serve::PendingTask out;
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

TEST(Schedule, CountsArePerPointCarried) {
  serve::Scheduler s(serve::make_policy("fair"));
  s.enqueue(pending("alice", 0.0, 0, /*points=*/3), 1.0);
  for (std::size_t i = 10; i < 13; ++i) s.enqueue(pending("bob", 0.0, i), 1.0);
  s.enqueue(pending("alice", 0.0, 3), 1.0);
  EXPECT_EQ(s.depth(), 7u);  // points, not tasks

  serve::PendingTask out;
  ASSERT_TRUE(s.pop(&out, 2.0));
  EXPECT_EQ(out.points(), 3u);  // alice's 3-point task (arrival order)
  EXPECT_EQ(s.depth(), 4u);
  // alice has 3 points dispatched, so bob's three 1-point tasks go first;
  // counting tasks instead would let alice in after bob's second.
  for (std::size_t i = 10; i < 13; ++i) {
    ASSERT_TRUE(s.pop(&out, 4.0));
    EXPECT_EQ(out.client, "bob");
    EXPECT_EQ(out.point_indices.front(), i);
  }
  ASSERT_TRUE(s.pop(&out, 4.0));
  EXPECT_EQ(out.client, "alice");

  const serve::Scheduler::Stats st = s.stats();
  EXPECT_EQ(st.enqueued, 7u);
  EXPECT_EQ(st.dispatched, 7u);
  // 3 points waited 1 s, 4 points waited 3 s.
  EXPECT_DOUBLE_EQ(st.mean_wait_seconds(), 15.0 / 7.0);
  EXPECT_DOUBLE_EQ(st.max_wait_seconds, 3.0);
  // 7 points over the 1 s → 4 s busy span.
  EXPECT_DOUBLE_EQ(st.dispatch_per_second(), 7.0 / 3.0);
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

/// Polls until `count` more completions arrived.
std::vector<serve::WorkerSupervisor::Completion> poll_for(
    serve::WorkerSupervisor& sup, std::size_t count) {
  std::vector<serve::WorkerSupervisor::Completion> done;
  while (done.size() < count) {
    for (serve::WorkerSupervisor::Completion& c : sup.poll())
      done.push_back(std::move(c));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done;
}

TEST_F(ServeTest, WorkerProcessMatchesDirectComputationBitwise) {
  serve::WorkerSupervisor::Options opt;
  opt.work_dir = dir_.string();
  opt.worker_exe = util::self_exe_path();  // this test binary, --worker mode
  serve::WorkerSupervisor sup(opt);
  // Two points of one structure: the second hits the worker's StudyCache
  // and must still equal a lone cold evaluation.
  const serve::WorkerTask task = make_task(1, /*points=*/2);
  sup.dispatch(task);

  const std::vector<serve::WorkerSupervisor::Completion> done =
      poll_for(sup, 2);
  ASSERT_EQ(done.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(done[k].point_id, task.point_ids[k]);
    EXPECT_TRUE(done[k].ok) << done[k].error;
    EXPECT_EQ(done[k].attempts, 1);
    expect_curves_bitwise_equal(
        done[k].curve,
        ahs::unsafety_curve(task.points[k].params, task.times, task.study));
  }
  EXPECT_EQ(sup.spawned(), 1u);
  EXPECT_EQ(sup.retries(), 0u);
}

TEST_F(ServeTest, SigkilledWorkerIsRetriedAndResultUnchanged) {
  serve::WorkerSupervisor::Options opt;
  opt.work_dir = dir_.string();
  opt.worker_exe = util::self_exe_path();
  serve::WorkerSupervisor sup(opt);
  // The delay guarantees the kill lands before the result file exists.
  sup.dispatch(make_task(2, /*points=*/1, /*delay=*/1.0));

  const std::vector<pid_t> pids = sup.active_pids();
  ASSERT_EQ(pids.size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);

  const std::vector<serve::WorkerSupervisor::Completion> done =
      poll_for(sup, 1);
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

  const std::vector<serve::WorkerSupervisor::Completion> done =
      poll_for(sup, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_FALSE(done[0].ok);
  EXPECT_EQ(done[0].attempts, 2);
  EXPECT_NE(done[0].error.find("without writing"), std::string::npos)
      << done[0].error;
  EXPECT_EQ(sup.spawned(), 2u);
}

TEST_F(ServeTest, SupervisorHarvestsFinishedPointsAndRetriesOnlyTheRest) {
  serve::WorkerSupervisor::Options opt;
  opt.work_dir = dir_.string();
  opt.worker_exe = "/bin/true";  // exits 0, writes nothing
  opt.max_attempts = 2;
  serve::WorkerSupervisor sup(opt);
  const serve::WorkerTask task = make_task(4, /*points=*/2);
  // The first point's result is committed, as a worker SIGKILLed between
  // its two points leaves it.
  const ahs::UnsafetyCurve first =
      ahs::unsafety_curve(task.points[0].params, task.times, task.study);
  util::write_snapshot(
      serve::point_result_path(dir_.string(), task.point_ids[0]),
      ahs::point_result_header(task.point_ids[0], task.points[0], task.times,
                               task.study),
      ahs::encode_curve(first));
  sup.dispatch(task);

  // The first worker exit completes the committed point at once …
  const std::vector<serve::WorkerSupervisor::Completion> done =
      poll_for(sup, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].point_id, task.point_ids[0]);
  EXPECT_TRUE(done[0].ok) << done[0].error;
  EXPECT_EQ(done[0].attempts, 1);
  expect_curves_bitwise_equal(done[0].curve, first);

  // … and respawns for the other one only, which fails.
  const std::vector<serve::WorkerSupervisor::Completion> rest =
      poll_for(sup, 1);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].point_id, task.point_ids[1]);
  EXPECT_FALSE(rest[0].ok);
  EXPECT_EQ(rest[0].attempts, 2);
  EXPECT_NE(rest[0].error.find("without writing"), std::string::npos)
      << rest[0].error;
  EXPECT_EQ(sup.spawned(), 2u);
  EXPECT_EQ(sup.retries(), 1u);

  std::ifstream in(serve::task_path(dir_.string(), task.task_id));
  std::ostringstream text;
  text << in.rdbuf();
  const serve::WorkerTask retried =
      serve::decode_task(util::parse_json(text.str()));
  EXPECT_EQ(retried.point_ids, std::vector<std::uint64_t>{task.point_ids[1]});
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

util::JsonValue request_stats(const std::string& socket_path) {
  util::Socket s = util::Socket::connect_unix(socket_path);
  EXPECT_TRUE(s.send_line("{\"op\":\"stats\"}"));
  std::string reply;
  EXPECT_TRUE(s.recv_line(&reply));
  return util::parse_json(reply);
}

/// Every result of `reply` was evaluated (or shared) and is bitwise equal
/// to a lone unsafety_curve call for its point of `req`.
void expect_results_equal_lone_calls(const util::JsonValue& reply,
                                     const serve::SubmitRequest& req) {
  ASSERT_TRUE(reply.find("ok") != nullptr && reply.find("ok")->as_bool());
  const util::JsonValue* results = reply.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), req.points.size());
  for (std::size_t i = 0; i < req.points.size(); ++i) {
    const util::JsonValue& r = results->array[i];
    EXPECT_EQ(r.string_at("label"), req.points[i].label);
    ASSERT_NE(r.string_at("outcome"), "failed") << r.string_at("error");
    expect_curves_bitwise_equal(
        serve::decode_curve_json(*r.find("curve")),
        ahs::unsafety_curve(req.points[i].params, req.times, req.study));
  }
}

serve::SubmitRequest request_of(
    const std::string& client,
    const std::vector<std::pair<int, double>>& points) {
  serve::SubmitRequest req;
  req.client = client;
  req.times = {2.0, 6.0};
  req.study = lumped_study();
  for (const auto& [n, lambda] : points)
    req.points.push_back(
        {"n=" + std::to_string(n) + "_lam=" + std::to_string(lambda),
         small_params(n, lambda)});
  return req;
}

TEST_F(ServeTest, OneWorkerEvaluatesEachStructureGroupInOneProcess) {
  serve::ServerOptions opt;
  opt.socket_path = path("sock");
  opt.work_dir = path("work");
  opt.max_workers = 1;
  serve::Server server(opt);
  std::thread serving([&] { server.run(); });

  // Two structures; n = 4's third λ comes after n = 5's points.
  const serve::SubmitRequest req = request_of(
      "groups", {{4, 1e-5}, {4, 1e-4}, {5, 1e-5}, {5, 1e-4}, {4, 3e-4}});
  const util::JsonValue reply = submit_and_parse(opt.socket_path, req);
  const util::JsonValue stats = request_stats(opt.socket_path);
  server.shutdown();
  serving.join();

  expect_results_equal_lone_calls(reply, req);
  for (const util::JsonValue& r : reply.find("results")->array)
    EXPECT_EQ(r.string_at("outcome"), "computed");
  const util::JsonValue* workers = stats.find("workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->number_at("spawned"), 2.0);  // one per structure
  EXPECT_EQ(workers->number_at("retries"), 0.0);
  // The scheduler still counts points.
  EXPECT_EQ(stats.number_at("enqueued"), 5.0);
  EXPECT_EQ(stats.number_at("dispatched"), 5.0);
}

TEST_F(ServeTest, FailingPointFailsAloneInItsStructureGroup) {
  serve::ServerOptions opt;
  opt.socket_path = path("sock");
  opt.work_dir = path("work");
  opt.max_workers = 1;
  serve::Server server(opt);
  std::thread serving([&] { server.run(); });

  // λ = 0 shares n = 5's structure, so all three points travel in one
  // task, but it fails validation in the worker.
  const serve::SubmitRequest req =
      request_of("bad", {{5, 1e-5}, {5, 0.0}, {5, 1e-4}});
  const util::JsonValue reply = submit_and_parse(opt.socket_path, req);
  const util::JsonValue stats = request_stats(opt.socket_path);
  server.shutdown();
  serving.join();

  ASSERT_TRUE(reply.find("ok") != nullptr && reply.find("ok")->as_bool());
  const util::JsonValue* results = reply.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), 3u);
  EXPECT_EQ(results->array[1].string_at("outcome"), "failed");
  EXPECT_NE(results->array[1].string_at("error").find("exited 1"),
            std::string::npos)
      << results->array[1].string_at("error");
  for (const std::size_t i : {0u, 2u}) {
    const util::JsonValue& r = results->array[i];
    ASSERT_EQ(r.string_at("outcome"), "computed") << r.string_at("error");
    expect_curves_bitwise_equal(
        serve::decode_curve_json(*r.find("curve")),
        ahs::unsafety_curve(req.points[i].params, req.times, req.study));
  }
  // One 3-point task, then the failing point alone until max_attempts.
  const util::JsonValue* workers = stats.find("workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->number_at("spawned"), 3.0);
  EXPECT_EQ(workers->number_at("retries"), 2.0);
}

/// Polls the stats op until a worker process is live.
void wait_for_live_worker(const std::string& socket_path) {
  for (int tries = 0; tries < 500; ++tries) {
    const util::JsonValue stats = request_stats(socket_path);
    const util::JsonValue* workers = stats.find("workers");
    const util::JsonValue* pids =
        workers != nullptr ? workers->find("pids") : nullptr;
    if (pids != nullptr && !pids->array.empty()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ADD_FAILURE() << "no live worker observed";
}

TEST_F(ServeTest, ClientsOverlappingInOppositeOrderBothFinish) {
  serve::ServerOptions opt;
  opt.socket_path = path("sock");
  opt.work_dir = path("work");
  opt.max_workers = 1;
  opt.debug_worker_delay_seconds = 0.3;  // keeps carol's point in flight
  serve::Server server(opt);
  std::thread serving([&] { server.run(); });

  // alice and bob share two points in opposite order, with carol's
  // in-flight point between them: each claims its first point, then must
  // wait on carol's, then needs the point the other claimed.  A submit
  // that waited before enqueueing what it owns would deadlock here.
  const serve::SubmitRequest req_c = request_of("carol", {{6, 1e-5}});
  const serve::SubmitRequest req_a =
      request_of("alice", {{4, 1e-5}, {6, 1e-5}, {5, 1e-5}});
  const serve::SubmitRequest req_b =
      request_of("bob", {{5, 1e-5}, {6, 1e-5}, {4, 1e-5}});

  util::JsonValue reply_a, reply_b, reply_c;
  std::thread client_c(
      [&] { reply_c = submit_and_parse(opt.socket_path, req_c); });
  wait_for_live_worker(opt.socket_path);
  std::thread client_a(
      [&] { reply_a = submit_and_parse(opt.socket_path, req_a); });
  std::thread client_b(
      [&] { reply_b = submit_and_parse(opt.socket_path, req_b); });
  client_c.join();
  client_a.join();
  client_b.join();
  const util::JsonValue stats = request_stats(opt.socket_path);
  server.shutdown();
  serving.join();

  expect_results_equal_lone_calls(reply_c, req_c);
  expect_results_equal_lone_calls(reply_a, req_a);
  expect_results_equal_lone_calls(reply_b, req_b);
  const util::JsonValue* store = stats.find("store");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->number_at("entries"), 3.0);  // unique points
  EXPECT_EQ(store->number_at("misses"), 3.0);   // one compute each
}

TEST_F(ServeTest, FairProbeWaitsForOneTaskOfALargeGrid) {
  serve::ServerOptions opt;
  opt.socket_path = path("sock");
  opt.work_dir = path("work");
  opt.max_workers = 1;
  opt.policy = "fair";
  opt.debug_worker_delay_seconds = 0.3;  // keeps each task in flight
  serve::Server server(opt);
  std::thread serving([&] { server.run(); });

  // One structure, 2 · kMaxTaskPoints + 1 points: three tasks at one
  // worker.  The probe arrives while the grid's first task runs.
  std::vector<std::pair<int, double>> grid_points;
  for (std::size_t k = 0; k < 2 * serve::kMaxTaskPoints + 1; ++k)
    grid_points.emplace_back(5, 1e-5 * static_cast<double>(k + 1));
  const serve::SubmitRequest grid = request_of("grid", grid_points);
  const serve::SubmitRequest probe =
      request_of("probe", {{4, 1e-5}, {4, 1e-4}, {4, 1e-3}});

  std::future<util::JsonValue> grid_reply =
      std::async(std::launch::async,
                 [&] { return submit_and_parse(opt.socket_path, grid); });
  wait_for_live_worker(opt.socket_path);
  const util::JsonValue probe_reply = submit_and_parse(opt.socket_path, probe);
  // The probe went out after one grid task, not after the whole grid.
  EXPECT_EQ(grid_reply.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  const util::JsonValue grid_result = grid_reply.get();
  const util::JsonValue stats = request_stats(opt.socket_path);
  server.shutdown();
  serving.join();

  expect_results_equal_lone_calls(probe_reply, probe);
  expect_results_equal_lone_calls(grid_result, grid);
  const util::JsonValue* workers = stats.find("workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->number_at("spawned"), 4.0);  // 3 grid tasks + 1 probe
  // Task ids follow dispatch order: the second task was the probe.
  std::ifstream in(serve::task_path(opt.work_dir, 1));
  std::ostringstream text;
  text << in.rdbuf();
  const serve::WorkerTask second =
      serve::decode_task(util::parse_json(text.str()));
  ASSERT_EQ(second.points.size(), probe.points.size());
  for (std::size_t k = 0; k < probe.points.size(); ++k)
    EXPECT_EQ(second.points[k].label, probe.points[k].label);
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
  const util::JsonValue stats = request_stats(opt.socket_path);
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
  // retries in this test).  Each job's structure groups hold 2 points, and
  // at 2 workers a group splits into chunks of ceil(2 / 2) = 1 point, so
  // every point is a task of its own …
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
