// Discrete-event executor tests: enabling semantics, instantaneous
// stabilization with priorities, case selection, run_until boundaries, and
// statistical agreement with closed-form CTMC results.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "fire_trace.h"
#include "san/composition.h"
#include "sim/executor.h"
#include "util/error.h"

namespace {

// Two-state cycle: up --(rate a)--> down --(rate b)--> up.
std::shared_ptr<san::AtomicModel> flipflop(double a, double b) {
  auto m = std::make_shared<san::AtomicModel>("ff");
  const auto up = m->place("up", 1);
  const auto down = m->place("down");
  m->timed_activity("fall")
      .distribution(util::Distribution::Exponential(a))
      .input_arc(up)
      .output_arc(down);
  m->timed_activity("rise")
      .distribution(util::Distribution::Exponential(b))
      .input_arc(down)
      .output_arc(up);
  return m;
}

TEST(Executor, AlternatesStates) {
  const auto flat = san::flatten(flipflop(1.0, 1.0));
  sim::Executor exec(flat, util::Rng(5));
  const auto up_off = flat.place_offset(flat.place_index("up"));
  int last = exec.marking()[up_off];
  EXPECT_EQ(last, 1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(exec.step());
    const int now = exec.marking()[up_off];
    EXPECT_NE(now, last);
    last = now;
  }
  EXPECT_EQ(exec.events(), 50u);
  EXPECT_GT(exec.time(), 0.0);
}

TEST(Executor, TimeIsMonotone) {
  const auto flat = san::flatten(flipflop(3.0, 0.5));
  sim::Executor exec(flat, util::Rng(8));
  double prev = 0.0;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(exec.step());
    EXPECT_GT(exec.time(), prev);
    prev = exec.time();
  }
}

TEST(Executor, RunUntilStopsAtBoundary) {
  const auto flat = san::flatten(flipflop(10.0, 10.0));
  sim::Executor exec(flat, util::Rng(3));
  exec.run_until(5.0);
  EXPECT_LE(exec.time(), 5.0);
  const auto next = exec.next_completion_time();
  ASSERT_TRUE(next.has_value());
  EXPECT_GT(*next, 5.0);
}

TEST(Executor, DeadModelStops) {
  auto m = std::make_shared<san::AtomicModel>("dead");
  const auto p = m->place("p", 1);
  m->timed_activity("once")
      .distribution(util::Distribution::Exponential(2.0))
      .input_arc(p);
  const auto flat = san::flatten(m);
  sim::Executor exec(flat, util::Rng(1));
  EXPECT_TRUE(exec.step());
  EXPECT_FALSE(exec.step());
  EXPECT_FALSE(exec.next_completion_time().has_value());
}

TEST(Executor, ResetRestoresInitialMarking) {
  const auto flat = san::flatten(flipflop(1.0, 1.0));
  sim::Executor exec(flat, util::Rng(5));
  exec.run_until(10.0);
  exec.reset();
  EXPECT_DOUBLE_EQ(exec.time(), 0.0);
  EXPECT_EQ(exec.events(), 0u);
  const auto up_off = flat.place_offset(flat.place_index("up"));
  EXPECT_EQ(exec.marking()[up_off], 1);
}

TEST(Executor, InstantaneousPriorityOrder) {
  // Two instantaneous activities compete for one token; the higher
  // priority one must win.
  auto m = std::make_shared<san::AtomicModel>("prio");
  const auto src = m->place("src", 1);
  const auto lo = m->place("lo");
  const auto hi = m->place("hi");
  m->instant_activity("low").priority(1).input_arc(src).output_arc(lo);
  m->instant_activity("high").priority(2).input_arc(src).output_arc(hi);
  const auto flat = san::flatten(m);
  sim::Executor exec(flat, util::Rng(1));
  EXPECT_EQ(exec.marking()[flat.place_offset(flat.place_index("hi"))], 1);
  EXPECT_EQ(exec.marking()[flat.place_offset(flat.place_index("lo"))], 0);
}

TEST(Executor, InstantaneousChainStabilizes) {
  // a -> b -> c through two instantaneous activities at construction time.
  auto m = std::make_shared<san::AtomicModel>("chain");
  const auto a = m->place("a", 1);
  const auto b = m->place("b");
  const auto c = m->place("c");
  m->instant_activity("ab").input_arc(a).output_arc(b);
  m->instant_activity("bc").input_arc(b).output_arc(c);
  const auto flat = san::flatten(m);
  sim::Executor exec(flat, util::Rng(1));
  EXPECT_EQ(exec.marking()[flat.place_offset(flat.place_index("c"))], 1);
}

TEST(Executor, InstantaneousLoopDetected) {
  auto m = std::make_shared<san::AtomicModel>("loop");
  const auto a = m->place("a", 1);
  const auto b = m->place("b");
  m->instant_activity("ab").input_arc(a).output_arc(b);
  m->instant_activity("ba").input_arc(b).output_arc(a);
  const auto flat = san::flatten(m);
  sim::Executor::Options opts;
  opts.max_instant_firings = 100;
  EXPECT_THROW(sim::Executor(flat, util::Rng(1), opts), util::ModelError);
}

TEST(Executor, CaseProbabilitiesRespected) {
  // One timed activity with a 20/80 case split into two sinks.
  auto m = std::make_shared<san::AtomicModel>("cases");
  const auto src = m->place("src", 1);
  const auto left = m->place("left");
  const auto right = m->place("right");
  auto act = m->timed_activity("t").distribution(
      util::Distribution::Exponential(1.0));
  act.input_arc(src);
  act.add_case(0.2);
  act.add_case(0.8);
  act.output_arc(left, 1, 0);
  act.output_arc(right, 1, 1);
  act.output_arc(src, 1, 0);  // recycle so the activity keeps firing
  act.output_arc(src, 1, 1);
  const auto flat = san::flatten(m);
  sim::Executor exec(flat, util::Rng(17));
  for (int i = 0; i < 20000; ++i) ASSERT_TRUE(exec.step());
  const double l =
      exec.marking()[flat.place_offset(flat.place_index("left"))];
  EXPECT_NEAR(l / 20000.0, 0.2, 0.01);
}

TEST(Executor, MarkingDependentRate) {
  // Death process: rate proportional to population; verify mean extinction
  // time of N=3 at unit per-capita rate: E[T] = 1/3 + 1/2 + 1 = 11/6.
  auto m = std::make_shared<san::AtomicModel>("death");
  const auto pop = m->place("pop", 3);
  m->timed_activity("die")
      .marking_rate([pop](const san::MarkingRef& ref) {
        return static_cast<double>(ref.get(pop));
      })
      .input_gate([pop](const san::MarkingRef& ref) {
        return ref.get(pop) > 0;
      })
      .input_arc(pop);
  const auto flat = san::flatten(m);
  util::Rng master(99);
  double sum = 0.0;
  const int reps = 20000;
  sim::Executor exec(flat, master);
  for (int r = 0; r < reps; ++r) {
    exec.reset(master.split(r));
    while (exec.step()) {
    }
    sum += exec.time();
  }
  EXPECT_NEAR(sum / reps, 11.0 / 6.0, 0.03);
}

TEST(Executor, TraceRecorderCountsSources) {
  const auto flat = san::flatten(flipflop(1.0, 1.0));
  sim::Executor exec(flat, util::Rng(5));
  sim_test::FireTrace trace(exec, flat);
  for (int i = 0; i < 10; ++i) exec.step();
  EXPECT_EQ(trace.events().size(), 10u);
  EXPECT_EQ(trace.count_source("fall"), 5u);
  EXPECT_EQ(trace.count_source("rise"), 5u);
}

TEST(Executor, SoAViewMatchesCheckedPathBitwise) {
  // The per-event fast paths read the flattened SoA model view
  // (enabled_fast/rate_fast); with check_dependencies on, the executor
  // takes the access-logged slow paths over the original FlatActivity
  // structs instead.  Both must produce bitwise-identical trajectories on a
  // model that exercises every view lane: fixed rates, marking-dependent
  // rates, input gates, multi-case completions, and instantaneous
  // stabilization.
  auto m = std::make_shared<san::AtomicModel>("soa");
  const auto pool_p = m->place("pool", 4);
  const auto stage = m->place("stage");
  const auto left = m->place("left");
  const auto right = m->place("right");
  m->timed_activity("feed")
      .marking_rate([pool_p](const san::MarkingRef& ref) {
        return 0.5 + static_cast<double>(ref.get(pool_p));
      })
      .input_gate([pool_p](const san::MarkingRef& ref) {
        return ref.get(pool_p) > 0;
      })
      .input_arc(pool_p)
      .output_arc(stage);
  auto split = m->timed_activity("split").distribution(
      util::Distribution::Exponential(2.0));
  split.input_arc(stage);
  split.add_case(0.3);
  split.add_case(0.7);
  split.output_arc(left, 1, 0);
  split.output_arc(right, 1, 1);
  m->instant_activity("recycle")
      .input_gate([left](const san::MarkingRef& ref) {
        return ref.get(left) >= 2;
      })
      .input_arc(left, 2)
      .output_arc(pool_p);
  const auto flat = san::flatten(m);

  sim::Executor::Options fast_opts;
  sim::Executor::Options checked_opts;
  checked_opts.check_dependencies = true;
  sim::Executor fast(flat, util::Rng(31), fast_opts);
  sim::Executor checked(flat, util::Rng(31), checked_opts);

  std::vector<std::pair<std::size_t, std::size_t>> fast_fires, checked_fires;
  fast.on_fire = [&](std::size_t ai, std::size_t ci) {
    fast_fires.emplace_back(ai, ci);
  };
  checked.on_fire = [&](std::size_t ai, std::size_t ci) {
    checked_fires.emplace_back(ai, ci);
  };

  while (fast.step()) {
    ASSERT_TRUE(checked.step());
    ASSERT_EQ(fast.time(), checked.time());  // bitwise, not a tolerance
    const auto fm = fast.marking();
    const auto cm = checked.marking();
    ASSERT_EQ(fm.size(), cm.size());
    for (std::size_t i = 0; i < fm.size(); ++i) ASSERT_EQ(fm[i], cm[i]);
  }
  EXPECT_FALSE(checked.step());
  EXPECT_EQ(fast_fires, checked_fires);
  EXPECT_GT(fast.events(), 0u);
}

TEST(Executor, StopPredicateHaltsRun) {
  const auto flat = san::flatten(flipflop(5.0, 5.0));
  sim::Executor exec(flat, util::Rng(2));
  int events = 0;
  exec.run_until(1000.0, [&] { return ++events >= 7; });
  EXPECT_EQ(exec.events(), 7u);
}

}  // namespace
