// Telemetry-session tests: JSON document schema, attach/restore semantics,
// instrumentation neutrality (identical results with and without a session),
// and the conformance guarantee that the telemetry *structure* (metric keys,
// span paths) is thread-count independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ahs/parameters.h"
#include "ahs/study.h"
#include "ahs/sweep.h"
#include "san/composition.h"
#include "san/rewards.h"
#include "sim/transient.h"
#include "util/telemetry.h"

namespace {

std::shared_ptr<san::AtomicModel> absorber(double rate) {
  auto m = std::make_shared<san::AtomicModel>("abs");
  const auto alive = m->place("alive", 1);
  const auto dead = m->place("dead");
  m->timed_activity("die")
      .distribution(util::Distribution::Exponential(rate))
      .input_arc(alive)
      .output_arc(dead);
  return m;
}

sim::TransientResult run_sim(std::uint32_t threads) {
  const auto flat = san::flatten(absorber(0.8));
  const auto reward = san::indicator_nonzero(flat, "dead");
  sim::TransientOptions opts;
  opts.time_points = {0.5, 1.0};
  opts.min_replications = 500;
  opts.max_replications = 500;
  opts.threads = threads;
  opts.seed = 7;
  return sim::estimate_transient(flat, reward, opts);
}

/// Collapses a report to its structural fingerprint: sorted metric keys and
/// depth-first span paths, no values.
std::vector<std::string> structure_of(const util::TelemetryReport& report) {
  std::vector<std::string> keys;
  for (const auto& [name, v] : report.metrics.counters)
    keys.push_back("counter/" + name);
  for (const auto& [name, v] : report.metrics.gauges)
    keys.push_back("gauge/" + name);
  for (const auto& [name, v] : report.metrics.histograms)
    keys.push_back("histogram/" + name);
  struct Walk {
    static void spans(const util::SpanTree::Snapshot& s,
                      const std::string& prefix,
                      std::vector<std::string>& out) {
      const std::string path = prefix + "/" + s.name;
      out.push_back("span" + path);
      for (const auto& c : s.children) spans(c, path, out);
    }
  };
  Walk::spans(report.spans, "", keys);
  return keys;
}

TEST(Telemetry, SessionAttachesAndRestoresGlobals) {
  ASSERT_EQ(util::MetricsRegistry::global(), nullptr);
  ASSERT_EQ(util::SpanTree::global(), nullptr);
  {
    util::TelemetrySession session;
    EXPECT_EQ(util::MetricsRegistry::global(), &session.registry());
    EXPECT_EQ(util::SpanTree::global(), &session.spans());
    {
      util::TelemetrySession inner;
      EXPECT_EQ(util::MetricsRegistry::global(), &inner.registry());
    }
    EXPECT_EQ(util::MetricsRegistry::global(), &session.registry());
  }
  EXPECT_EQ(util::MetricsRegistry::global(), nullptr);
  EXPECT_EQ(util::SpanTree::global(), nullptr);
}

TEST(Telemetry, JsonDocumentHasTheSchema) {
  util::TelemetrySession session;
  session.registry().counter("sim.executor.events").add(3);
  session.registry().gauge("sim.transient.ess").set(120.5);
  session.registry().histogram("sim.executor.dirty_set_size", {1, 2}).record(1);
  const std::string json = session.report().to_json();
  EXPECT_NE(json.find("\"schema\": \"ahs.telemetry.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": {\"counters\": {"), std::string::npos);
  EXPECT_NE(json.find("\"sim.executor.events\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": {\"sim.transient.ess\": 120.5"),
            std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {\"sim.executor.dirty_set_size\": "
                      "{\"bounds\": [1, 2], \"counts\": [1, 0, 0], "
                      "\"count\": 1, \"sum\": 1, "
                      "\"p50\": 0.5, \"p90\": 0.9, \"p99\": 0.99}"),
            std::string::npos);
  EXPECT_NE(json.find("\"spans\": {\"name\": \"run\""), std::string::npos);
}

TEST(Telemetry, SimulationTelemetryCoversTheExecutor) {
  util::TelemetrySession session;
  const auto res = run_sim(1);
  EXPECT_EQ(res.replications, 500u);
  const auto snap = session.registry().snapshot();
  EXPECT_GT(snap.counters.at("sim.executor.events"), 0u);
  EXPECT_GT(snap.counters.at("sim.executor.rng_draws"), 0u);
  EXPECT_GT(snap.counters.at("sim.executor.heap_ops"), 0u);
  EXPECT_EQ(snap.counters.at("sim.transient.replications"), 500u);
  // No biasing: every likelihood ratio is exactly 1, so ESS == n.
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.transient.ess"), 500.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.transient.lr_variance"), 0.0);
  EXPECT_GT(snap.histograms.at("sim.executor.dirty_set_size").count, 0u);
}

TEST(Telemetry, AttachedSessionDoesNotPerturbResults) {
  const auto detached = run_sim(1);
  sim::TransientResult attached;
  {
    util::TelemetrySession session;
    attached = run_sim(1);
  }
  ASSERT_EQ(attached.estimates.size(), detached.estimates.size());
  for (std::size_t i = 0; i < attached.estimates.size(); ++i) {
    EXPECT_EQ(attached.estimates[i].mean, detached.estimates[i].mean);
    EXPECT_EQ(attached.estimates[i].half_width,
              detached.estimates[i].half_width);
  }
  EXPECT_EQ(attached.total_events, detached.total_events);
}

TEST(Telemetry, TransientDiagnosticsInTheResult) {
  const auto res = run_sim(2);
  EXPECT_DOUBLE_EQ(res.ess, 500.0);  // unit weights without biasing
  EXPECT_DOUBLE_EQ(res.lr_variance, 0.0);
  ASSERT_FALSE(res.rel_half_width_trajectory.empty());
  // The trajectory ends at the final interval's relative half-width.
  EXPECT_DOUBLE_EQ(res.rel_half_width_trajectory.back(),
                   res.estimates.back().relative_half_width());
}

/// The acceptance guarantee: sweeping with 1 thread and with 8 threads
/// yields byte-identical telemetry *structure* (same metric keys, same span
/// paths) — only values differ.
TEST(Telemetry, SweepTelemetryKeysAreThreadCountIndependent) {
  auto run = [](unsigned threads) {
    util::TelemetrySession session;
    ahs::Parameters base;
    base.max_per_platoon = 2;
    ahs::GridAxis axis;
    axis.name = "lambda";
    axis.values = {1e-5, 2e-5, 5e-5, 1e-4};
    axis.set = [](ahs::Parameters& p, double v) { p.base_failure_rate = v; };
    const auto points = ahs::make_grid(base, axis);
    ahs::SweepOptions opts;
    opts.study.engine = ahs::Engine::kLumpedCtmc;
    opts.threads = threads;
    const auto sweep = ahs::run_sweep(points, {2.0, 4.0}, opts);
    EXPECT_EQ(sweep.curves.size(), 4u);
    return structure_of(session.report());
  };
  const auto sequential = run(1);
  const auto parallel = run(8);
  EXPECT_EQ(sequential, parallel);
  // And the structure actually covers the instrumented layers.
  const auto& s = sequential;
  auto has = [&s](const std::string& k) {
    return std::find(s.begin(), s.end(), k) != s.end();
  };
  EXPECT_TRUE(has("counter/ahs.sweep.points"));
  EXPECT_TRUE(has("counter/ahs.study.structure_cache_hits"));
  EXPECT_TRUE(has("counter/ctmc.uniformization.solves"));
  EXPECT_TRUE(has("histogram/ahs.sweep.point_seconds"));
  EXPECT_TRUE(has("span/run/sweep.run/sweep.point/study.lumped_ctmc"));
}

/// A cold lumped point splits its time into exploration, the generator
/// refill and the solve: three sibling spans under study.lumped_ctmc.
TEST(Telemetry, LumpedPointSpansExploreRebuildAndSolve) {
  util::TelemetrySession session;
  ahs::Parameters p;
  p.max_per_platoon = 2;
  ahs::StudyOptions opts;
  opts.engine = ahs::Engine::kLumpedCtmc;
  (void)ahs::unsafety_curve(p, {2.0, 4.0}, opts);
  const auto s = structure_of(session.report());
  for (const char* leaf :
       {"lumped.explore", "lumped.rebuild", "uniformization.transient"})
    EXPECT_NE(std::find(s.begin(), s.end(),
                        std::string("span/run/study.lumped_ctmc/") + leaf),
              s.end())
        << leaf;
}

TEST(TapStaleness, TripsOnlyWhenTheSequenceStopsAdvancing) {
  util::TapStaleness gate(5.0);
  // Advancing sequence: never stale, never expired.
  EXPECT_EQ(gate.observe(1.0, 0.0), 0.0);
  EXPECT_EQ(gate.observe(2.0, 3.0), 0.0);
  EXPECT_FALSE(gate.expired());
  // Frozen sequence: staleness accumulates from the last advance.
  EXPECT_EQ(gate.observe(2.0, 6.0), 3.0);
  EXPECT_FALSE(gate.expired());
  EXPECT_EQ(gate.observe(2.0, 8.0), 5.0);
  EXPECT_FALSE(gate.expired()) << "exactly at the timeout is not expired";
  EXPECT_EQ(gate.observe(2.0, 8.5), 5.5);
  EXPECT_TRUE(gate.expired());
  // An advance resets the clock.
  EXPECT_EQ(gate.observe(3.0, 9.0), 0.0);
  EXPECT_FALSE(gate.expired());
}

TEST(TapStaleness, FirstObservationStartsTheClock) {
  // The first frame must not count time since process start — a reader
  // attaching to an old-but-live tap would otherwise trip immediately.
  util::TapStaleness gate(2.0);
  EXPECT_EQ(gate.observe(7.0, 100.0), 0.0);
  EXPECT_FALSE(gate.expired());
  EXPECT_EQ(gate.observe(7.0, 103.0), 3.0);
  EXPECT_TRUE(gate.expired());
}

TEST(TapStaleness, ZeroTimeoutDisablesTheGate) {
  util::TapStaleness gate(0.0);
  (void)gate.observe(1.0, 0.0);
  (void)gate.observe(1.0, 1e9);
  EXPECT_FALSE(gate.expired());
}

TEST(Telemetry, FragmentIsSingleLine) {
  util::TelemetrySession session;
  session.registry().counter("x").inc();
  const std::string fragment = session.report().to_json_fragment();
  EXPECT_EQ(fragment.find('\n'), std::string::npos);
  EXPECT_EQ(fragment.front(), '{');
  EXPECT_EQ(fragment.back(), '}');
}

}  // namespace
