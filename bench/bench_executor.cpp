// Simulation-engine microbenchmark: events/sec of the dependency-tracked
// incremental engine vs the full-rescan reference engine on the paper's AHS
// model, in scheduled mode and in embedded (importance-sampling) mode, as
// the system grows.  The incremental engine re-examines only the activities
// the dependency index marks as affected by a completion, so its advantage
// widens with n while the reference engine's per-event cost is linear in
// the activity count.  Both engines must fire the same number of events in
// every case; a mismatch exits 1.
//
// The timing loops always run detached (the process-wide registry, span
// tree and flight recorder are unhooked around them, so every
// instrumentation site is a single predictable branch), and `--metrics-out`
// does not perturb the measurement; the telemetry JSON instead comes from a
// separate instrumented smoke workload that exercises the executor, the
// uniformization solver, and the sweep structure cache.  The bench also
// measures the tracing-enabled bound: the same workload with a flight
// recorder attached, and the recorder's raw emit rate.  Nothing here is a
// performance gate: CI gates performance by running the repository
// benchmark (perfbench/) on the parent and the change in pairs
// (.github/perf_gate.py).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ahs/sweep.h"
#include "ahs/system_model.h"
#include "bench_common.h"
#include "sim/executor.h"
#include "sim/transient.h"
#include "util/rng.h"
#include "util/trace.h"

namespace {

struct Measurement {
  std::uint64_t events = 0;
  double seconds = 0.0;
  double events_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
  }
};

/// Runs `reps` independent replications to `t_end` and times the whole
/// batch, executor construction excluded (the dependency index is built
/// once per study, not per replication).
Measurement run_batch(const san::FlatModel& flat, sim::Executor::Engine eng,
                      const sim::BiasPlan* bias, int reps, double t_end,
                      std::uint64_t seed) {
  sim::Executor::Options opts;
  opts.engine = eng;
  opts.bias = bias;
  sim::Executor exec(flat, util::Rng(seed), opts);

  Measurement m;
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    exec.reset(util::Rng(seed + static_cast<std::uint64_t>(rep)));
    exec.run_until(t_end);
    m.events += exec.events();
  }
  m.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  return m;
}

std::string fixed(double v, int digits) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << v;
  return os.str();
}

/// Detaches the process-wide telemetry — metrics registry, span tree, AND
/// the flight recorder — for its lifetime, so the timing loops measure the
/// instrumented-but-unattached fast path even when the bench itself was
/// started with --metrics-out/--progress/--trace-out.
class DetachTelemetry {
 public:
  DetachTelemetry()
      : registry_(util::MetricsRegistry::global()),
        spans_(util::SpanTree::global()),
        trace_(util::TraceRecorder::global()) {
    util::MetricsRegistry::set_global(nullptr);
    util::SpanTree::set_global(nullptr);
    util::TraceRecorder::set_global(nullptr);
  }
  ~DetachTelemetry() {
    util::MetricsRegistry::set_global(registry_);
    util::SpanTree::set_global(spans_);
    util::TraceRecorder::set_global(trace_);
  }

 private:
  util::MetricsRegistry* registry_;
  util::SpanTree* spans_;
  util::TraceRecorder* trace_;
};

/// Instrumented smoke workload for --metrics-out/--progress: a small lumped
/// sweep (twice, so the structure cache reports both misses and hits), and a
/// short importance-sampling estimation (executor counters, IS health
/// gauges).  Runs only when a telemetry session is attached.
void telemetry_smoke() {
  ahs::Parameters base;
  base.max_per_platoon = 4;

  ahs::GridAxis axis;
  axis.name = "lambda";
  axis.values = {1e-5, 2e-5};
  axis.set = [](ahs::Parameters& p, double v) { p.base_failure_rate = v; };
  const auto points = ahs::make_grid(base, axis);

  ahs::SweepOptions sweep_opts;
  sweep_opts.study.engine = ahs::Engine::kLumpedCtmc;
  sweep_opts.threads = 2;
  const std::vector<double> times = {2, 4};
  // Both points share a structural fingerprint (only a rate differs), so
  // one sweep reports a cache miss (cold build) and a hit (follower).
  ahs::run_sweep(points, times, sweep_opts);

  ahs::StudyOptions study;
  study.engine = ahs::Engine::kSimulationIS;
  study.min_replications = 200;
  study.max_replications = 200;
  ahs::unsafety_curve(base, times, study);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_executor",
                "Engine microbenchmark: incremental vs full-rescan executor.");
  // Accepted for CLI uniformity with the figure drivers; the bench is
  // sequential.
  cli.add_int("threads", 0, "accepted for CLI uniformity");
  bench::telemetry().add_flags(cli);
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  bench::telemetry().start();

  bench::print_header(
      "Engine microbenchmark", "incremental vs full-rescan executor",
      "two platoons, busy failure rates, scheduled + embedded/IS modes");

  struct Case {
    std::string mode;
    int n;
    int reps;
    double t_end;
    double failure_rate;
    bool use_bias;
  };
  const std::vector<Case> cases = {
      {"scheduled", 2, 60, 10.0, 0.3, false},
      {"scheduled", 4, 40, 10.0, 0.3, false},
      {"scheduled", 10, 20, 10.0, 0.3, false},
      {"embedded/IS", 2, 60, 10.0, 0.05, true},
      {"embedded/IS", 4, 40, 10.0, 0.05, true},
      {"embedded/IS", 10, 20, 10.0, 0.05, true},
  };
  constexpr int kTrials = 5;  // best-of, to shed scheduler noise

  util::Table table({"mode", "n", "activities", "events", "full-rescan ev/s",
                     "incremental ev/s", "speedup"});
  for (const auto& c : cases) {
    ahs::Parameters p;
    p.max_per_platoon = c.n;
    p.base_failure_rate = c.failure_rate;
    const auto flat = ahs::build_system_model(p);

    sim::BiasPlan bias;
    bias.boost = 5.0;
    bias.boosted = {"L1", "L2", "L3", "L4", "L5", "L6"};
    const sim::BiasPlan* plan = c.use_bias ? &bias : nullptr;

    Measurement ref, inc;
    {
      const DetachTelemetry detached;
      ref = run_batch(flat, sim::Executor::Engine::kFullRescan, plan, c.reps,
                      c.t_end, 1234);
      inc = run_batch(flat, sim::Executor::Engine::kIncremental, plan,
                      c.reps, c.t_end, 1234);
      for (int trial = 1; trial < kTrials; ++trial) {
        const auto again = run_batch(flat, sim::Executor::Engine::kIncremental,
                                     plan, c.reps, c.t_end, 1234);
        if (again.seconds < inc.seconds) inc = again;
      }
    }
    if (inc.events != ref.events) {
      std::cerr << "ENGINE MISMATCH at n=" << c.n << " (" << c.mode
                << "): " << inc.events << " vs " << ref.events << " events\n";
      return 1;
    }

    const double speedup = inc.events_per_sec() / ref.events_per_sec();
    table.add_row({c.mode, std::to_string(c.n),
                   std::to_string(flat.activities().size()),
                   std::to_string(inc.events),
                   fixed(ref.events_per_sec(), 0),
                   fixed(inc.events_per_sec(), 0), fixed(speedup, 2) + "x"});
  }

  // Tracing-enabled bound (documented in docs/OBSERVABILITY.md): the same
  // incremental workload with a flight recorder attached, plus the raw
  // recorder emit rate.  Measured and printed, never a failure gate.
  Measurement trace_plain, trace_on;
  double emit_per_sec = 0.0;
  {
    ahs::Parameters p;
    p.max_per_platoon = 10;
    p.base_failure_rate = 0.3;
    const auto flat = ahs::build_system_model(p);
    const DetachTelemetry detached;
    trace_plain = run_batch(flat, sim::Executor::Engine::kIncremental, nullptr,
                            20, 10.0, 1234);
    util::TraceRecorder recorder;
    util::TraceRecorder::set_global(&recorder);
    trace_on = run_batch(flat, sim::Executor::Engine::kIncremental, nullptr,
                         20, 10.0, 1234);
    for (int trial = 1; trial < kTrials; ++trial) {
      const auto again = run_batch(flat, sim::Executor::Engine::kIncremental,
                                   nullptr, 20, 10.0, 1234);
      if (again.seconds < trace_on.seconds) trace_on = again;
    }
    // Raw emit throughput: how many begin/end pairs the recorder absorbs
    // per second on one thread.
    const util::TraceName span = recorder.name("bench.emit");
    constexpr std::uint64_t kEmits = 1u << 20;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kEmits; ++i) {
      span.begin(i);
      span.end();
    }
    const double emit_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    emit_per_sec =
        emit_seconds > 0.0 ? 2.0 * static_cast<double>(kEmits) / emit_seconds
                           : 0.0;
    util::TraceRecorder::set_global(nullptr);
  }
  const double trace_ratio =
      trace_plain.events_per_sec() > 0.0
          ? trace_on.events_per_sec() / trace_plain.events_per_sec()
          : 0.0;

  std::cout << table << "\n(identical event counts across engines are "
                        "asserted per case; trajectories are bitwise-checked "
                        "by tests/test_engine_conformance.cpp)\n";
  std::cout << "tracing-enabled bound (recorder attached, scheduled n=10): "
            << fixed(trace_on.events_per_sec(), 0) << " ev/s ("
            << fixed(100.0 * trace_ratio, 1) << "% of detached), raw emit "
            << fixed(emit_per_sec / 1e6, 1) << " M events/s\n\n";

  if (bench::telemetry().active()) telemetry_smoke();
  bench::finish_telemetry();
  return 0;
}
