// Cross-validation harness — the paper's §4.1 estimation protocol applied
// to this reproduction's engines:
//
//  (1) full-SAN terminating simulation (plain Monte Carlo) vs the lumped
//      CTMC at an elevated failure rate where MC converges;
//  (2) full-SAN simulation with failure-biasing importance sampling vs the
//      lumped CTMC one decade lower;
//  (3) the exact CTMC of the full SAN model (small configuration) vs the
//      lumped CTMC, quantifying the lumping approximation directly.
#include <iostream>

#include "ahs/lumped.h"
#include "ahs/study.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  unsigned threads = 0;  // accepted for CLI uniformity
  if (!bench::parse_bench_flags(argc, argv, "bench_crossvalidation", threads))
    return 0;
  (void)threads;
  using namespace ahs;
  std::cout << "==========================================================\n"
               "Cross-validation: simulation vs lumped CTMC vs exact CTMC\n"
               "==========================================================\n";
  const std::vector<double> times = {2, 6};

  // (1) Plain MC at lambda = 1e-2, n = 2.
  {
    Parameters p;
    p.max_per_platoon = 2;
    p.base_failure_rate = 1e-2;
    LumpedModel lumped(p);
    const auto lu = lumped.unsafety(times);
    StudyOptions so;
    so.engine = Engine::kSimulation;
    so.min_replications = 20000;
    so.max_replications = 20000;
    const auto sim = unsafety_curve(p, times, so);
    util::Table t({"t (h)", "lumped CTMC", "simulation", "95% +-", "ratio"});
    for (std::size_t i = 0; i < times.size(); ++i)
      t.add_row({util::format_fixed(times[i]), bench::fmt(lu[i]),
                 bench::fmt(sim.unsafety[i]), bench::fmt(sim.half_width[i]),
                 util::format_fixed(sim.unsafety[i] / lu[i], 3)});
    std::cout << "\n(1) plain Monte Carlo, lambda = 1e-2/h, n = 2, "
              << sim.replications << " replications\n"
              << t;
  }

  // (2) Importance sampling at lambda = 1e-3, n = 2.
  {
    Parameters p;
    p.max_per_platoon = 2;
    p.base_failure_rate = 1e-3;
    LumpedModel lumped(p);
    const auto lu = lumped.unsafety(times);
    StudyOptions so;
    so.engine = Engine::kSimulationIS;
    so.min_replications = 40000;
    so.max_replications = 40000;
    so.failure_boost = 20.0;
    so.fail_case_bias = 0.2;
    const auto sim = unsafety_curve(p, times, so);
    util::Table t({"t (h)", "lumped CTMC", "IS simulation", "95% +-",
                   "ratio"});
    for (std::size_t i = 0; i < times.size(); ++i)
      t.add_row({util::format_fixed(times[i]), bench::fmt(lu[i]),
                 bench::fmt(sim.unsafety[i]), bench::fmt(sim.half_width[i]),
                 util::format_fixed(sim.unsafety[i] / lu[i], 3)});
    std::cout << "\n(2) failure-biasing importance sampling, lambda = 1e-3/h,"
              << " n = 2, boost = 20, " << sim.replications
              << " replications\n"
              << t;
  }

  // (3) Exact CTMC of the full SAN (n = 1, two failure modes) vs lumped.
  {
    Parameters p;
    p.max_per_platoon = 1;
    p.base_failure_rate = 1e-3;
    p.failure_mode_enabled = {false, false, true, false, false, true};
    StudyOptions so;
    so.engine = Engine::kFullCtmc;
    const auto exact = unsafety_curve(p, times, so);
    LumpedModel lumped(p);
    const auto lu = lumped.unsafety(times);
    util::Table t({"t (h)", "exact full-SAN CTMC", "lumped CTMC", "ratio"});
    for (std::size_t i = 0; i < times.size(); ++i)
      t.add_row({util::format_fixed(times[i]), bench::fmt(exact.unsafety[i]),
                 bench::fmt(lu[i]),
                 util::format_fixed(lu[i] / exact.unsafety[i], 3)});
    std::cout << "\n(3) exact CTMC of the full SAN model (n = 1, failure"
                 " modes FM3+FM6 only) vs lumped CTMC\n"
              << t;
  }

  std::cout
      << "\nreading the ratios: the lumped model ignores per-vehicle\n"
         "multi-failure merging and positional detail.  Against the exact\n"
         "full-SAN CTMC its S(t) is a fixed factor low that does not shrink\n"
         "with lambda: lumped/exact is 0.915-0.919 at n = 1 with FM3+FM6\n"
         "(every lambda from 1e-2 to 1e-5), 0.878-0.881 at n = 1 with all\n"
         "six modes (1e-3 to 1e-5) and 0.983-0.986 at n = 2 with FM3+FM6.\n"
         "Plain Monte Carlo puts it near 0.77-0.97 at n = 2 and 6.  Which\n"
         "approximation carries it is open (EXPERIMENTS.md, \"Lumping\n"
         "bias\").\n";
  bench::finish_telemetry();
  return 0;
}
