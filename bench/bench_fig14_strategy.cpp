// Figure 14: S(t) versus trip duration for the four coordination strategies
// of Table 3 (DD, DC, CD, CC) at n = 10, λ = 1e-5/h.
//
// Paper shape to reproduce: decentralized inter-platoon coordination is
// safer; the inter-platoon model matters more than the intra-platoon model;
// the overall impact of the strategy is small.
//
// The strategy changes the reachable structure (it is part of the
// fingerprint), so all four points are cold builds — the sweep still runs
// them concurrently.
#include "ahs/sweep.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  unsigned threads = 0;
  if (!bench::parse_bench_flags(argc, argv, "bench_fig14", threads)) return 0;

  ahs::Parameters base;
  base.max_per_platoon = 10;
  base.base_failure_rate = 1e-5;
  base.join_rate = 12.0;
  base.leave_rate = 4.0;

  bench::print_header(
      "Figure 14", "unsafety S(t) vs trip duration per coordination strategy",
      "n = 10, lambda = 1e-5/h, join = 12/h, leave = 4/h");

  std::vector<ahs::SweepPoint> points;
  for (ahs::Strategy s : ahs::kAllStrategies) {
    ahs::SweepPoint pt{std::string("strategy=") + ahs::to_string(s), base};
    pt.params.strategy = s;
    points.push_back(std::move(pt));
  }

  const std::vector<double> times = ahs::trip_duration_grid();
  ahs::SweepOptions opts;
  opts.threads = threads;
  bench::robustness().apply(opts, "bench_fig14");
  const ahs::SweepResult sweep = ahs::run_sweep(points, times, opts);
  if (bench::interrupted(sweep)) return 130;

  util::Table table({"t (h)", "DD", "DC", "CD", "CC"});
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t i = 0; i < times.size(); ++i) {
    std::vector<std::string> row = {util::format_fixed(times[i])};
    for (const auto& curve : sweep.curves)
      row.push_back(bench::fmt(curve.unsafety[i]));
    table.add_row(row);
    csv_rows.push_back(row);
  }
  std::cout << table;

  const std::size_t t6 = 2;
  const double dd = sweep.curves[0].unsafety[t6],
               dc = sweep.curves[1].unsafety[t6],
               cd = sweep.curves[2].unsafety[t6],
               cc = sweep.curves[3].unsafety[t6];
  std::cout << "\nshape checks at t = 6 h:\n"
            << "  ordering: DD < DC < CD < CC ? "
            << ((dd < dc && dc < cd && cd < cc) ? "yes" : "NO — check")
            << "\n"
            << "  inter impact (CD-DD) = " << bench::fmt(cd - dd)
            << "  vs intra impact (DC-DD) = " << bench::fmt(dc - dd)
            << " (paper: inter-platoon dominates)\n"
            << "  worst/best = " << util::format_fixed(cc / dd, 3)
            << " (paper: the strategy impact is low)\n";

  bench::write_csv("bench_fig14.csv", {"t_hours", "DD", "DC", "CD", "CC"},
                   csv_rows);
  bench::log_sweep_timings(threads, points, sweep);
  bench::finish_telemetry();
  return 0;
}
