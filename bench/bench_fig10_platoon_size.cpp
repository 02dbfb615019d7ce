// Figure 10: S(t) versus trip duration for different maximum platoon sizes
// n, at λ = 1e-5/h, join rate 12/h, leave rate 4/h.
//
// Paper shape to reproduce: S(t) grows with trip duration (the paper calls
// the 2 h → 10 h growth "one order of magnitude") and grows significantly
// with n; safety is considered acceptable for n below ~10.
//
// Each n is its own state space (different fingerprint), so the sweep wins
// here purely by running the three solves concurrently.
#include "ahs/sweep.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  unsigned threads = 0;
  if (!bench::parse_bench_flags(argc, argv, "bench_fig10", threads)) return 0;

  ahs::Parameters base;
  base.base_failure_rate = 1e-5;
  base.join_rate = 12.0;
  base.leave_rate = 4.0;

  bench::print_header(
      "Figure 10", "unsafety S(t) vs trip duration for n = 8, 10, 12",
      "lambda = 1e-5/h, join = 12/h, leave = 4/h, strategy DD");

  const std::vector<double> times = ahs::trip_duration_grid();
  const ahs::GridAxis size{
      "n",
      {8, 10, 12},
      [](ahs::Parameters& p, double v) {
        p.max_per_platoon = static_cast<int>(v);
      }};
  const std::vector<ahs::SweepPoint> points = ahs::make_grid(base, size);

  ahs::SweepOptions opts;
  opts.threads = threads;
  bench::robustness().apply(opts, "bench_fig10");
  const ahs::SweepResult sweep = ahs::run_sweep(points, times, opts);
  if (bench::interrupted(sweep)) return 130;

  util::Table table({"t (h)", "S(t) n=8", "S(t) n=10", "S(t) n=12"});
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t i = 0; i < times.size(); ++i) {
    std::vector<std::string> row = {util::format_fixed(times[i])};
    for (const auto& curve : sweep.curves)
      row.push_back(bench::fmt(curve.unsafety[i]));
    table.add_row(row);
    csv_rows.push_back(row);
  }
  std::cout << table;

  std::cout << "\nshape checks:\n";
  const std::vector<int> sizes = {8, 10, 12};
  for (std::size_t s = 0; s < sizes.size(); ++s)
    std::cout << "  n=" << sizes[s] << ": S(10h)/S(2h) = "
              << util::format_fixed(sweep.curves[s].unsafety.back() /
                                        sweep.curves[s].unsafety.front(),
                                    2)
              << " (paper: about one order of magnitude)\n";
  std::cout << "  S(10h) n=12 / n=8 = "
            << util::format_fixed(sweep.curves[2].unsafety.back() /
                                      sweep.curves[0].unsafety.back(),
                                  2)
            << " (paper: about one order of magnitude; see EXPERIMENTS.md"
               " on the weaker coupling in this reproduction)\n";

  bench::write_csv("bench_fig10.csv",
                   {"t_hours", "S_n8", "S_n10", "S_n12"}, csv_rows);
  bench::log_sweep_timings(threads, points, sweep);
  bench::finish_telemetry();
  return 0;
}
