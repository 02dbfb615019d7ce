// Figure 11: S(t) versus trip duration for base failure rates
// λ ∈ {1e-6, 1e-5, 1e-4}/h at n = 10.
//
// Paper shape to reproduce: unsafety is very sensitive to λ (paper: ×~175
// from 1e-6 to 1e-5 and ×~40 from 1e-5 to 1e-4 at t = 6 h — i.e. roughly
// two orders of magnitude per decade of λ); λ = 1e-7 gives ≈1e-13, which
// the paper leaves off the plot and we print here because the CTMC engine
// reaches it.
//
// All four λ points share one structural fingerprint, so the sweep builds
// the lumped state space once and every later point is a structure-cache
// hit; the four solves run concurrently under --threads.
#include "ahs/sweep.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  unsigned threads = 0;
  if (!bench::parse_bench_flags(argc, argv, "bench_fig11", threads)) return 0;

  ahs::Parameters base;
  base.max_per_platoon = 10;
  base.join_rate = 12.0;
  base.leave_rate = 4.0;

  bench::print_header(
      "Figure 11", "unsafety S(t) vs trip duration for three failure rates",
      "n = 10, join = 12/h, leave = 4/h, strategy DD");

  const std::vector<double> times = ahs::trip_duration_grid();
  const ahs::GridAxis lambda{
      "lambda",
      {1e-6, 1e-5, 1e-4, 1e-7},  // 1e-7 is the paper's off-plot remark
      [](ahs::Parameters& p, double v) { p.base_failure_rate = v; }};
  const std::vector<ahs::SweepPoint> points = ahs::make_grid(base, lambda);

  ahs::SweepOptions opts;
  opts.threads = threads;
  bench::robustness().apply(opts, "bench_fig11");
  const ahs::SweepResult sweep = ahs::run_sweep(points, times, opts);
  if (bench::interrupted(sweep)) return 130;

  util::Table table(
      {"t (h)", "S(t) 1e-6/h", "S(t) 1e-5/h", "S(t) 1e-4/h"});
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t i = 0; i < times.size(); ++i) {
    std::vector<std::string> row = {util::format_fixed(times[i])};
    for (std::size_t s = 0; s < 3; ++s)
      row.push_back(bench::fmt(sweep.curves[s].unsafety[i]));
    table.add_row(row);
    csv_rows.push_back(row);
  }
  std::cout << table;

  const std::size_t t6 = 2;  // index of t = 6 h in the grid
  const auto& s6 = sweep.curves;
  std::cout << "\nshape checks at t = 6 h:\n"
            << "  S(1e-5)/S(1e-6) = "
            << util::format_fixed(s6[1].unsafety[t6] / s6[0].unsafety[t6], 1)
            << " (paper: about 175)\n"
            << "  S(1e-4)/S(1e-5) = "
            << util::format_fixed(s6[2].unsafety[t6] / s6[1].unsafety[t6], 1)
            << " (paper: about 40)\n"
            // The paper's off-plot remark: λ = 1e-7 ⇒ unsafety ≈ 1e-13.
            << "  lambda = 1e-7/h: S(6h) = " << bench::fmt(s6[3].unsafety[t6])
            << " (paper: about 1e-13)\n";

  bench::write_csv("bench_fig11.csv",
                   {"t_hours", "S_lam1e6", "S_lam1e5", "S_lam1e4"},
                   csv_rows);
  bench::log_sweep_timings(threads, points, sweep);
  bench::finish_telemetry();
  return 0;
}
