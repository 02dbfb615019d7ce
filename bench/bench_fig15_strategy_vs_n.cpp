// Figure 15: S(t = 6 h) versus the maximum platoon size n for the four
// coordination strategies, λ = 1e-5/h.
//
// Paper shape to reproduce: the strategy ordering of Fig 14 persists across
// n, and the strategy impact stays low even for larger platoons.
//
// 12 points (3 sizes × 4 strategies), each a distinct structure — a pure
// concurrency sweep.
#include "ahs/sweep.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  unsigned threads = 0;
  if (!bench::parse_bench_flags(argc, argv, "bench_fig15", threads)) return 0;

  ahs::Parameters base;
  base.base_failure_rate = 1e-5;
  base.join_rate = 12.0;
  base.leave_rate = 4.0;

  bench::print_header("Figure 15",
                      "unsafety S(6h) vs platoon size per strategy",
                      "t = 6 h, lambda = 1e-5/h, join = 12/h, leave = 4/h");

  const std::vector<int> sizes = {6, 10, 14};
  const std::vector<double> t6 = {6.0};

  std::vector<ahs::SweepPoint> points;
  for (int n : sizes) {
    for (ahs::Strategy st : ahs::kAllStrategies) {
      ahs::SweepPoint pt{"n=" + std::to_string(n) + ",strategy=" +
                             ahs::to_string(st),
                         base};
      pt.params.max_per_platoon = n;
      pt.params.strategy = st;
      points.push_back(std::move(pt));
    }
  }

  ahs::SweepOptions opts;
  opts.threads = threads;
  bench::robustness().apply(opts, "bench_fig15");
  const ahs::SweepResult sweep = ahs::run_sweep(points, t6, opts);
  if (bench::interrupted(sweep)) return 130;

  const std::size_t num_strategies = ahs::kAllStrategies.size();
  util::Table table({"n", "DD", "DC", "CD", "CC", "CC/DD"});
  std::vector<std::vector<std::string>> csv_rows;
  bool ordering_holds = true;
  for (std::size_t ni = 0; ni < sizes.size(); ++ni) {
    std::vector<double> s;
    for (std::size_t si = 0; si < num_strategies; ++si)
      s.push_back(sweep.curves[ni * num_strategies + si].unsafety[0]);
    ordering_holds &=
        (s[0] < s[1] && s[1] < s[3] && s[0] < s[2] && s[2] < s[3]);
    std::vector<std::string> row = {std::to_string(sizes[ni])};
    for (double v : s) row.push_back(bench::fmt(v));
    row.push_back(util::format_fixed(s[3] / s[0], 3));
    table.add_row(row);
    csv_rows.push_back(row);
  }
  std::cout << table;
  std::cout << "\nshape checks:\n"
            << "  DD is safest and CC least safe at every n ? "
            << (ordering_holds ? "yes" : "NO — check") << "\n"
            << "  CC/DD stays close to 1 (paper: strategy impact low even"
               " for higher n)\n";

  bench::write_csv("bench_fig15.csv",
                   {"n", "DD", "DC", "CD", "CC", "CC_over_DD"}, csv_rows);
  bench::log_sweep_timings(threads, points, sweep);
  bench::finish_telemetry();
  return 0;
}
