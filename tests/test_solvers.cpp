// Cross-solver certification for the transient engines (docs/PERFORMANCE.md
// "Iteration counts"): the standard, adaptive, and Krylov solvers must agree
// on expected rewards; the adaptive shortcuts (quasi-stationary plateau
// extrapolation, sweep warm starts) must actually cut iteration counts
// while staying inside tolerance; and every engine's output bits are
// pinned.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <random>
#include <span>
#include <vector>

#include "ahs/lumped.h"
#include "ahs/sweep.h"
#include "ahs/system_model.h"
#include "ctmc/chain.h"
#include "ctmc/expmv.h"
#include "ctmc/state_space.h"
#include "ctmc/sparse.h"
#include "ctmc/uniformization.h"
#include "util/logging.h"
#include "util/telemetry.h"

namespace {

using ctmc::CsrMatrix;
using ctmc::MarkovChain;
using ctmc::TransientSolver;
using ctmc::UniformizationOptions;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A random sparse chain: a cycle backbone (so every state is reachable)
/// plus extra random edges, rates in [0.2, 2.5].
MarkovChain random_chain(std::mt19937& rng, std::uint32_t n) {
  std::uniform_real_distribution<double> rate(0.2, 2.5);
  std::uniform_int_distribution<std::uint32_t> state(0, n - 1);
  std::vector<ctmc::Triplet> triplets;
  for (std::uint32_t i = 0; i < n; ++i)
    triplets.push_back({i, (i + 1) % n, rate(rng)});
  for (std::uint32_t e = 0; e < 2 * n; ++e) {
    const std::uint32_t from = state(rng), to = state(rng);
    if (from != to) triplets.push_back({from, to, rate(rng)});
  }
  MarkovChain c;
  c.num_states = n;
  c.rates = CsrMatrix::from_triplets(n, n, triplets);
  c.exit_rate.assign(n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) c.exit_rate[i] = c.rates.row_sum(i);
  c.initial.assign(n, 0.0);
  c.initial[0] = 1.0;
  return c;
}

std::vector<double> random_reward(std::mt19937& rng, std::uint32_t n) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> r(n);
  for (double& x : r) x = u(rng);
  return r;
}

/// Fast 0↔1 churn with a slow leak to an absorbing state 2 — the shape
/// behind every figure workload: mixing completes early, then thousands of
/// DTMC steps integrate a constant absorption flux.  This is the regime the
/// quasi-stationary extrapolation exists for.
MarkovChain churn_with_leak(double churn, double leak) {
  MarkovChain c;
  c.num_states = 3;
  c.rates = CsrMatrix::from_triplets(
      3, 3, {{0, 1, churn}, {1, 0, churn}, {0, 2, leak}});
  c.exit_rate = {churn + leak, churn, 0.0};
  c.initial = {1.0, 0.0, 0.0};
  return c;
}

TEST(CrossSolver, RandomChainsAgreeAcrossAllThreeEngines) {
  std::mt19937 rng(20260807);
  const std::vector<double> times = {0.4, 1.1, 2.7};
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint32_t n = 6 + 3 * static_cast<std::uint32_t>(trial);
    const MarkovChain chain = random_chain(rng, n);
    const std::vector<double> reward = random_reward(rng, n);

    UniformizationOptions std_opts;
    const auto std_sol = ctmc::solve_transient(chain, reward, times, std_opts);

    UniformizationOptions ad_opts;
    ad_opts.solver = TransientSolver::kAdaptive;
    const auto ad_sol = ctmc::solve_transient(chain, reward, times, ad_opts);

    UniformizationOptions kr_opts;
    kr_opts.solver = TransientSolver::kKrylov;
    kr_opts.krylov_tol = 1e-12;
    const auto kr_sol = ctmc::solve_transient(chain, reward, times, kr_opts);

    for (std::size_t i = 0; i < times.size(); ++i) {
      EXPECT_NEAR(ad_sol.expected_reward[i], std_sol.expected_reward[i],
                  1e-10)
          << "trial " << trial << " t=" << times[i];
      EXPECT_NEAR(kr_sol.expected_reward[i], std_sol.expected_reward[i], 1e-8)
          << "trial " << trial << " t=" << times[i];
    }
  }
}

TEST(Adaptive, QsExtrapolationMatchesStandardWithFewerIterations) {
  const MarkovChain chain = churn_with_leak(60.0, 1e-7);
  const std::vector<double> reward = {0.0, 0.0, 1.0};
  const std::vector<double> times = {20.0};

  UniformizationOptions std_opts;
  std_opts.epsilon = 1e-14;
  std_opts.steady_state_tol = 0.0;  // force the full window
  const auto std_sol = ctmc::solve_transient(chain, reward, times, std_opts);

  UniformizationOptions ad_opts = std_opts;
  ad_opts.solver = TransientSolver::kAdaptive;
  const auto ad_sol = ctmc::solve_transient(chain, reward, times, ad_opts);

  EXPECT_GE(ad_sol.qs_extrapolations, 1u);
  EXPECT_LT(ad_sol.total_iterations, std_sol.total_iterations / 2)
      << "extrapolation should cut the plateau tail";
  // The plateau closure is a geometric-series identity, not an
  // approximation of a decaying signal; agreement is near machine level.
  EXPECT_NEAR(ad_sol.expected_reward[0], std_sol.expected_reward[0],
              1e-12 + 1e-8 * std_sol.expected_reward[0]);
}

TEST(Adaptive, WarmStartCutsConfirmationAndStaysDeterministic) {
  const MarkovChain chain = churn_with_leak(60.0, 1e-7);
  const std::vector<double> reward = {0.0, 0.0, 1.0};
  const std::vector<double> times = {20.0};

  ctmc::WarmStartCache cache;
  UniformizationOptions cold;
  cold.solver = TransientSolver::kAdaptive;
  cold.epsilon = 1e-14;
  cold.steady_state_tol = 0.0;
  cold.warm_cache = &cache;
  cold.warm_key = 0x5eedull;
  cold.warm_publish = true;
  const auto cold_sol = ctmc::solve_transient(chain, reward, times, cold);
  EXPECT_GE(cold_sol.qs_extrapolations, 1u);
  EXPECT_EQ(cache.misses(), 1u);

  UniformizationOptions warm = cold;
  warm.warm_publish = false;
  const auto warm_sol = ctmc::solve_transient(chain, reward, times, warm);
  EXPECT_TRUE(warm_sol.warm_start_hit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_LT(warm_sol.total_iterations, cold_sol.total_iterations)
      << "warm confirmation must be shorter than the cold lookback";
  EXPECT_NEAR(warm_sol.expected_reward[0], cold_sol.expected_reward[0],
              1e-12 + 1e-8 * cold_sol.expected_reward[0]);

  // Same cache state, same options → bitwise repeatable.
  const auto again = ctmc::solve_transient(chain, reward, times, warm);
  EXPECT_EQ(bits(again.expected_reward[0]), bits(warm_sol.expected_reward[0]));
  EXPECT_EQ(again.total_iterations, warm_sol.total_iterations);
}

TEST(Krylov, TolFloorFlaggedOnImpossibleTail) {
  // The satellite bug: the Krylov local-error estimator measures subspace
  // truncation only, so a 1e-12 tail certification on a stiff solve
  // (‖Qᵀ‖·t ≈ 2e4 here → round-off floor ≈ 1.8e-11) used to pass silently
  // while carrying O(floor) round-off.  The solver must flag it.
  const MarkovChain chain = churn_with_leak(1e3, 1e-7);
  const std::vector<double> reward = {0.0, 0.0, 1.0};
  const std::vector<double> times = {10.0};

  UniformizationOptions opts;
  opts.solver = TransientSolver::kKrylov;
  opts.krylov_tol = 1e-12;

  util::TelemetrySession session;
  std::vector<std::string> lines;
  util::set_log_sink([&lines](const std::string& line) {
    lines.push_back(line);
  });
  const auto sol = ctmc::solve_transient(chain, reward, times, opts);
  util::set_log_sink(nullptr);

  const double anorm = 2.0 * chain.max_exit_rate();
  const double floor = ctmc::expmv_tol_floor(anorm, times[0]);
  ASSERT_GT(floor, opts.krylov_tol) << "fixture must sit below the floor";
  EXPECT_TRUE(sol.tol_floor_hit);
  EXPECT_EQ(bits(sol.achievable_tol), bits(floor));

  const auto snap = session.registry().snapshot();
  EXPECT_EQ(snap.counters.at("ctmc.expmv.tol_floor_hits"), 1u);
  EXPECT_EQ(bits(snap.gauges.at("ctmc.expmv.tol_floor")), bits(floor));
  bool warned = false;
  for (const auto& line : lines)
    warned = warned || line.find("round-off floor") != std::string::npos;
  EXPECT_TRUE(warned);

  // The detection must not change the numbers: the same solve without the
  // flag wiring observable (tolerance above the floor) and a reference
  // uniformization run still agree, and a request *above* the floor is not
  // flagged.
  UniformizationOptions honest = opts;
  honest.krylov_tol = 1e-9;
  const auto ok = ctmc::solve_transient(chain, reward, times, honest);
  EXPECT_FALSE(ok.tol_floor_hit);
  EXPECT_EQ(bits(ok.achievable_tol), bits(0.0));

  const auto ref = ctmc::solve_transient(chain, reward, times);
  EXPECT_NEAR(sol.expected_reward[0], ref.expected_reward[0], 1e-8);

  // With krylov_tol left at 0 the solve falls back to epsilon, which the
  // caller did not ask to certify: same flag, floor and counter, but no
  // warning line.
  UniformizationOptions defaulted;
  defaulted.solver = TransientSolver::kKrylov;
  defaulted.epsilon = 1e-12;
  util::TelemetrySession quiet_session;
  lines.clear();
  util::set_log_sink([&lines](const std::string& line) {
    lines.push_back(line);
  });
  const auto fallback = ctmc::solve_transient(chain, reward, times, defaulted);
  util::set_log_sink(nullptr);
  EXPECT_TRUE(fallback.tol_floor_hit);
  EXPECT_EQ(bits(fallback.achievable_tol), bits(floor));
  const auto quiet = quiet_session.registry().snapshot();
  EXPECT_EQ(quiet.counters.at("ctmc.expmv.tol_floor_hits"), 1u);
  EXPECT_EQ(bits(quiet.gauges.at("ctmc.expmv.tol_floor")), bits(floor));
  for (const auto& line : lines)
    EXPECT_EQ(line.find("round-off floor"), std::string::npos) << line;
}

TEST(Krylov, TolFloorFormula) {
  constexpr double kEps = 2.220446049250313e-16;
  // Below anorm·t = 1 the floor bottoms out at 4ε.
  EXPECT_EQ(bits(ctmc::expmv_tol_floor(0.0, 5.0)), bits(4.0 * kEps));
  EXPECT_EQ(bits(ctmc::expmv_tol_floor(0.5, 1.0)), bits(4.0 * kEps));
  // Above it the floor scales with the horizon.
  EXPECT_EQ(bits(ctmc::expmv_tol_floor(2000.0, 10.0)),
            bits(4.0 * kEps * 20000.0));
  EXPECT_GT(ctmc::expmv_tol_floor(2000.0, 20.0),
            ctmc::expmv_tol_floor(2000.0, 10.0));
}

TEST(SolverTelemetry, SteadyCutoffCounterFiresInBothSolvers) {
  // Two-state flip-flop far past its relaxation time: both the transient
  // and the accumulated stepper must latch the steady state and report it
  // under ctmc.uniformization.steady_cutoffs.
  MarkovChain chain;
  chain.num_states = 2;
  chain.rates = CsrMatrix::from_triplets(2, 2, {{0, 1, 3.0}, {1, 0, 1.0}});
  chain.exit_rate = {3.0, 1.0};
  chain.initial = {1.0, 0.0};
  const std::vector<double> reward = {0.0, 1.0};
  const std::vector<double> times = {200.0};

  util::TelemetrySession session;
  const auto t_sol = ctmc::solve_transient(chain, reward, times);
  const auto t_snap = session.registry().snapshot();
  const std::uint64_t after_transient =
      t_snap.counters.at("ctmc.uniformization.steady_cutoffs");
  EXPECT_GE(after_transient, 1u);
  EXPECT_NEAR(t_sol.expected_reward[0], 0.75, 1e-10);

  const auto a_sol = ctmc::solve_accumulated(chain, reward, times);
  const auto a_snap = session.registry().snapshot();
  EXPECT_GT(a_snap.counters.at("ctmc.uniformization.steady_cutoffs"),
            after_transient);
  // ∫₀²⁰⁰ P(state 1, u) du = 0.75·200 − (0.75/4)(1 − e⁻⁸⁰⁰).
  EXPECT_NEAR(a_sol.accumulated[0], 150.0 - 0.1875, 1e-6);
}

TEST(SolverTelemetry, Avx2GaugeNamesTheSliceLoop) {
  // Both uniformization solves say which slice loop summed their product,
  // so a timing can be read against the kernel that produced it.
  MarkovChain chain;
  chain.num_states = 2;
  chain.rates = CsrMatrix::from_triplets(2, 2, {{0, 1, 3.0}, {1, 0, 1.0}});
  chain.exit_rate = {3.0, 1.0};
  chain.initial = {1.0, 0.0};
  const std::vector<double> reward = {0.0, 1.0};
  const std::vector<double> times = {1.0};
  const double want = ctmc::SlicedTranspose::avx2_supported() ? 1.0 : 0.0;

  util::TelemetrySession session;
  (void)ctmc::solve_transient(chain, reward, times);
  EXPECT_EQ(session.registry().snapshot().gauges.at(
                "ctmc.uniformization.avx2"),
            want);
  session.registry().gauge("ctmc.uniformization.avx2").set(-1.0);
  (void)ctmc::solve_accumulated(chain, reward, times);
  EXPECT_EQ(session.registry().snapshot().gauges.at(
                "ctmc.uniformization.avx2"),
            want);
}

TEST(DenseExpm, MatchesClosedForms) {
  // Nilpotent: exp([[0,1],[0,0]]) = [[1,1],[0,1]].
  const auto nil = ctmc::dense_expm({0.0, 1.0, 0.0, 0.0}, 2);
  EXPECT_NEAR(nil[0], 1.0, 1e-14);
  EXPECT_NEAR(nil[1], 1.0, 1e-14);
  EXPECT_NEAR(nil[2], 0.0, 1e-14);
  EXPECT_NEAR(nil[3], 1.0, 1e-14);

  // Diagonal: exp(diag(ln 2, −1)) = diag(2, e⁻¹).
  const auto diag =
      ctmc::dense_expm({std::log(2.0), 0.0, 0.0, -1.0}, 2);
  EXPECT_NEAR(diag[0], 2.0, 1e-13);
  EXPECT_NEAR(diag[3], std::exp(-1.0), 1e-14);

  // Skew-symmetric: exp(θJ) is a rotation by θ — exercises the squaring
  // phase (‖A‖ > θ₁₃ for θ = 8).
  const double theta = 8.0;
  const auto rot = ctmc::dense_expm({0.0, theta, -theta, 0.0}, 2);
  EXPECT_NEAR(rot[0], std::cos(theta), 1e-12);
  EXPECT_NEAR(rot[1], std::sin(theta), 1e-12);
  EXPECT_NEAR(rot[2], -std::sin(theta), 1e-12);
  EXPECT_NEAR(rot[3], std::cos(theta), 1e-12);
}

// ---- pinned solver output bits -------------------------------------------

/// FNV-1a over the bytes of 64-bit words, as in test_lumped.cpp.
struct Fnv64 {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t w) {
    for (int b = 0; b < 64; b += 8) {
      h ^= (w >> b) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(double v) { add(bits(v)); }
};

/// A chain's unsafety S(t) under the three transient engines (values and
/// iteration counts) and the accumulated unsafety, hashed.  The
/// uniformization solves run at the lumped model's epsilon of 1e-14 without
/// a cache; Krylov asks for 1e-10, above its round-off floor.
std::uint64_t solver_output_hash(const MarkovChain& chain,
                                 const std::vector<double>& reward) {
  const std::vector<double> times = {2.0, 6.0, 10.0};
  Fnv64 f;
  for (const TransientSolver solver :
       {TransientSolver::kStandard, TransientSolver::kAdaptive,
        TransientSolver::kKrylov}) {
    UniformizationOptions opts;
    opts.epsilon = 1e-14;
    opts.krylov_tol = 1e-10;
    opts.solver = solver;
    const auto sol = ctmc::solve_transient(chain, reward, times, opts);
    for (double v : sol.expected_reward) f.add(v);
    f.add(sol.total_iterations);
    f.add(sol.qs_extrapolations);
  }
  const auto acc = ctmc::solve_accumulated(chain, reward, times);
  for (double v : acc.accumulated) f.add(v);
  f.add(acc.total_iterations);
  return f.h;
}

struct PinnedSolve {
  int platoons;
  int n;
  ahs::Strategy strategy;
  double q_intrinsic;
  std::uint64_t hash;
};

// Generated by the column-blocked solvers before the blocking was removed;
// a change to any solver's additions, their order or its stopping rules
// shows up here.
constexpr PinnedSolve kPinnedSolves[] = {
    {1, 1, ahs::Strategy::kDD, 0.98, 0xc8143191be133d22ull},
    {1, 2, ahs::Strategy::kDC, 1.0, 0xcf0296092dde35dbull},
    {1, 3, ahs::Strategy::kCD, 0.98, 0xf1b77f73b5b4b3ecull},
    {1, 4, ahs::Strategy::kCC, 0.98, 0x4a687421fc84e08dull},
    {2, 1, ahs::Strategy::kCD, 0.98, 0x78547b7d012ab87ull},
    {2, 2, ahs::Strategy::kCC, 0.98, 0x9cd2a59b76f77b38ull},
    {2, 3, ahs::Strategy::kDD, 0.98, 0x5ff6c8f36523df2bull},
    {3, 1, ahs::Strategy::kDC, 0.98, 0xae81a44a2583aafull},
};
constexpr std::uint64_t kPinnedFullSan = 0xeae5971ae3789a17ull;
constexpr std::uint64_t kPinnedSweep = 0xddeab02dbb75243ull;

TEST(CrossSolver, OutputBitsArePinned) {
  for (std::size_t i = 0; i < std::size(kPinnedSolves); ++i) {
    const PinnedSolve& c = kPinnedSolves[i];
    ahs::Parameters p;
    p.num_platoons = c.platoons;
    p.max_per_platoon = c.n;
    p.strategy = c.strategy;
    p.q_intrinsic = c.q_intrinsic;
    p.base_failure_rate = 1e-4;
    const ahs::LumpedModel model(p);
    std::vector<double> reward(model.num_states(), 0.0);
    reward[model.unsafe_state()] = 1.0;
    const std::uint64_t h = solver_output_hash(model.chain(), reward);
    EXPECT_EQ(h, c.hash) << "config " << i << std::hex << " got 0x" << h;
  }

  // The exact full-SAN chain at n = 1 with failure modes FM3 and FM6, built
  // as the kFullCtmc engine builds it.
  ahs::Parameters p;
  p.num_platoons = 2;
  p.max_per_platoon = 1;
  p.base_failure_rate = 1e-4;
  p.failure_mode_enabled = {false, false, true, false, false, true};
  const san::FlatModel model = ahs::build_system_model(p);
  const std::uint32_t ko = model.place_offset(model.place_index("KO_total"));
  ctmc::StateSpaceOptions ss;
  ss.absorbing = [ko](std::span<const std::int32_t> m) { return m[ko] > 0; };
  ss.ignore_places = {"ext_id", "safe_exits", "ko_exits"};
  const ctmc::StateSpace space = ctmc::build_state_space(model, ss);
  const std::vector<double> reward = space.state_rewards(
      [ko](std::span<const std::int32_t> m) { return m[ko] > 0 ? 1.0 : 0.0; });
  const std::uint64_t full = solver_output_hash(space.chain, reward);
  EXPECT_EQ(full, kPinnedFullSan) << std::hex << "full SAN got 0x" << full;

  // A sequential adaptive sweep over one structure: the first point is the
  // cold build, the other three warm-start from its published shape.
  ahs::Parameters base;
  base.max_per_platoon = 3;
  const std::vector<ahs::SweepPoint> points = ahs::make_grid(
      base, {"lambda", {1e-4, 2e-4, 5e-4, 1e-3},
             [](ahs::Parameters& q, double v) { q.base_failure_rate = v; }});
  ahs::SweepOptions so;
  so.threads = 1;
  const ahs::SweepResult r = ahs::run_sweep(points, {2.0, 6.0, 10.0}, so);
  EXPECT_GT(r.warm_start_hits, 0u);
  Fnv64 f;
  for (const ahs::UnsafetyCurve& c : r.curves) {
    for (double v : c.unsafety) f.add(v);
    f.add(c.solver_iterations);
  }
  f.add(r.warm_start_hits);
  f.add(r.poisson_cache_hits);
  EXPECT_EQ(f.h, kPinnedSweep) << std::hex << "sweep got 0x" << f.h;
}

}  // namespace
