// CTMC numerics: CSR matrices, Poisson windows, uniformization against
// closed-form transient solutions, stationary distributions, absorption.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ctmc/chain.h"
#include "ctmc/sparse.h"
#include "ctmc/stationary.h"
#include "ctmc/uniformization.h"
#include "util/error.h"

namespace {

using ctmc::CsrMatrix;
using ctmc::MarkovChain;
using ctmc::Triplet;

TEST(CsrMatrix, BuildsAndSumsDuplicates) {
  auto m = CsrMatrix::from_triplets(
      2, 3, {{0, 1, 2.0}, {0, 1, 3.0}, {1, 0, 1.0}, {1, 2, 4.0}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nonzeros(), 3u);
  EXPECT_DOUBLE_EQ(m.row_sum(0), 5.0);
  EXPECT_DOUBLE_EQ(m.row_sum(1), 5.0);
  const auto cols = m.row_cols(0);
  ASSERT_EQ(cols.size(), 1u);
  EXPECT_EQ(cols[0], 1u);
  EXPECT_DOUBLE_EQ(m.row_values(0)[0], 5.0);
}

TEST(CsrMatrix, LeftAndRightMultiply) {
  auto m = CsrMatrix::from_triplets(2, 2,
                                    {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 3.0}});
  std::vector<double> x = {1.0, 2.0}, y(2);
  m.left_multiply(x, y);  // y = x M
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 8.0);
  m.right_multiply(x, y);  // y = M x
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(CsrMatrix, RejectsOutOfRangeTriplets) {
  EXPECT_THROW(CsrMatrix::from_triplets(1, 1, {{1, 0, 1.0}}),
               util::PreconditionError);
}

TEST(CsrMatrix, FromCsrAdoptsTheLayout) {
  const auto m = CsrMatrix::from_csr(2, 3, {0, 2, 3}, {0, 2, 1},
                                     {1.0, 2.0, 4.0});
  const auto ref = CsrMatrix::from_triplets(
      2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 4.0}});
  EXPECT_TRUE(std::ranges::equal(m.row_ptr(), ref.row_ptr()));
  EXPECT_TRUE(std::ranges::equal(m.col_index(), ref.col_index()));
  EXPECT_TRUE(std::ranges::equal(m.values(), ref.values()));
}

TEST(CsrMatrix, FromCsrRejectsAnInconsistentLayout) {
  const auto build = [](std::vector<std::size_t> row_ptr,
                        std::vector<std::uint32_t> col) {
    std::vector<double> val(col.size(), 1.0);
    return CsrMatrix::from_csr(2, 3, std::move(row_ptr), std::move(col),
                               std::move(val));
  };
  EXPECT_NO_THROW(build({0, 2, 3}, {0, 2, 1}));
  // Row pointers: wrong count, not starting at 0, not monotone, not
  // ending at the entry count.
  EXPECT_THROW(build({0, 3}, {0, 2, 1}), util::PreconditionError);
  EXPECT_THROW(build({1, 2, 3}, {0, 2, 1}), util::PreconditionError);
  EXPECT_THROW(build({0, 3, 2}, {0, 2, 1}), util::PreconditionError);
  EXPECT_THROW(build({0, 2, 2}, {0, 2, 1}), util::PreconditionError);
  // Columns: out of range, repeated, out of order.
  EXPECT_THROW(build({0, 2, 3}, {0, 3, 1}), util::PreconditionError);
  EXPECT_THROW(build({0, 2, 3}, {2, 2, 1}), util::PreconditionError);
  EXPECT_THROW(build({0, 2, 3}, {2, 0, 1}), util::PreconditionError);
  // Values must match the columns.
  EXPECT_THROW(CsrMatrix::from_csr(1, 1, {0, 1}, {0}, {}),
               util::PreconditionError);
}

TEST(PoissonWindow, SmallLambdaMatchesPmf) {
  const auto w = ctmc::poisson_window(2.0, 1e-12);
  EXPECT_EQ(w.left, 0u);
  double total = 0.0;
  for (double x : w.weight) total += x;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Compare the k = 0..4 weights with exp(-2) 2^k / k!.
  for (std::uint64_t k = 0; k <= 4; ++k) {
    const double exact =
        std::exp(-2.0) * std::pow(2.0, k) / std::tgamma(k + 1.0);
    EXPECT_NEAR(w.weight[k - w.left], exact, 1e-10);
  }
}

TEST(PoissonWindow, LargeLambdaIsStable) {
  // λ = 5000: raw pmf terms underflow; the window must still normalize.
  const auto w = ctmc::poisson_window(5000.0, 1e-12);
  double total = 0.0;
  for (double x : w.weight) total += x;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(w.left, 4000u);
  EXPECT_LT(w.right, 6000u);
  // Mean of the windowed distribution ≈ λ.
  double mean = 0.0;
  for (std::size_t i = 0; i < w.weight.size(); ++i)
    mean += (w.left + i) * w.weight[i];
  EXPECT_NEAR(mean, 5000.0, 1.0);
}

TEST(PoissonWindow, ZeroLambda) {
  const auto w = ctmc::poisson_window(0.0, 1e-12);
  EXPECT_EQ(w.left, 0u);
  EXPECT_EQ(w.right, 0u);
  EXPECT_DOUBLE_EQ(w.weight[0], 1.0);
}

// Two-state chain with rates a (0→1) and b (1→0); closed-form transient:
// P(state 1 at t | start 0) = a/(a+b) (1 − e^{-(a+b)t}).
MarkovChain two_state(double a, double b) {
  MarkovChain c;
  c.num_states = 2;
  c.rates = CsrMatrix::from_triplets(2, 2, {{0, 1, a}, {1, 0, b}});
  c.exit_rate = {a, b};
  c.initial = {1.0, 0.0};
  return c;
}

TEST(Uniformization, MatchesTwoStateClosedForm) {
  const double a = 3.0, b = 1.0;
  const auto chain = two_state(a, b);
  const std::vector<double> reward = {0.0, 1.0};
  const std::vector<double> times = {0.1, 0.5, 1.0, 2.0, 5.0};
  const auto sol = ctmc::solve_transient(chain, reward, times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double exact =
        a / (a + b) * (1.0 - std::exp(-(a + b) * times[i]));
    EXPECT_NEAR(sol.expected_reward[i], exact, 1e-10) << "t=" << times[i];
  }
}

TEST(Uniformization, PureDeathAbsorption) {
  // 1 --(r)--> 0 (absorbing): P(absorbed by t) = 1 − e^{-rt}.
  MarkovChain c;
  c.num_states = 2;
  c.rates = CsrMatrix::from_triplets(2, 2, {{0, 1, 2.5}});
  c.exit_rate = {2.5, 0.0};
  c.initial = {1.0, 0.0};
  const std::vector<double> reward = {0.0, 1.0};
  const std::vector<double> times = {0.2, 1.0, 3.0};
  const auto sol = ctmc::solve_transient(c, reward, times);
  for (std::size_t i = 0; i < times.size(); ++i)
    EXPECT_NEAR(sol.expected_reward[i], 1.0 - std::exp(-2.5 * times[i]),
                1e-10);
}

TEST(Uniformization, TimePointZeroReturnsInitialReward) {
  const auto chain = two_state(1.0, 1.0);
  const std::vector<double> reward = {7.0, 0.0};
  const std::vector<double> times = {0.0, 1.0};
  const auto sol = ctmc::solve_transient(chain, reward, times);
  EXPECT_DOUBLE_EQ(sol.expected_reward[0], 7.0);
}

TEST(Uniformization, RareAbsorptionSmallProbabilitiesAreAccurate) {
  // 0→1 at rate 1e-9 (absorbing), plus fast internal churn 0↔2 at rate 10
  // to stress the truncation: P(absorbed by t) = 1e-9 ∫ P(state 0, u) du
  // with P(state 0, u) = 0.5 + 0.5 e^{-20u}, so at t = 10 the integral is
  // 5 + 0.5/20 = 5.025.
  MarkovChain c;
  c.num_states = 3;
  c.rates = CsrMatrix::from_triplets(
      3, 3, {{0, 1, 1e-9}, {0, 2, 10.0}, {2, 0, 10.0}});
  c.exit_rate = {10.0 + 1e-9, 0.0, 10.0};
  c.initial = {1.0, 0.0, 0.0};
  const std::vector<double> reward = {0.0, 1.0, 0.0};
  const std::vector<double> times = {10.0};
  ctmc::UniformizationOptions opts;
  opts.epsilon = 1e-14;
  opts.steady_state_tol = 0.0;
  const auto sol = ctmc::solve_transient(c, reward, times, opts);
  EXPECT_NEAR(sol.expected_reward[0] / (5.025e-9), 1.0, 1e-6);
}

TEST(Stationary, TwoStateBalance) {
  const auto chain = two_state(3.0, 1.0);
  const auto res = ctmc::solve_stationary(chain);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.distribution[0], 0.25, 1e-9);
  EXPECT_NEAR(res.distribution[1], 0.75, 1e-9);
}

TEST(Absorption, LinearChainHittingTime) {
  // 0 → 1 → 2 (absorbing) with unit rates: h(0) = 2, h(1) = 1.
  MarkovChain c;
  c.num_states = 3;
  c.rates = CsrMatrix::from_triplets(3, 3, {{0, 1, 1.0}, {1, 2, 1.0}});
  c.exit_rate = {1.0, 1.0, 0.0};
  c.initial = {1.0, 0.0, 0.0};
  const auto res = ctmc::mean_time_to_absorption(c);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.hitting_time[0], 2.0, 1e-9);
  EXPECT_NEAR(res.hitting_time[1], 1.0, 1e-9);
  EXPECT_NEAR(res.mean_time, 2.0, 1e-9);
}

TEST(QuasiStationary, MatchesExactForSlowAbsorption) {
  // Fast 0↔1 churn (rate 5 each way) with slow absorption 1→2 at 1e-6:
  // quasi-stationary occupancy of 1 is 0.5, so κ ≈ 0.5e-6 and MTTA ≈ 2e6.
  MarkovChain c;
  c.num_states = 3;
  c.rates = CsrMatrix::from_triplets(
      3, 3, {{0, 1, 5.0}, {1, 0, 5.0}, {1, 2, 1e-6}});
  c.exit_rate = {5.0, 5.0 + 1e-6, 0.0};
  c.initial = {1.0, 0.0, 0.0};
  std::vector<bool> absorbing = {false, false, true};
  const auto res = ctmc::quasi_stationary_absorption(c, absorbing);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.absorption_rate / 0.5e-6, 1.0, 1e-3);
  EXPECT_NEAR(res.distribution[0], 0.5, 1e-3);
}

TEST(ChainValidate, CatchesInconsistencies) {
  auto chain = two_state(1.0, 1.0);
  EXPECT_NO_THROW(chain.validate());
  chain.initial = {0.7, 0.7};
  EXPECT_THROW(chain.validate(), util::ModelError);
  chain.initial = {1.0, 0.0};
  chain.exit_rate = {2.0, 1.0};
  EXPECT_THROW(chain.validate(), util::ModelError);
}

}  // namespace

namespace {

TEST(Accumulated, PureDeathOccupancyIntegral) {
  // 1 -> absorbing at rate r: E[∫ 1{alive} du] over [0,t] =
  // (1 - e^{-rt}) / r.
  MarkovChain c;
  c.num_states = 2;
  c.rates = CsrMatrix::from_triplets(2, 2, {{0, 1, 2.0}});
  c.exit_rate = {2.0, 0.0};
  c.initial = {1.0, 0.0};
  const std::vector<double> reward = {1.0, 0.0};
  const std::vector<double> times = {0.5, 1.0, 3.0};
  const auto sol = ctmc::solve_accumulated(c, reward, times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double exact = (1.0 - std::exp(-2.0 * times[i])) / 2.0;
    EXPECT_NEAR(sol.accumulated[i], exact, 1e-9) << "t=" << times[i];
  }
}

TEST(Accumulated, FlipflopDownTimeIntegral) {
  // up->down rate a, down->up rate b, start up:
  // E[∫ 1{down}] = a/(a+b) t - a/(a+b)^2 (1 - e^{-(a+b)t}).
  const double a = 3.0, b = 1.0;
  const auto chain = two_state(a, b);
  const std::vector<double> reward = {0.0, 1.0};
  const std::vector<double> times = {0.25, 1.0, 2.5, 5.0};
  const auto sol = ctmc::solve_accumulated(chain, reward, times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double ab = a + b;
    const double exact =
        a / ab * times[i] - a / (ab * ab) * (1.0 - std::exp(-ab * times[i]));
    EXPECT_NEAR(sol.accumulated[i], exact, 1e-8) << "t=" << times[i];
  }
}

TEST(Accumulated, MonotoneAndConsistentWithTransient) {
  // ∫ S'(u) du over increasing horizons is increasing, and for a constant
  // reward of 1 the integral is exactly t.
  const auto chain = two_state(2.0, 5.0);
  const std::vector<double> ones = {1.0, 1.0};
  const std::vector<double> times = {1.0, 2.0, 4.0};
  const auto sol = ctmc::solve_accumulated(chain, ones, times);
  for (std::size_t i = 0; i < times.size(); ++i)
    EXPECT_NEAR(sol.accumulated[i], times[i], 1e-9);
}

}  // namespace
