// Lumped-CTMC model tests: construction, severity bookkeeping, and the
// qualitative laws the paper's evaluation section rests on (monotonicity in
// t, λ, n; strategy ordering; MTTU consistency), plus pinned generator
// bits.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <vector>

#include "ahs/lumped.h"
#include "ahs/study.h"

namespace {

using namespace ahs;

Parameters base(double lambda = 1e-4, int n = 4) {
  Parameters p;
  p.max_per_platoon = n;
  p.base_failure_rate = lambda;
  return p;
}

TEST(LumpedState, SeverityClassesByStage) {
  LumpedState s;
  s.maneuvers = {1, 1, 0, 0, 0, 1};  // TIE-N, TIE, AS
  const SeverityCounts c = s.severity();
  EXPECT_EQ(c.a, 1);
  EXPECT_EQ(c.b, 1);
  EXPECT_EQ(c.c, 1);
}

TEST(LumpedState, Accounting) {
  LumpedState s;
  s.lanes[0] = 3;
  s.lanes[1] = 2;
  s.nt = 1;
  s.maneuvers = {0, 2, 0, 0, 0, 0};
  EXPECT_EQ(s.vehicles(), 6);
  EXPECT_EQ(s.maneuvering(), 2);
  EXPECT_EQ(s.healthy(), 4);
}

TEST(LumpedModel, BuildsFiniteSafeStateSpace) {
  LumpedModel m(base());
  EXPECT_GT(m.num_states(), 10u);
  EXPECT_LT(m.num_states(), 200000u);
  // Every non-absorbing state must be safe and within bounds.
  for (std::uint32_t s = 0; s + 1 < m.num_states(); ++s) {
    const LumpedState& st = m.state(s);
    EXPECT_FALSE(is_catastrophic(st.severity()));
    EXPECT_LE(st.lanes[0], 4);
    EXPECT_LE(st.lanes[1], 4);
    EXPECT_LE(st.nt, m.parameters().max_transit);
    EXPECT_GE(st.healthy(), 0);
  }
}

TEST(LumpedModel, UnsafeStateIsAbsorbing) {
  LumpedModel m(base());
  const auto& chain = m.chain();
  EXPECT_DOUBLE_EQ(chain.exit_rate[m.unsafe_state()], 0.0);
}

TEST(LumpedModel, UnsafetyIsMonotoneInTime) {
  LumpedModel m(base());
  const std::vector<double> ts = {1, 2, 4, 6, 8, 10};
  const auto s = m.unsafety(ts);
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_GE(s[i], s[i - 1]) << "absorbing probability must not decrease";
    EXPECT_GT(s[i], 0.0);
    EXPECT_LT(s[i], 1.0);
  }
}

TEST(LumpedModel, UnsafetyIsMonotoneInLambda) {
  const std::vector<double> ts = {6};
  double prev = 0.0;
  for (double lam : {1e-5, 1e-4, 1e-3}) {
    LumpedModel m(base(lam));
    const double s = m.unsafety(ts)[0];
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(LumpedModel, LambdaScalingIsRoughlyQuadratic) {
  // Catastrophe needs >= 2 concurrent failures, so S scales ≈ λ² at small
  // λ (the paper reports ×175 and ×40 per decade around this).
  const std::vector<double> ts = {6};
  const double s5 = LumpedModel(base(1e-5)).unsafety(ts)[0];
  const double s4 = LumpedModel(base(1e-4)).unsafety(ts)[0];
  const double ratio = s4 / s5;
  EXPECT_GT(ratio, 30.0);
  EXPECT_LT(ratio, 300.0);
}

TEST(LumpedModel, UnsafetyIsMonotoneInPlatoonSize) {
  const std::vector<double> ts = {10};
  double prev = 0.0;
  for (int n : {2, 4, 6, 8}) {
    LumpedModel m(base(1e-4, n));
    const double s = m.unsafety(ts)[0];
    EXPECT_GT(s, prev) << "n=" << n;
    prev = s;
  }
}

TEST(LumpedModel, StrategyOrderingMatchesFig14) {
  // DD safest; inter-platoon choice dominates the intra-platoon choice;
  // overall impact small (same order of magnitude).
  const std::vector<double> ts = {6};
  Parameters p = base(1e-4, 6);
  std::array<double, 4> s{};
  for (std::size_t i = 0; i < kAllStrategies.size(); ++i) {
    p.strategy = kAllStrategies[i];
    s[i] = LumpedModel(p).unsafety(ts)[0];
  }
  const double dd = s[0], dc = s[1], cd = s[2], cc = s[3];
  EXPECT_LT(dd, dc);
  EXPECT_LT(dd, cd);
  EXPECT_LT(dc, cc);
  EXPECT_LT(cd, cc);
  EXPECT_GT(cd - dd, dc - dd) << "inter-platoon impact must dominate";
  EXPECT_LT(cc / dd, 10.0) << "strategy impact stays within one order";
}

TEST(LumpedModel, MttuConsistentWithHazardSlope) {
  // S(t) ≈ t/MTTU for t << MTTU.
  LumpedModel m(base(1e-4));
  const std::vector<double> ts = {5, 10};
  const auto s = m.unsafety(ts);
  const double slope = (s[1] - s[0]) / 5.0;
  const double mttu = m.mean_time_to_unsafe();
  EXPECT_NEAR(slope * mttu, 1.0, 0.05);
}

TEST(LumpedModel, ExpectedVehiclesStaysNearCapacity) {
  LumpedModel m(base(1e-5, 4));
  const std::vector<double> ts = {1, 10};
  const auto v = m.expected_vehicles(ts);
  // join 12/h vs leave 8/h: the system hovers close to full (8 vehicles).
  for (double x : v) {
    EXPECT_GT(x, 5.0);
    EXPECT_LE(x, 8.5);
  }
}

TEST(LumpedModel, DisabledFailureModesReduceUnsafety) {
  const std::vector<double> ts = {6};
  Parameters all = base(1e-4);
  Parameters only_a = base(1e-4);
  only_a.failure_mode_enabled = {true, true, true, false, false, false};
  const double s_all = LumpedModel(all).unsafety(ts)[0];
  const double s_a = LumpedModel(only_a).unsafety(ts)[0];
  EXPECT_LT(s_a, s_all);
  EXPECT_GT(s_a, 0.0);
}

TEST(LumpedModel, HigherQIntrinsicIsSafer) {
  const std::vector<double> ts = {6};
  Parameters lo = base(1e-4);
  lo.q_intrinsic = 0.8;
  Parameters hi = base(1e-4);
  hi.q_intrinsic = 1.0;
  EXPECT_GT(LumpedModel(lo).unsafety(ts)[0],
            LumpedModel(hi).unsafety(ts)[0]);
}

TEST(LumpedModel, FasterManeuversAreSafer) {
  // Shorter exposure windows -> less overlap -> lower unsafety.
  const std::vector<double> ts = {6};
  Parameters slow = base(1e-4);
  slow.maneuver_rates = {15, 15, 15, 15, 15, 15};
  Parameters fast = base(1e-4);
  fast.maneuver_rates = {30, 30, 30, 30, 30, 30};
  EXPECT_GT(LumpedModel(slow).unsafety(ts)[0],
            LumpedModel(fast).unsafety(ts)[0]);
}

// Parameterized sweep: S(t) stays a valid probability and monotone in t
// across the (λ, n, strategy) grid.
struct GridParam {
  double lambda;
  int n;
  Strategy strategy;
};

class LumpedGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(LumpedGrid, ValidMonotoneCurves) {
  const GridParam g = GetParam();
  Parameters p = base(g.lambda, g.n);
  p.strategy = g.strategy;
  LumpedModel m(p);
  const std::vector<double> ts = {2, 6, 10};
  const auto s = m.unsafety(ts);
  double prev = 0.0;
  for (double x : s) {
    EXPECT_GE(x, prev);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
    prev = x;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LumpedGrid,
    ::testing::Values(GridParam{1e-5, 2, Strategy::kDD},
                      GridParam{1e-5, 4, Strategy::kCC},
                      GridParam{1e-4, 3, Strategy::kDC},
                      GridParam{1e-3, 2, Strategy::kCD},
                      GridParam{1e-2, 2, Strategy::kDD},
                      GridParam{1e-4, 6, Strategy::kCC}));

}  // namespace

namespace {

TEST(LumpedModel, ExpectedManeuverHoursMatchesFlowBalance) {
  // In quasi-steady state, maneuver-hours accumulate at rate
  // E[#maneuvering] ≈ (healthy · Σλ_i) / μ_eff per hour; cross-check the
  // interval-of-time solver against that first-order estimate.
  Parameters p;
  p.max_per_platoon = 3;
  p.base_failure_rate = 1e-3;
  LumpedModel m(p);
  const double t = 10.0;
  const double hours = m.expected_maneuver_hours(t);
  EXPECT_GT(hours, 0.0);
  // Arrival of maneuvers: ~6 vehicles x 14λ = 0.084/h; each lasts ~1/25 h
  // (but escalations stretch it) => occupancy ~3.4e-3; over 10 h ~3.4e-2.
  EXPECT_NEAR(hours, 6 * 14 * 1e-3 / 25.0 * t, 0.6 * hours);
  // And it must grow with the horizon.
  EXPECT_GT(m.expected_maneuver_hours(2 * t), hours * 1.5);
}

// ---- pinned generator bits ---------------------------------------------

/// FNV-1a over the bytes of 64-bit words.
struct Fnv64 {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t w) {
    for (int b = 0; b < 64; b += 8) {
      h ^= (w >> b) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

/// One hash over everything a solve reads from a lumped model: the state
/// order, the generator's row pointers, columns and value bits, and the
/// exit-rate bits.
std::uint64_t generator_hash(const LumpedModel& m) {
  Fnv64 f;
  for (const LumpedState& s : m.structure()->states) {
    for (int x : s.lanes) f.add(static_cast<std::uint64_t>(x));
    f.add(static_cast<std::uint64_t>(s.nt));
    for (int x : s.maneuvers) f.add(static_cast<std::uint64_t>(x));
  }
  const ctmc::MarkovChain& c = m.chain();
  for (std::size_t p : c.rates.row_ptr()) f.add(p);
  for (std::uint32_t col : c.rates.col_index()) f.add(col);
  for (double v : c.rates.values()) f.add(std::bit_cast<std::uint64_t>(v));
  for (double v : c.exit_rate) f.add(std::bit_cast<std::uint64_t>(v));
  return f.h;
}

/// A structure shape plus the two generators pinned for it, at λ = 1e-4.
/// Variants: 0 the §4.1 defaults; 1 q_intrinsic = 1; 2 join rate 0;
/// 3 change rate 0; 4 leave rate 0, max_transit 1 and one failure mode
/// off; 5 max_transit = capacity.
struct PinnedGenerator {
  int platoons;
  int n;
  Strategy strategy;
  int variant;
  std::uint64_t explored;  ///< under the exploring parameters
  std::uint64_t refilled;  ///< a second parameter set, same fingerprint
};

Parameters pinned_params(const PinnedGenerator& g, int index) {
  Parameters p;
  p.num_platoons = g.platoons;
  p.max_per_platoon = g.n;
  p.strategy = g.strategy;
  p.base_failure_rate = 1e-4;
  switch (g.variant) {
    case 1: p.q_intrinsic = 1.0; break;
    case 2: p.join_rate = 0.0; break;
    case 3: p.change_rate = 0.0; break;
    case 4:
      p.leave_rate = 0.0;
      p.max_transit = 1;
      p.failure_mode_enabled[static_cast<std::size_t>(index) %
                             kNumFailureModes] = false;
      break;
    case 5: p.max_transit = p.capacity(); break;
    default: break;
  }
  return p;
}

/// Every rate moved, every zero kept and q kept at 1 when it is 1, so the
/// structural fingerprint stays the same.
Parameters refill_params(Parameters p) {
  p.base_failure_rate *= 3.0;
  p.rate_multipliers = {1.5, 2, 2.5, 2, 3.5, 4};
  p.maneuver_rates = {27, 21, 18, 29, 16, 23};
  p.join_rate *= 1.25;
  p.leave_rate *= 0.75;
  p.change_rate *= 1.5;
  p.transit_rate *= 0.8;
  if (p.q_intrinsic < 1.0) p.q_intrinsic = 0.9;
  return p;
}

// Generated by an independent build that summed each entry in
// CsrMatrix::from_triplets after sorting the terms by (row, column); a
// change to any entry's summation order, the state order or the pattern
// shows up here.  Pinned with libstdc++'s std::sort.
constexpr PinnedGenerator kPinned[] = {
    {1, 1, Strategy::kDD, 0, 0xb2656ef0674df7c5ull,
     0x4e6b3fee9bd2ec81ull},
    {1, 1, Strategy::kDC, 1, 0x2227c2fac2eae11full,
     0x148f2e9d637d3d07ull},
    {1, 2, Strategy::kCD, 2, 0xa4efc219e976feaeull,
     0xc81627f013b2147bull},
    {1, 2, Strategy::kCC, 3, 0xa343ababf8644a57ull,
     0x7c6efcd1ca030e6ull},
    {1, 3, Strategy::kDD, 4, 0x613864a895123595ull,
     0x716839fb3ddc4db6ull},
    {1, 3, Strategy::kDC, 0, 0xd220ce0e515cbadbull,
     0x5a01d7274ee768b0ull},
    {1, 5, Strategy::kCD, 1, 0xe6bd78f9aef0a5b4ull,
     0xb018ad82e6bc450cull},
    {1, 5, Strategy::kCC, 2, 0x6fcedbe3682ea5b4ull,
     0x4803f7364d6d03c8ull},
    {1, 8, Strategy::kDD, 3, 0x950f82d927e90617ull,
     0x1075a4d28be1d848ull},
    {1, 8, Strategy::kDC, 4, 0x6deac1f8ea5ac223ull,
     0xccbab45924d5ecbbull},
    {2, 1, Strategy::kCD, 0, 0x76d8f5cc6483d0d3ull,
     0x9def00d0b867c9b4ull},
    {2, 1, Strategy::kCC, 1, 0xeed513ad19d339dull,
     0x9bb75ab275cb419dull},
    {2, 2, Strategy::kDD, 2, 0x297342a51030f51bull,
     0x7adc6c6e199a8ba7ull},
    {2, 2, Strategy::kDC, 3, 0xd39dbbb25f3bb90ull,
     0xf37fcddb94606d90ull},
    {2, 3, Strategy::kCD, 4, 0x71e5a76cab05940dull,
     0x60418040bd30e337ull},
    {2, 3, Strategy::kCC, 0, 0x1f3162875fc5f6b2ull,
     0x98f045b431ba256bull},
    {2, 4, Strategy::kDD, 1, 0x51509b241ab6ecf3ull,
     0x253a71fe9e938612ull},
    {2, 4, Strategy::kDC, 2, 0xd822a0071091ba7dull,
     0x69aa2ed3e2288528ull},
    {2, 5, Strategy::kCD, 3, 0x79d82bca0dbefb39ull,
     0x3ea468fae39b890bull},
    {2, 5, Strategy::kCC, 4, 0x9d92e56c3d6d5604ull,
     0x2b8fa2bdeef8cf62ull},
    {3, 1, Strategy::kDD, 0, 0x289b41c8ff89434eull,
     0x6613f4836203aafaull},
    {3, 1, Strategy::kDC, 1, 0x2131fef29a5f3e0ull,
     0xe3b1690e072a8638ull},
    {3, 2, Strategy::kCD, 2, 0x3c0a77bf122c03beull,
     0x1983df52c32099e8ull},
    {3, 2, Strategy::kCC, 3, 0xd4a48408ac70ce37ull,
     0x63cf04637a0e23ebull},
    {3, 3, Strategy::kDD, 4, 0xfb4f22993cb6312dull,
     0x5dd1d5e1d40c0b3bull},
    {3, 3, Strategy::kDC, 0, 0x6496caa696ba1581ull,
     0xf08cb5f8608817b8ull},
    {4, 1, Strategy::kCD, 1, 0xc2e0aef840532409ull,
     0x1a34e10c6a4ce16ull},
    {4, 1, Strategy::kCC, 2, 0xdf5fa4afffd00484ull,
     0xa8b1359f65407b16ull},
    {4, 2, Strategy::kDD, 3, 0xb4b0235887b439b8ull,
     0x3f8360af89bdfcd0ull},
    {4, 2, Strategy::kDC, 4, 0x2eb245bb9d8ff0c0ull,
     0x8a06a22c301fa6d8ull},
    // Long single-platoon chains: n = 128 with a transit cap of 128, and
    // n = 256.
    {1, 128, Strategy::kDD, 5, 0x8578e2bea8f993b7ull,
     0x5f961d5cf497227dull},
    {1, 256, Strategy::kDD, 0, 0xe470b35d2a097ac8ull,
     0x55d456ca5892584full},
};

TEST(LumpedModel, GeneratorBitsArePinned) {
  for (std::size_t i = 0; i < std::size(kPinned); ++i) {
    const PinnedGenerator& g = kPinned[i];
    const Parameters p = pinned_params(g, static_cast<int>(i));
    const Parameters q = refill_params(p);
    ASSERT_EQ(p.structural_fingerprint(), q.structural_fingerprint()) << i;
    const LumpedModel explored(p);
    const LumpedModel refilled(q, explored.structure());
    EXPECT_EQ(generator_hash(explored), g.explored)
        << "config " << i << std::hex << " got 0x" << generator_hash(explored);
    EXPECT_EQ(generator_hash(refilled), g.refilled)
        << "config " << i << std::hex << " got 0x" << generator_hash(refilled);
  }
}

// ---- measured bias against the full SAN -----------------------------------

TEST(LumpedModel, BiasAgainstTheFullSanIsPinnedAtN1) {
  // Lumped S(t) over the exact full-SAN CTMC's S(t) at n = 1, both solved by
  // kStandard uniformization.  The ratio is the same at λ = 1e-3 and 1e-4
  // to three digits: the lumping bias is a fixed factor that does not vanish
  // at the paper's rates (EXPERIMENTS.md, "Cross-validation").
  struct PinnedRatio {
    bool all_modes;  ///< all six failure modes, else FM3 + FM6 only
    double lambda;
    double at_2h;
    double at_6h;
  };
  constexpr PinnedRatio kRatios[] = {
      {false, 1e-3, 0.9184990016, 0.9175039100},
      {false, 1e-4, 0.9187215805, 0.9177287912},
      {true, 1e-3, 0.8801974179, 0.8783230767},
      {true, 1e-4, 0.8806235458, 0.8787507286},
  };
  const std::vector<double> times = {2.0, 6.0};
  StudyOptions full_san;
  full_san.engine = Engine::kFullCtmc;
  full_san.solver = ctmc::TransientSolver::kStandard;
  for (const PinnedRatio& r : kRatios) {
    Parameters p = base(r.lambda, 1);
    if (!r.all_modes)
      p.failure_mode_enabled = {false, false, true, false, false, true};
    const UnsafetyCurve exact = unsafety_curve(p, times, full_san);
    const std::vector<double> lumped = LumpedModel(p).unsafety(times);
    const double pinned[] = {r.at_2h, r.at_6h};
    for (std::size_t i = 0; i < times.size(); ++i)
      EXPECT_NEAR(lumped[i] / exact.unsafety[i], pinned[i], 1e-6 * pinned[i])
          << (r.all_modes ? "all modes" : "FM3+FM6") << " lambda "
          << r.lambda << " t " << times[i];
  }
}

}  // namespace
