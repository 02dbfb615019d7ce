// Structure caches on the CTMC path: the lumped rate-term decomposition,
// the full-SAN exploration skeleton + rebuild_rates, and the StudyCache
// that shares both across sweep points.  The contract everywhere: a cache
// hit reproduces the cold build (to 1e-12 or exactly); a StudyCache hit's
// curve is bitwise the cold one, which a served worker evaluating a whole
// structure group through one cache relies on.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "ahs/lumped.h"
#include "ahs/study.h"
#include "ahs/system_model.h"
#include "ctmc/state_space.h"
#include "ctmc/uniformization.h"
#include "util/error.h"

namespace {

using namespace ahs;

Parameters lumped_params(double lambda) {
  Parameters p;
  p.max_per_platoon = 4;
  p.base_failure_rate = lambda;
  return p;
}

/// Small enough that the exact full-SAN chain stays tractable.
Parameters full_params(double lambda) {
  Parameters p;
  p.max_per_platoon = 1;
  p.base_failure_rate = lambda;
  p.failure_mode_enabled = {false, false, true, false, false, true};
  return p;
}

void expect_same_bits(const UnsafetyCurve& a, const UnsafetyCurve& b) {
  ASSERT_EQ(a.unsafety.size(), b.unsafety.size());
  for (std::size_t i = 0; i < a.unsafety.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.unsafety[i]),
              std::bit_cast<std::uint64_t>(b.unsafety[i]))
        << i << ": " << a.unsafety[i] << " vs " << b.unsafety[i];
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
}

TEST(StructureCache, FingerprintSeparatesStructure) {
  const Parameters a = lumped_params(1e-4);
  Parameters b = a;
  b.base_failure_rate = 1e-3;  // rate-only change
  EXPECT_EQ(a.structural_fingerprint(), b.structural_fingerprint());

  Parameters c = a;
  c.max_per_platoon = 5;
  EXPECT_NE(a.structural_fingerprint(), c.structural_fingerprint());
  Parameters d = a;
  d.strategy = Strategy::kCC;
  EXPECT_NE(a.structural_fingerprint(), d.structural_fingerprint());
  Parameters e = a;
  e.join_rate = 0.0;  // zero-pattern change prunes join edges
  EXPECT_NE(a.structural_fingerprint(), e.structural_fingerprint());
  Parameters f = a;
  f.q_intrinsic = 1.0;  // boundary prunes escalation edges
  EXPECT_NE(a.structural_fingerprint(), f.structural_fingerprint());
  Parameters g = a;
  g.q_intrinsic = 0.9;  // interior q move keeps the structure
  EXPECT_EQ(a.structural_fingerprint(), g.structural_fingerprint());
}

TEST(StructureCache, LumpedSharedStructureEqualsColdBuild) {
  const Parameters cold_p = lumped_params(1e-4);
  const auto structure = explore_lumped_structure(cold_p);

  for (double lambda : {1e-5, 1e-3}) {
    const Parameters p = lumped_params(lambda);
    const LumpedModel cold(p);
    const LumpedModel warm(p, structure);
    const std::vector<double> times = {2.0, 6.0, 10.0};
    const auto s_cold = cold.unsafety(times);
    const auto s_warm = warm.unsafety(times);
    for (std::size_t i = 0; i < times.size(); ++i)
      EXPECT_NEAR(s_cold[i], s_warm[i], 1e-12) << "lambda=" << lambda;
  }
}

TEST(StructureCache, LumpedRejectsFingerprintMismatch) {
  const auto structure = explore_lumped_structure(lumped_params(1e-4));
  Parameters other = lumped_params(1e-4);
  other.max_per_platoon = 5;
  EXPECT_THROW(LumpedModel(other, structure), util::PreconditionError);
}

TEST(StructureCache, RebuildRatesEqualsColdStateSpace) {
  // Explore once with the skeleton, rebuild at a different λ, and compare
  // against a cold exploration at that λ: same sparsity, equal rates.
  const san::FlatModel m1 = build_system_model(full_params(1e-3));
  ctmc::StateSpaceOptions opts;
  opts.capture_structure = true;
  opts.ignore_places = {"ext_id", "safe_exits", "ko_exits"};
  const ctmc::StateSpace cached = ctmc::build_state_space(m1, opts);
  ASSERT_NE(cached.skeleton, nullptr);
  EXPECT_FALSE(cached.skeleton->empty());

  const san::FlatModel m2 = build_system_model(full_params(5e-2));
  const ctmc::MarkovChain rebuilt = ctmc::rebuild_rates(m2, cached);

  ctmc::StateSpaceOptions cold_opts;
  cold_opts.ignore_places = opts.ignore_places;
  const ctmc::StateSpace cold = ctmc::build_state_space(m2, cold_opts);

  ASSERT_EQ(rebuilt.num_states, cold.chain.num_states);
  for (std::uint32_t s = 0; s < rebuilt.num_states; ++s) {
    EXPECT_NEAR(rebuilt.exit_rate[s], cold.chain.exit_rate[s], 1e-12);
    const auto rc = rebuilt.rates.row_cols(s);
    const auto cc = cold.chain.rates.row_cols(s);
    ASSERT_EQ(rc.size(), cc.size()) << "state " << s;
    const auto rv = rebuilt.rates.row_values(s);
    const auto cv = cold.chain.rates.row_values(s);
    for (std::size_t k = 0; k < rc.size(); ++k) {
      EXPECT_EQ(rc[k], cc[k]);
      EXPECT_NEAR(rv[k], cv[k], 1e-12);
    }
  }
}

TEST(StructureCache, RebuildRatesRequiresSkeleton) {
  const san::FlatModel m = build_system_model(full_params(1e-3));
  ctmc::StateSpaceOptions opts;  // capture_structure left off
  opts.ignore_places = {"ext_id", "safe_exits", "ko_exits"};
  const ctmc::StateSpace space = ctmc::build_state_space(m, opts);
  EXPECT_THROW(ctmc::rebuild_rates(m, space), util::PreconditionError);
}

TEST(StructureCache, StudyCacheFullEngineHitEqualsCold) {
  const std::vector<double> times = {1.0, 4.0};
  StudyOptions opts;
  opts.engine = Engine::kFullCtmc;

  StudyCache cache;
  bool hit = true;
  const UnsafetyCurve first =
      unsafety_curve(full_params(1e-3), times, opts, &cache, &hit);
  EXPECT_FALSE(hit);
  const UnsafetyCurve warm =
      unsafety_curve(full_params(5e-2), times, opts, &cache, &hit);
  EXPECT_TRUE(hit);
  const UnsafetyCurve cold = unsafety_curve(full_params(5e-2), times, opts);
  expect_same_bits(warm, cold);

  // A different q is a different full-SAN structure (q sits in the case
  // weights): must not hit.
  Parameters q = full_params(1e-3);
  q.q_intrinsic = 0.9;
  unsafety_curve(q, times, opts, &cache, &hit);
  EXPECT_FALSE(hit);
}

TEST(StructureCache, StudyCacheLumpedHitEqualsCold) {
  const std::vector<double> times = {2.0, 6.0};
  StudyOptions opts;

  StudyCache cache;
  bool hit = true;
  unsafety_curve(lumped_params(1e-4), times, opts, &cache, &hit);
  EXPECT_FALSE(hit);
  const UnsafetyCurve warm =
      unsafety_curve(lumped_params(1e-3), times, opts, &cache, &hit);
  EXPECT_TRUE(hit);
  const UnsafetyCurve cold = unsafety_curve(lumped_params(1e-3), times, opts);
  expect_same_bits(warm, cold);
}

}  // namespace
