// Structural-verification layer tests: exact P/T-semiflows on textbook
// nets, invariant-implied and declared place bounds (with the overflow /
// truncation guard degrading soundly), siphon / never-markable detection,
// absorbing-class certificates, the nested-Rep NET005 symmetry exemption,
// crash-buffered JSON output, and the AHS cross-checks the issue's
// acceptance criteria name: proved bounds cover probe maxima and exact
// state-space markings on every shipped configuration.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ahs/parameters.h"
#include "ahs/system_model.h"
#include "ctmc/state_space.h"
#include "san/analyze/analysis.h"
#include "san/analyze/graph.h"
#include "san/analyze/invariants.h"
#include "san/analyze/probe.h"
#include "san/analyze/structure.h"
#include "san/composition.h"
#include "util/error.h"
#include "util/json.h"

namespace {

using san::analyze::BoundProvenance;
using san::analyze::LintOptions;
using san::analyze::LintReport;
using san::analyze::StructuralFacts;

LintReport lint(const san::FlatModel& flat, std::size_t budget = 4096) {
  LintOptions opts;
  opts.probe_budget = budget;
  return san::analyze::run_lint(flat, "fixture", opts);
}

bool has_id(const LintReport& r, const std::string& id) {
  for (const auto& d : r.diagnostics)
    if (d.id == id) return true;
  return false;
}

/// Slot -> flat place name (replica suffix ignored) for bound filtering.
std::string place_of_slot(const san::FlatModel& flat, std::uint32_t slot) {
  for (const auto& p : flat.places())
    if (slot >= p.offset && slot < p.offset + p.size) return p.name;
  return "";
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// Textbook nets
// ---------------------------------------------------------------------------

// A 3-place token ring is the canonical conservative net: the single
// P-semiflow a+b+c = 1 bounds every place by 1, and firing the whole ring
// once is a T-semiflow.
TEST(Invariants, ConservativeRingSemiflowAndBounds) {
  auto m = std::make_shared<san::AtomicModel>("ring");
  const auto a = m->place("a", 1);
  const auto b = m->place("b");
  const auto c = m->place("c");
  m->timed_activity("t0")
      .distribution(util::Distribution::Exponential(1.0))
      .input_arc(a)
      .output_arc(b);
  m->timed_activity("t1")
      .distribution(util::Distribution::Exponential(1.0))
      .input_arc(b)
      .output_arc(c);
  m->timed_activity("t2")
      .distribution(util::Distribution::Exponential(1.0))
      .input_arc(c)
      .output_arc(a);
  const auto flat = san::flatten(m);
  const auto r = lint(flat);
  ASSERT_NE(r.facts, nullptr);
  const StructuralFacts& f = *r.facts;

  ASSERT_EQ(f.p_semiflows.size(), 1u);
  EXPECT_EQ(f.p_semiflows[0].terms.size(), 3u);
  for (const auto& [slot, coeff] : f.p_semiflows[0].terms)
    EXPECT_EQ(coeff, 1);
  EXPECT_EQ(f.p_semiflows[0].weighted_initial, 1);

  ASSERT_EQ(f.slot_bound.size(), 3u);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(f.slot_bound[s], 1u);
    EXPECT_EQ(f.provenance[s], BoundProvenance::kInvariant);
  }

  // Firing t0, t1, t2 once each returns the net to its start.
  ASSERT_EQ(f.t_semiflows.size(), 1u);
  EXPECT_EQ(f.t_semiflows[0].terms.size(), 3u);

  EXPECT_TRUE(has_id(r, "STRUCT005")) << r.to_text();
  EXPECT_FALSE(has_id(r, "NET003")) << r.to_text();
  EXPECT_EQ(r.errors(), 0u) << r.to_text();
}

// Weighted conservation: 2 tokens of `ore` make 1 `ingot`, so the
// invariant is ore + 2*ingot = 4 and the proved bounds are 4 and 2.
TEST(Invariants, WeightedSemiflowBounds) {
  auto m = std::make_shared<san::AtomicModel>("smelter");
  const auto ore = m->place("ore", 4);
  const auto ingot = m->place("ingot");
  m->timed_activity("smelt")
      .distribution(util::Distribution::Exponential(1.0))
      .input_arc(ore, 2)
      .output_arc(ingot);
  m->timed_activity("crush")
      .distribution(util::Distribution::Exponential(1.0))
      .input_arc(ingot)
      .output_arc(ore, 2);
  const auto flat = san::flatten(m);
  const auto r = lint(flat);
  ASSERT_NE(r.facts, nullptr);
  const StructuralFacts& f = *r.facts;
  const auto ore_s = flat.place_offset(flat.place_index("ore"));
  const auto ingot_s = flat.place_offset(flat.place_index("ingot"));
  EXPECT_EQ(f.slot_bound[ore_s], 4u);
  EXPECT_EQ(f.slot_bound[ingot_s], 2u);
  EXPECT_EQ(f.provenance[ore_s], BoundProvenance::kInvariant);
  EXPECT_EQ(f.provenance[ingot_s], BoundProvenance::kInvariant);
}

// A bare producer is *proved* unbounded: NET003 escalates from a warning
// to an error naming the witness activity.
TEST(Invariants, UnboundedProducerWitness) {
  auto m = std::make_shared<san::AtomicModel>("producer");
  const auto q = m->place("q");
  m->timed_activity("make")
      .distribution(util::Distribution::Exponential(1.0))
      .output_arc(q);
  const auto flat = san::flatten(m);
  const auto r = lint(flat);
  ASSERT_NE(r.facts, nullptr);
  const StructuralFacts& f = *r.facts;
  ASSERT_EQ(f.unbounded_witnesses.size(), 1u);
  EXPECT_EQ(f.provenance[f.unbounded_witnesses[0].first],
            BoundProvenance::kProvedUnbounded);
  EXPECT_TRUE(has_id(r, "NET003")) << r.to_text();
  EXPECT_GE(r.errors(), 1u) << r.to_text();
}

// A doubling chain forces P-semiflow coefficients 2^k; past 63 stages the
// combination overflows int64 even after gcd reduction.  The guard must
// drop it and raise semiflow_truncated (STRUCT006) — degrading to *fewer*
// proved bounds, never wrong ones.
TEST(Invariants, OverflowTruncationStaysSound) {
  constexpr int kStages = 80;
  auto m = std::make_shared<san::AtomicModel>("doubling");
  std::vector<san::PlaceToken> p;
  p.reserve(kStages + 1);
  for (int i = 0; i <= kStages; ++i)
    p.push_back(m->place("p" + std::to_string(i), i == 0 ? 3 : 0));
  for (int i = 0; i < kStages; ++i)
    m->timed_activity("t" + std::to_string(i))
        .distribution(util::Distribution::Exponential(1.0))
        .input_arc(p[static_cast<std::size_t>(i)], 2)
        .output_arc(p[static_cast<std::size_t>(i) + 1]);
  const auto flat = san::flatten(m);
  const auto r = lint(flat);
  ASSERT_NE(r.facts, nullptr);
  const StructuralFacts& f = *r.facts;
  EXPECT_TRUE(f.semiflow_truncated);
  EXPECT_TRUE(has_id(r, "STRUCT006")) << r.to_text();

  // Soundness: every bound the layer *did* prove covers the probe maxima.
  const auto probes =
      san::analyze::run_probe(flat, san::analyze::ProbeOptions{4096});
  for (std::uint32_t s = 0; s < flat.marking_size(); ++s) {
    if (f.slot_bound[s] == san::analyze::kUnbounded) continue;
    EXPECT_GE(f.slot_bound[s],
              static_cast<std::uint64_t>(probes.slot_max[s]))
        << "slot " << s;
  }
}

// An empty siphon stays empty: a place with no producer that gates the
// rest of the net renders it dead (STRUCT003).
TEST(Invariants, SiphonNeverMarkable) {
  auto m = std::make_shared<san::AtomicModel>("siphon");
  const auto key = m->place("key");  // never marked
  const auto door = m->place("door");
  m->timed_activity("open")
      .distribution(util::Distribution::Exponential(1.0))
      .input_arc(key)
      .output_arc(door);
  const auto flat = san::flatten(m);
  const auto r = lint(flat);
  ASSERT_NE(r.facts, nullptr);
  const auto key_s = flat.place_offset(flat.place_index("key"));
  const auto door_s = flat.place_offset(flat.place_index("door"));
  const auto& nm = r.facts->never_markable_slots;
  EXPECT_NE(std::find(nm.begin(), nm.end(), key_s), nm.end());
  EXPECT_NE(std::find(nm.begin(), nm.end(), door_s), nm.end());
  EXPECT_TRUE(has_id(r, "STRUCT003")) << r.to_text();
}

// ---------------------------------------------------------------------------
// Absorbing-class certificates
// ---------------------------------------------------------------------------

// A declared absorbing marker that only arcs feed and nothing consumes is
// certified structurally, with reachability witnessed by the probe.
TEST(Invariants, AbsorbingChainCertified) {
  auto m = std::make_shared<san::AtomicModel>("chain");
  const auto run = m->place("run", 1);
  const auto done = m->place("done");
  m->timed_activity("finish")
      .distribution(util::Distribution::Exponential(1.0))
      .input_arc(run)
      .output_arc(done);
  m->capacity(done, 1).absorbing(done);
  const auto flat = san::flatten(m);
  const auto r = lint(flat);
  ASSERT_NE(r.facts, nullptr);
  ASSERT_EQ(r.facts->absorbing.size(), 1u);
  const auto& fact = r.facts->absorbing[0];
  EXPECT_TRUE(fact.certified) << fact.detail;
  EXPECT_EQ(fact.reach, san::analyze::AbsorbingFact::Reach::kWitnessed)
      << fact.detail;
  EXPECT_EQ(r.errors(), 0u) << r.to_text();
}

// An exact transition consuming the marker refutes the declaration: the
// certificate is withheld and the probe's observed decrease is STRUCT004.
TEST(Invariants, AbsorbingRefutedByConsumer) {
  auto m = std::make_shared<san::AtomicModel>("reset");
  const auto run = m->place("run", 1);
  const auto done = m->place("done");
  m->timed_activity("finish")
      .distribution(util::Distribution::Exponential(1.0))
      .input_arc(run)
      .output_arc(done);
  m->timed_activity("restart")
      .distribution(util::Distribution::Exponential(1.0))
      .input_arc(done)
      .output_arc(run);
  m->absorbing(done);
  const auto flat = san::flatten(m);
  const auto r = lint(flat);
  ASSERT_NE(r.facts, nullptr);
  ASSERT_EQ(r.facts->absorbing.size(), 1u);
  EXPECT_FALSE(r.facts->absorbing[0].certified);
  EXPECT_TRUE(has_id(r, "STRUCT004")) << r.to_text();
  EXPECT_GE(r.errors(), 1u);
}

// ---------------------------------------------------------------------------
// Checked capacity declarations
// ---------------------------------------------------------------------------

// A capacity the reachable behaviour exceeds is refuted empirically by the
// probe (STRUCT002) and exactly by state-space generation (ModelError) —
// declarations are verified, never trusted.
TEST(Invariants, CapacityRefutedByProbeAndStateSpace) {
  auto m = std::make_shared<san::AtomicModel>("overfull");
  const auto src = m->place("src", 2);
  const auto dst = m->place("dst");
  m->timed_activity("move")
      .distribution(util::Distribution::Exponential(1.0))
      .input_arc(src)
      .output_arc(dst);
  m->capacity(dst, 1);  // wrong: dst reaches 2
  const auto flat = san::flatten(m);
  const auto r = lint(flat);
  EXPECT_TRUE(has_id(r, "STRUCT002")) << r.to_text();
  EXPECT_GE(r.errors(), 1u);
  EXPECT_THROW(ctmc::build_state_space(flat), util::ModelError);
}

// A correct declaration on a gate-opaque place is accepted and becomes the
// proved bound (provenance kDeclared) where no semiflow reaches.
TEST(Invariants, DeclaredCapacityBecomesBound) {
  auto m = std::make_shared<san::AtomicModel>("gated");
  const auto flag = m->place("flag");
  m->timed_activity("toggle")
      .distribution(util::Distribution::Exponential(1.0))
      .reads({flag})
      .writes({flag})
      .input_gate([flag](const san::MarkingRef&) { return true; },
                  [flag](const san::MarkingRef& mr) {
                    mr.set(flag, 1 - mr.get(flag));
                  });
  m->capacity(flag, 1);
  const auto flat = san::flatten(m);
  const auto r = lint(flat);
  ASSERT_NE(r.facts, nullptr);
  const auto s = flat.place_offset(flat.place_index("flag"));
  EXPECT_EQ(r.facts->slot_bound[s], 1u);
  EXPECT_EQ(r.facts->provenance[s], BoundProvenance::kDeclared);
  EXPECT_EQ(r.errors(), 0u) << r.to_text();
}

// ---------------------------------------------------------------------------
// NET005 Rep-symmetry exemption — nested Rep under the full instance path
// ---------------------------------------------------------------------------

std::shared_ptr<san::AtomicModel> gate_writer(const std::string& act) {
  auto m = std::make_shared<san::AtomicModel>("leaf");
  const auto sh = m->place("sh");
  m->instant_activity(act)
      .priority(3)
      .reads({sh})
      .writes({sh})
      .input_gate([sh](const san::MarkingRef&) { return false; },
                  [sh](const san::MarkingRef& mr) { mr.set(sh, 1); });
  return m;
}

TEST(AnalyzeNet005, NestedRepSymmetryExempt) {
  // Rep(Rep(leaf)): all four instances of `w` are replica positions of the
  // same leaf activity — the full-path normalization must exempt them even
  // though the outer Rep nests another Rep rather than a leaf.
  const auto comp = san::Rep(
      "outer", san::Rep("inner", san::Leaf(gate_writer("w")), 2, {"sh"}), 2,
      {"sh"});
  const auto r = lint(san::flatten(comp));
  EXPECT_FALSE(has_id(r, "NET005")) << r.to_text();
}

TEST(AnalyzeNet005, DistinctLeavesStillFlagged) {
  // Two *different* leaf activities writing the shared place at equal
  // priority are a real ordering hazard, not Rep symmetry.
  const auto comp =
      san::Join("sys",
                {san::Leaf(gate_writer("w1")), san::Leaf(gate_writer("w2"))},
                {"sh"});
  const auto r = lint(san::flatten(comp));
  EXPECT_TRUE(has_id(r, "NET005")) << r.to_text();
}

// ---------------------------------------------------------------------------
// Crash-buffered batch output
// ---------------------------------------------------------------------------

// run_lint_guarded turns an analyzer crash into a LINT001 finding on a
// partial report, so the batch JSON document stays well-formed — verified
// with the strict util::parse_json reader, not a substring check.
TEST(LintJson, CrashBufferedReportStaysParseable) {
  auto m = std::make_shared<san::AtomicModel>("ok");
  const auto p = m->place("p", 1);
  m->timed_activity("t")
      .distribution(util::Distribution::Exponential(1.0))
      .input_arc(p)
      .output_arc(p);
  const auto flat = san::flatten(m);

  LintOptions bad;
  bad.disabled_ids = {"NOSUCH999"};  // rejected inside the pipeline
  std::vector<LintReport> reports;
  reports.push_back(san::analyze::run_lint_guarded(flat, "crashed", bad));
  reports.push_back(san::analyze::run_lint(flat, "clean", LintOptions{}));
  ASSERT_TRUE(has_id(reports[0], "LINT001")) << reports[0].to_text();
  EXPECT_GE(reports[0].errors(), 1u);

  const std::string doc = san::analyze::lint_json_document(reports);
  const util::JsonValue root = util::parse_json(doc);  // throws if torn
  EXPECT_EQ(root.string_at("schema"), "ahs.lint.v1");
  const util::JsonValue* models = root.find("reports");
  ASSERT_NE(models, nullptr);
  ASSERT_EQ(models->array.size(), 2u);
  bool found = false;
  const util::JsonValue* diags = models->array[0].find("diagnostics");
  ASSERT_NE(diags, nullptr);
  for (const auto& d : diags->array)
    found = found || d.string_at("id") == "LINT001";
  EXPECT_TRUE(found) << doc;
}

// ---------------------------------------------------------------------------
// AHS cross-checks (the issue's acceptance criteria)
// ---------------------------------------------------------------------------

std::vector<ahs::Parameters> all_shipped_configs() {
  std::vector<ahs::Parameters> out;
  for (const ahs::Strategy s : ahs::kAllStrategies)
    for (const int n : {2, 5, 10})
      for (const double join : {6.0, 12.0, 24.0}) {
        ahs::Parameters p;
        p.strategy = s;
        p.max_per_platoon = n;
        p.join_rate = join;
        out.push_back(p);
      }
  return out;
}

// Pure statistics counters: genuinely unbounded, projected out of CTMC
// generation (StateSpaceOptions::ignore_places); everything else must
// carry a proved bound.
bool is_stats_counter(const std::string& place) {
  return ends_with(place, "safe_exits") || ends_with(place, "ko_exits") ||
         ends_with(place, "ext_id");
}

// Every place of every shipped configuration gets an invariant-proved (or
// checked-declared) bound, and every proved bound covers the probe's
// observed maxima.  This is the empirical half of "facts agree with
// ctmc/state_space"; the exact half runs below and in the generator
// itself, which validates declared capacities on every interned marking.
TEST(InvariantsAhs, BoundsProvedAndCoverProbeMaxima) {
  for (const ahs::Parameters& params : all_shipped_configs()) {
    const san::FlatModel flat = ahs::build_system_model(params);
    const auto r = lint(flat, 1024);
    ASSERT_NE(r.facts, nullptr);
    const StructuralFacts& f = *r.facts;
    const auto probes =
        san::analyze::run_probe(flat, san::analyze::ProbeOptions{1024});
    const std::string label = std::string("strategy ") +
                              ahs::to_string(params.strategy) +
                              " n=" + std::to_string(params.max_per_platoon);
    EXPECT_EQ(r.errors(), 0u) << label << "\n" << r.to_text();
    EXPECT_EQ(r.warnings(), 0u) << label << "\n" << r.to_text();
    for (std::uint32_t s = 0; s < flat.marking_size(); ++s) {
      const std::string place = place_of_slot(flat, s);
      if (is_stats_counter(place)) continue;
      ASSERT_NE(f.slot_bound[s], san::analyze::kUnbounded)
          << label << ": no proved bound for " << place;
      EXPECT_GE(f.slot_bound[s],
                static_cast<std::uint64_t>(probes.slot_max[s]))
          << label << ": bound refuted at " << place;
    }
  }
}

// The KO_total absorbing-class certificate must be issued on every platoon
// size the paper sweeps: once the catastrophic marking is entered it is
// never left (the unsafety measure is a cumulative probability).
TEST(InvariantsAhs, AbsorbingClassCertified) {
  for (const int n : {2, 5, 10}) {
    ahs::Parameters params;
    params.max_per_platoon = n;
    const san::FlatModel flat = ahs::build_system_model(params);
    const auto r = lint(flat, 1024);
    ASSERT_NE(r.facts, nullptr);
    bool seen = false;
    for (const auto& fact : r.facts->absorbing) {
      if (!ends_with(flat.places()[fact.place].name, "KO_total")) continue;
      seen = true;
      EXPECT_TRUE(fact.certified) << "n=" << n << ": " << fact.detail;
      EXPECT_NE(fact.reach, san::analyze::AbsorbingFact::Reach::kRefuted)
          << "n=" << n << ": " << fact.detail;
    }
    EXPECT_TRUE(seen) << "n=" << n << ": no KO_total absorbing fact";
  }
}

// Exact agreement: every marking the full CTMC state space interns (the
// paper's smallest configuration) respects the proved bounds.  The
// generator additionally validates declared capacities on every marking
// internally; this asserts the facts end-to-end from the outside.
TEST(InvariantsAhs, StateSpaceMarkingsWithinProvedBounds) {
  ahs::Parameters params;
  params.max_per_platoon = 2;
  params.num_platoons = 1;  // smallest exactly-solvable configuration
  const san::FlatModel flat = ahs::build_system_model(params);
  const auto r = lint(flat, 1024);
  ASSERT_NE(r.facts, nullptr);
  const StructuralFacts& f = *r.facts;

  const auto ko_slot = flat.place_offset(flat.place_index("KO_total"));
  ctmc::StateSpaceOptions opts;
  opts.absorbing = [ko_slot](std::span<const std::int32_t> m) {
    return m[ko_slot] > 0;
  };
  opts.ignore_places = {"ext_id", "safe_exits", "ko_exits"};
  const auto space = ctmc::build_state_space(flat, opts);
  ASSERT_GT(space.chain.num_states, 1u);
  for (const auto& st : space.states)
    for (std::uint32_t s = 0; s < flat.marking_size(); ++s) {
      if (f.slot_bound[s] == san::analyze::kUnbounded) continue;
      ASSERT_LE(static_cast<std::uint64_t>(st[s]), f.slot_bound[s])
          << "state marking exceeds proved bound at "
          << place_of_slot(flat, s);
    }
}

}  // namespace
