#include "ahs/lumped.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "ctmc/stationary.h"
#include "ctmc/uniformization.h"
#include "util/error.h"
#include "util/spans.h"

namespace ahs {

SeverityCounts LumpedState::severity() const {
  SeverityCounts s;
  for (std::size_t k = 0; k < kNumManeuvers; ++k) {
    switch (maneuver_class(static_cast<Maneuver>(k))) {
      case SeverityClass::kA: s.a += maneuvers[k]; break;
      case SeverityClass::kB: s.b += maneuvers[k]; break;
      case SeverityClass::kC: s.c += maneuvers[k]; break;
    }
  }
  return s;
}

std::array<double, LumpedStructure::kNumFactors>
LumpedStructure::factor_values(const Parameters& params) {
  std::array<double, kNumFactors> v{};
  for (FailureMode fm : kAllFailureModes)
    v[kFailureRate + static_cast<std::size_t>(fm)] = params.failure_rate(fm);
  for (std::size_t k = 0; k < kNumManeuvers; ++k) {
    v[kManeuverRate + k] = params.maneuver_rates[k];
    v[kManeuverRateQ + k] = params.maneuver_rates[k] * params.q_intrinsic;
  }
  v[kLeaveRate] = params.leave_rate;
  v[kTransitRate] = params.transit_rate;
  v[kChangeRate] = params.change_rate;
  v[kJoinRate] = params.join_rate;
  return v;
}

namespace {

using FactorValues = std::array<double, LumpedStructure::kNumFactors>;

/// A transition rate as a sum of at most two (coefficient × factor) terms
/// (maneuver-failure edges are count·μ − count·avail·μ·q; everything else
/// is a single term).
struct RateExpr {
  std::array<double, 2> coeff{};
  std::array<std::uint8_t, 2> factor{};
  int count = 0;

  static RateExpr single(std::size_t factor, double coeff) {
    RateExpr e;
    e.coeff[0] = coeff;
    e.factor[0] = static_cast<std::uint8_t>(factor);
    e.count = 1;
    return e;
  }

  RateExpr scaled(double s) const {
    RateExpr e = *this;
    for (int i = 0; i < e.count; ++i) e.coeff[i] *= s;
    return e;
  }

  double value(const FactorValues& fv) const {
    double v = 0.0;
    for (int i = 0; i < count; ++i) v += coeff[i] * fv[factor[i]];
    return v;
  }
};

/// Open-addressing (linear probing) index of the explored states: a slot
/// holds a state's index in `states`, 4 bytes a slot.
class StateIndex {
 public:
  explicit StateIndex(std::vector<LumpedState>& states) : states_(states) {
    rehash(1024);
  }

  /// The index of `s`; a new state is appended to `states`.
  std::uint32_t intern(const LumpedState& s) {
    std::size_t i = hash(s) >> shift_;
    for (; slots_[i] != kEmpty; i = (i + 1) & (slots_.size() - 1))
      if (states_[slots_[i]] == s) return slots_[i];
    AHS_REQUIRE(states_.size() < kEmpty, "lumped state space too large");
    const auto id = static_cast<std::uint32_t>(states_.size());
    slots_[i] = id;
    states_.push_back(s);
    if (2 * states_.size() > slots_.size()) rehash(2 * slots_.size());
    return id;
  }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  static std::uint64_t hash(const LumpedState& s) {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](int x) {
      h = (h ^ static_cast<unsigned>(x)) * 1099511628211ull;
    };
    for (int x : s.lanes) mix(x);
    mix(s.nt);
    for (int m : s.maneuvers) mix(m);
    return h * 0x9e3779b97f4a7c15ull;  // the slot is taken from the top bits
  }

  void rehash(std::size_t size) {
    slots_.assign(size, kEmpty);
    shift_ = 64 - std::countr_zero(size);
    for (std::uint32_t id = 0; id < states_.size(); ++id) {
      std::size_t i = hash(states_[id]) >> shift_;
      while (slots_[i] != kEmpty) i = (i + 1) & (size - 1);
      slots_[i] = id;
    }
  }

  std::vector<LumpedState>& states_;
  std::vector<std::uint32_t> slots_;
  int shift_ = 0;
};

}  // namespace

LumpedModel::LumpedModel(Parameters params) : params_(std::move(params)) {
  params_.validate();
  AHS_REQUIRE(
      params_.maneuver_time_model == ManeuverTimeModel::kExponential,
      "the lumped CTMC requires exponential maneuver times; use a "
      "simulation engine for other distributions");
  AHS_REQUIRE(params_.adjacency_radius == 0,
              "the count-lumped model has no vehicle positions; use a "
              "full-SAN engine for adjacency-scoped severity");
}

LumpedModel::LumpedModel(Parameters params,
                         std::shared_ptr<const LumpedStructure> structure)
    : LumpedModel(std::move(params)) {
  if (structure != nullptr) {
    AHS_REQUIRE(structure->fingerprint == params_.structural_fingerprint(),
                "cached LumpedStructure does not match these parameters "
                "(different structural fingerprint)");
    structure_ = std::move(structure);
  }
}

std::shared_ptr<const LumpedStructure> explore_lumped_structure(
    const Parameters& params) {
  AHS_SPAN("lumped.explore");
  params.validate();
  const int n = params.max_per_platoon;
  const int num_lanes = params.num_platoons;
  const int capacity = params.capacity();
  const FactorValues fv = LumpedStructure::factor_values(params);

  // Each stage's expected assistant count, taken at the average platoon
  // size, by platoon-vehicle count (assistant_count walks every position).
  const CoordinationPolicy policy(params.strategy);
  std::vector<double> need(kNumManeuvers * (capacity + 1));
  for (std::size_t k = 0; k < kNumManeuvers; ++k)
    for (int pv = 0; pv <= capacity; ++pv)
      need[k * (capacity + 1) + pv] = policy.assistant_count(
          static_cast<Maneuver>(k),
          std::max(1.0, static_cast<double>(pv) / num_lanes));

  auto structure = std::make_shared<LumpedStructure>();
  LumpedStructure& st = *structure;
  st.fingerprint = params.structural_fingerprint();
  std::vector<LumpedState>& states = st.states;
  StateIndex index(states);

  LumpedState init;
  for (int l = 0; l < num_lanes; ++l) init.lanes[l] = n;
  st.initial_state = index.intern(init);

  // The rate terms in generation order, and keys[t] = entry rank << 32 | t
  // with the generator entry that term t sums into.
  std::vector<std::uint64_t> keys;
  std::vector<double> coeff;
  std::vector<std::uint8_t> factor;
  // The current row's term targets, and (target << 32 | term) scratch.
  std::vector<std::uint32_t> row_to;
  std::vector<std::uint64_t> row_sorted;

  // The absorbing UNSAFE state is appended after exploration; edges into it
  // carry a sentinel (which sorts last within its row) until then.
  constexpr std::uint32_t kUnsafeSentinel = UINT32_MAX;

  // Adds an edge, routing catastrophic targets to the sentinel.  The edge
  // is pruned when its rate under the exploring parameters is <= 0; every
  // guard below depends only on quantities pinned by the structural
  // fingerprint, so the same decision is reached for any parameter set the
  // structure is later reused for.
  const auto add_edge = [&](const LumpedState& to, const RateExpr& expr) {
    if (expr.value(fv) <= 0.0) return;
    const std::uint32_t target =
        is_catastrophic(to.severity()) ? kUnsafeSentinel : index.intern(to);
    for (int i = 0; i < expr.count; ++i) {
      row_to.push_back(target);
      coeff.push_back(expr.coeff[i]);
      factor.push_back(expr.factor[i]);
    }
  };

  // Decrements the population holding a departing vehicle proportionally
  // across lanes and transit.
  const auto add_departures = [&](const LumpedState& base,
                                  const RateExpr& total_rate) {
    const int nv = base.vehicles();
    if (nv <= 0) return;
    for (int l = 0; l < num_lanes; ++l) {
      if (base.lanes[l] == 0) continue;
      LumpedState next = base;
      --next.lanes[l];
      add_edge(next,
               total_rate.scaled(static_cast<double>(base.lanes[l]) / nv));
    }
    if (base.nt > 0) {
      LumpedState next = base;
      --next.nt;
      add_edge(next, total_rate.scaled(static_cast<double>(base.nt) / nv));
    }
  };

  // Closes a row: its distinct targets, in column order, become the row's
  // pattern entries, and each term's key records the entry it sums into.
  const auto close_row = [&] {
    const std::size_t first = keys.size();
    keys.resize(first + row_to.size());
    row_sorted.clear();
    for (std::size_t i = 0; i < row_to.size(); ++i)
      row_sorted.push_back(static_cast<std::uint64_t>(row_to[i]) << 32 | i);
    std::sort(row_sorted.begin(), row_sorted.end());
    for (std::size_t i = 0; i < row_sorted.size(); ++i) {
      const auto to = static_cast<std::uint32_t>(row_sorted[i] >> 32);
      if (i == 0 || to != st.cols.back()) st.cols.push_back(to);
      const std::uint64_t term = first + (row_sorted[i] & 0xffffffffu);
      keys[term] = (st.cols.size() - 1) << 32 | term;
    }
    row_to.clear();
  };

  // Breadth-first: states are expanded in index order, so row r of the
  // pattern is state r's, and each state's terms are contiguous.
  for (std::uint32_t sid = 0; sid < states.size(); ++sid) {
    st.row_ptr.push_back(st.cols.size());
    const LumpedState s = states[sid];

    const int nv = s.vehicles();
    const int healthy = s.healthy();
    AHS_ASSERT(healthy >= 0, "negative healthy-vehicle count");

    // --- Failure-mode arrivals (per healthy vehicle).
    if (healthy > 0) {
      for (FailureMode fm : kAllFailureModes) {
        if (!params.enabled(fm)) continue;
        LumpedState next = s;
        ++next.maneuvers[stage(maneuver_for(fm))];
        add_edge(next, RateExpr::single(LumpedStructure::kFailureRate +
                                            static_cast<std::size_t>(fm),
                                        healthy));
      }
    }

    // --- Maneuver completions.
    // Success requires every assistant healthy; the availability of k
    // assistants among the other nv−1 vehicles, of which `healthy` are
    // healthy, is approximated by (healthy/(nv−1))^k (exchangeability).
    const int pv = s.platoon_vehicles();
    for (std::size_t k = 0; k < kNumManeuvers; ++k) {
      if (s.maneuvers[k] == 0) continue;
      const auto m = static_cast<Maneuver>(k);
      const double count = s.maneuvers[k];
      const double need_k = need[k * (capacity + 1) + pv];
      double avail = 1.0;
      // A TIE-E escort needs a neighbouring platoon; a single-lane AHS has
      // none (the full model's escort_lane returns -1 there).
      if (m == Maneuver::kTakeImmediateExitEscorted && num_lanes < 2)
        avail = 0.0;
      if (avail > 0.0 && need_k > 0.0) {
        if (nv <= 1) {
          avail = 0.0;
        } else {
          const double frac =
              std::min(1.0, static_cast<double>(healthy) /
                                static_cast<double>(nv - 1));
          avail = std::pow(frac, need_k);
        }
      }

      // Success (rate count·μ·q, q = q_intrinsic·avail): the vehicle exits
      // the highway; its platoon membership is resolved proportionally.
      LumpedState done = s;
      --done.maneuvers[k];
      add_departures(done, RateExpr::single(LumpedStructure::kManeuverRateQ + k,
                                            count * avail));

      // Failure (rate count·μ·(1 − q) = count·μ − count·avail·μ·q_i):
      // escalate to the next stage, or leave as a free agent after a failed
      // Aided Stop (v_KO — the vehicle is lost to the platoons but the
      // event itself is not catastrophic).
      RateExpr fail =
          RateExpr::single(LumpedStructure::kManeuverRate + k, count);
      fail.coeff[1] = -count * avail;
      fail.factor[1] =
          static_cast<std::uint8_t>(LumpedStructure::kManeuverRateQ + k);
      fail.count = 2;
      Maneuver next_m;
      if (next_maneuver(m, next_m)) {
        LumpedState next = done;
        ++next.maneuvers[stage(next_m)];
        add_edge(next, fail);
      } else {
        add_departures(done, fail);
      }
    }

    // --- Voluntary leaves (healthy vehicles only).  Lane 0 exits
    // directly; other lanes transit through the exit lane first, up to the
    // truncation cap (see Parameters::max_transit).
    if (healthy > 0) {
      for (int l = 0; l < num_lanes; ++l) {
        if (s.lanes[l] == 0) continue;
        LumpedState next = s;
        --next.lanes[l];
        if (l > 0 && s.nt < std::min(params.max_transit, capacity)) ++next.nt;
        add_edge(next, RateExpr::single(LumpedStructure::kLeaveRate, 1.0));
      }
    }

    // --- Transit completion (healthy transit vehicles only — a transiting
    // vehicle that failed stays until its maneuver resolves, as in the full
    // model's exit_transit gate).
    if (s.nt > 0 && healthy > 0) {
      LumpedState next = s;
      --next.nt;
      add_edge(next, RateExpr::single(LumpedStructure::kTransitRate,
                                      std::min(s.nt, healthy)));
    }

    // --- Platoon changes between adjacent lanes.
    if (healthy > 0) {
      for (int l = 0; l < num_lanes; ++l) {
        for (int delta : {-1, 1}) {
          const int target = l + delta;
          if (target < 0 || target >= num_lanes) continue;
          if (s.lanes[l] == 0 || s.lanes[target] >= n) continue;
          LumpedState next = s;
          --next.lanes[l];
          ++next.lanes[target];
          add_edge(next, RateExpr::single(LumpedStructure::kChangeRate, 1.0));
        }
      }
    }

    // --- Joins: rate join_rate per free slot (infinite-server semantics,
    // see Parameters::join_rate); the paper's JP splits uniformly between
    // platoons with room.
    if (nv < capacity) {
      int rooms = 0;
      for (int l = 0; l < num_lanes; ++l)
        if (s.lanes[l] < n) ++rooms;
      if (rooms > 0) {
        const double per_room = static_cast<double>(capacity - nv) / rooms;
        for (int l = 0; l < num_lanes; ++l) {
          if (s.lanes[l] >= n) continue;
          LumpedState next = s;
          ++next.lanes[l];
          add_edge(next,
                   RateExpr::single(LumpedStructure::kJoinRate, per_room));
        }
      }
    }
    close_row();
  }
  AHS_REQUIRE(coeff.size() <= UINT32_MAX,
              "lumped model has too many rate terms");

  // UNSAFE is the last state, with an empty row.
  st.unsafe = static_cast<std::uint32_t>(states.size());
  st.row_ptr.push_back(st.cols.size());
  st.row_ptr.push_back(st.cols.size());
  for (std::uint32_t& c : st.cols)
    if (c == kUnsafeSentinel) c = st.unsafe;
  states.shrink_to_fit();
  st.row_ptr.shrink_to_fit();
  st.cols.shrink_to_fit();

  // Each entry's value bits depend on the order in which its terms are
  // summed, and that order is pinned (LumpedModel.GeneratorBitsArePinned):
  // it is where two unstable std::sort passes by (row, column) leave the
  // generation-ordered terms, one over the terms and one as
  // CsrMatrix::from_triplets sums duplicates.  std::sort's moves depend
  // only on the outcomes of its comparisons, and comparing entry ranks
  // gives the outcomes comparing (row, column) gives, so sorting the keys
  // by rank twice records that order rather than re-deriving it.
  const auto by_entry = [](std::uint64_t a, std::uint64_t b) {
    return (a >> 32) < (b >> 32);
  };
  std::sort(keys.begin(), keys.end(), by_entry);
  std::sort(keys.begin(), keys.end(), by_entry);

  // The final arrays, each generation array freed as soon as it is read.
  const std::size_t count = keys.size();
  st.terms.coeff.resize(count);
  for (std::size_t i = 0; i < count; ++i)
    st.terms.coeff[i] = coeff[keys[i] & 0xffffffffu];
  std::vector<double>().swap(coeff);
  st.terms.code.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const bool last = i + 1 == count || (keys[i + 1] >> 32) != (keys[i] >> 32);
    st.terms.code[i] = factor[keys[i] & 0xffffffffu] |
                       (last ? LumpedStructure::kEndOfEntry : 0);
  }
  return structure;
}

void LumpedModel::build() const {
  if (built_) return;
  if (structure_ == nullptr) structure_ = explore_lumped_structure(params_);
  AHS_SPAN("lumped.rebuild");
  const LumpedStructure& st = *structure_;
  const auto factor = LumpedStructure::factor_values(params_);
  const auto total = static_cast<std::uint32_t>(st.states.size() + 1);

  // One pass over the terms in storage order: each entry sums its terms,
  // each row sums its entries.
  std::vector<double> values(st.cols.size());
  chain_.exit_rate.resize(total);
  std::size_t t = 0;
  for (std::uint32_t r = 0; r < total; ++r) {
    double exit = 0.0;
    for (std::size_t k = st.row_ptr[r]; k < st.row_ptr[r + 1]; ++k) {
      double v = 0.0;
      std::uint8_t code = 0;
      do {
        code = st.terms.code[t];
        v += st.terms.coeff[t] * factor[code & ~LumpedStructure::kEndOfEntry];
        ++t;
      } while ((code & LumpedStructure::kEndOfEntry) == 0);
      values[k] = v;
      exit += v;
    }
    chain_.exit_rate[r] = exit;
  }

  chain_.num_states = total;
  chain_.rates = ctmc::CsrMatrix::from_csr(total, total, st.row_ptr, st.cols,
                                           std::move(values));
  chain_.initial.assign(total, 0.0);
  chain_.initial[st.initial_state] = 1.0;
  chain_.validate();
  built_ = true;
}

std::size_t LumpedModel::num_states() const {
  build();
  return chain_.num_states;
}

std::uint32_t LumpedModel::unsafe_state() const {
  build();
  return structure_->unsafe;
}

const ctmc::MarkovChain& LumpedModel::chain() const {
  build();
  return chain_;
}

std::shared_ptr<const LumpedStructure> LumpedModel::structure() const {
  build();
  return structure_;
}

const LumpedState& LumpedModel::state(std::uint32_t s) const {
  build();
  AHS_REQUIRE(s < structure_->states.size(),
              "state index out of range (or UNSAFE)");
  return structure_->states[s];
}

std::vector<double> LumpedModel::unsafety(
    std::span<const double> times) const {
  return unsafety(times, ctmc::UniformizationOptions{}, nullptr);
}

std::vector<double> LumpedModel::unsafety(
    std::span<const double> times, const ctmc::UniformizationOptions& base,
    std::uint64_t* iterations) const {
  build();
  std::vector<double> reward(chain_.num_states, 0.0);
  reward[structure_->unsafe] = 1.0;
  ctmc::UniformizationOptions opts = base;
  opts.epsilon = 1e-14;
  const auto sol = ctmc::solve_transient(chain_, reward, times, opts);
  if (iterations != nullptr) *iterations += sol.total_iterations;
  return sol.expected_reward;
}

double LumpedModel::mean_time_to_unsafe() const {
  build();
  // At realistic failure rates absorption takes ~1e6..1e9 hours while the
  // safe dynamics mix within hours, so the time to UNSAFE is asymptotically
  // Exponential(κ) with κ the quasi-stationary absorption hazard.
  std::vector<bool> absorbing(chain_.num_states, false);
  absorbing[structure_->unsafe] = true;
  const auto res = ctmc::quasi_stationary_absorption(chain_, absorbing);
  AHS_ASSERT(res.absorption_rate > 0.0, "absorption rate must be positive");
  return 1.0 / res.absorption_rate;
}

double LumpedModel::expected_maneuver_hours(double t) const {
  build();
  const std::vector<LumpedState>& states = structure_->states;
  std::vector<double> reward(chain_.num_states, 0.0);
  for (std::size_t i = 0; i < states.size(); ++i)
    reward[i] = states[i].maneuvering();
  const std::vector<double> times = {t};
  const auto sol = ctmc::solve_accumulated(chain_, reward, times);
  return sol.accumulated[0];
}

std::vector<double> LumpedModel::expected_vehicles(
    std::span<const double> times) const {
  build();
  const std::vector<LumpedState>& states = structure_->states;
  std::vector<double> reward(chain_.num_states, 0.0);
  for (std::size_t i = 0; i < states.size(); ++i)
    reward[i] = states[i].vehicles();
  const auto sol = ctmc::solve_transient(chain_, reward, times);
  return sol.expected_reward;
}

}  // namespace ahs
