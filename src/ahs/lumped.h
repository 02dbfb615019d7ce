// Exchangeability-lumped CTMC of the multi-platoon AHS.
//
// The full SAN model (system_model.h) replicates one submodel per vehicle;
// since the replicas are identical and every gate is symmetric under
// vehicle permutation, the process lumps onto counts:
//
//   state = (lanes[0..L-1], nt, m[0..5])
//     lanes[l] : vehicles in platoon l                     (0..n each)
//     nt       : vehicles in exit transit (lanes >= 1 leave through the
//                exit lane, §4.1)                          (0..max_transit)
//     m[k]     : vehicles currently executing maneuver stage k
//                (stage order TIE-N, TIE, TIE-E, GS, CS, AS)
//
// plus one absorbing UNSAFE state entered the instant the severity profile
// (#class-A, #class-B, #class-C of ongoing maneuvers) satisfies Table 2.
// S(t) is the transient probability of UNSAFE, solved by uniformization.
//
// Approximations relative to the full SAN:
//   * a maneuvering vehicle's platoon is not tracked — departures and
//     assistant availability use proportional/average occupancy;
//   * simultaneous multiple failure modes in one vehicle are not merged;
//   * voluntary leaves/changes pick any vehicle while some platoon vehicle
//     is healthy, rather than a healthy one specifically.
// Together they bias S(t) by a factor that does not shrink with λ.  Against
// the exact full-SAN CTMC, lumped / full at S(2 h) and S(6 h) is
// 0.9153–0.9187 at n = 1 with FM3 + FM6 (λ 1e-2 … 1e-5), 0.8783–0.8807 at
// n = 1 with all six modes (λ 1e-3 … 1e-5) and 0.983–0.986 at n = 2 with
// FM3 + FM6 (S(6 h), λ 1e-2 … 1e-6); plain Monte Carlo on the full SAN
// puts it at 0.77–0.97 for n = 2 and 6.  Which approximation carries the
// bias is open (EXPERIMENTS.md, "Lumping bias").
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ahs/parameters.h"
#include "ahs/severity.h"
#include "ctmc/chain.h"
#include "ctmc/uniformization.h"

namespace ahs {

/// The lumped state, exposed for tests and diagnostics.
struct LumpedState {
  std::array<int, Parameters::kMaxPlatoons> lanes{};
  int nt = 0;
  std::array<int, kNumManeuvers> maneuvers{};  ///< by escalation stage

  int platoon_vehicles() const {
    int v = 0;
    for (int x : lanes) v += x;
    return v;
  }
  int vehicles() const { return platoon_vehicles() + nt; }
  int maneuvering() const {
    int m = 0;
    for (int x : maneuvers) m += x;
    return m;
  }
  int healthy() const { return vehicles() - maneuvering(); }
  SeverityCounts severity() const;

  friend bool operator==(const LumpedState&, const LumpedState&) = default;
};

/// Parameter-independent skeleton of the lumped CTMC: the reachable states,
/// the absorbing UNSAFE index, the generator's CSR pattern, and every
/// transition rate decomposed into (state-derived coefficient × rate
/// parameter) terms.  Rebuilding the generator for another parameter set
/// with the same Parameters::structural_fingerprint is one O(#terms) pass
/// that fills the values and exit rates — no BFS, no hashing, no sort.
/// Immutable once explored; safe to share across threads.
struct LumpedStructure {
  /// Which rate parameter a term multiplies (the low 7 bits of its code).
  enum Factor : std::uint8_t {
    /// + failure mode: params.failure_rate(mode)
    kFailureRate = 0,
    /// + stage: params.maneuver_rates[stage]
    kManeuverRate = kFailureRate + kNumFailureModes,
    /// + stage: params.maneuver_rates[stage] · q_intrinsic
    kManeuverRateQ = kManeuverRate + kNumManeuvers,
    kLeaveRate = kManeuverRateQ + kNumManeuvers,
    kTransitRate,
    kChangeRate,
    kJoinRate,
    kNumFactors,
  };
  /// Set on the code of the last term of a generator entry.
  static constexpr std::uint8_t kEndOfEntry = 0x80;

  /// The rate terms, struct-of-arrays (9 bytes a term).  Grouped by
  /// generator entry in CSR order; within an entry, in the order in which
  /// the entry's value sums them.  A maneuver-failure edge contributes two
  /// terms (count·μ − count·avail·μ·q); every other edge one.
  struct Terms {
    std::vector<double> coeff;       ///< state-derived multiplicity
    std::vector<std::uint8_t> code;  ///< Factor | kEndOfEntry
    std::size_t size() const { return coeff.size(); }
  };

  std::uint64_t fingerprint = 0;  ///< Parameters::structural_fingerprint()
  std::vector<LumpedState> states;
  std::uint32_t initial_state = 0;
  std::uint32_t unsafe = 0;  ///< == states.size(); appended absorbing state
  /// Generator pattern over states.size() + 1 rows (UNSAFE last, empty):
  /// row r's entries are [row_ptr[r], row_ptr[r+1]) of cols, columns
  /// strictly increasing.
  std::vector<std::size_t> row_ptr;
  std::vector<std::uint32_t> cols;
  Terms terms;

  /// Every factor's value under `params`, indexed by Factor.
  static std::array<double, kNumFactors> factor_values(
      const Parameters& params);
};

/// Explores the reachable lumped graph for `params` once.  The result is
/// valid for every parameter set with the same structural fingerprint.
std::shared_ptr<const LumpedStructure> explore_lumped_structure(
    const Parameters& params);

class LumpedModel {
 public:
  explicit LumpedModel(Parameters params);

  /// Reuses a previously explored structure, skipping BFS exploration; the
  /// structure's fingerprint must match params.structural_fingerprint()
  /// (throws util::PreconditionError otherwise).  The numeric generator is
  /// rebuilt from the structure's rate terms, so the resulting chain is
  /// identical to a cold build for the same params.
  LumpedModel(Parameters params,
              std::shared_ptr<const LumpedStructure> structure);

  const Parameters& parameters() const { return params_; }

  /// The structure backing this model (explored on first use if the model
  /// was constructed without one).  Share it across same-fingerprint models
  /// to skip their exploration.
  std::shared_ptr<const LumpedStructure> structure() const;

  /// The number of states including the absorbing UNSAFE state.
  std::size_t num_states() const;

  /// Index of the absorbing UNSAFE state.
  std::uint32_t unsafe_state() const;

  /// The underlying chain (built lazily on first use).
  const ctmc::MarkovChain& chain() const;

  /// The lumped state for index `s` (s != unsafe_state()).
  const LumpedState& state(std::uint32_t s) const;

  /// S(t) — probability the AHS has reached a catastrophic situation by
  /// each time point (hours, strictly increasing), by the reference
  /// kStandard solver.
  std::vector<double> unsafety(std::span<const double> times) const;
  std::vector<double> unsafety(std::initializer_list<double> times) const {
    return unsafety(std::span<const double>(times.begin(), times.size()));
  }
  /// Full-control overload: solves with `base` (solver engine, caches,
  /// warm-start wiring — everything except epsilon, which stays pinned at
  /// this model's 1e-14 so the 1e-13-scale unsafety probabilities keep
  /// their digits).  When `iterations` is non-null the solve's
  /// matrix-vector product count is added to it (the sweep layer's
  /// iterations-per-point telemetry).
  std::vector<double> unsafety(std::span<const double> times,
                               const ctmc::UniformizationOptions& base,
                               std::uint64_t* iterations) const;

  /// Mean time to the first catastrophic situation (hours) — the system
  /// MTTF, reported by the extension benches.
  double mean_time_to_unsafe() const;

  /// Expected number of vehicles on the highway at each time point
  /// (validation measure for the Dynamicity submodel).
  std::vector<double> expected_vehicles(std::span<const double> times) const;

  /// E[∫₀ᵗ (#ongoing maneuvers) du] — expected cumulative vehicle-hours
  /// spent executing recovery maneuvers by time t (interval-of-time reward;
  /// an operational-cost companion to S(t)).
  double expected_maneuver_hours(double t) const;

 private:
  void build() const;

  Parameters params_;
  mutable bool built_ = false;
  mutable std::shared_ptr<const LumpedStructure> structure_;
  mutable ctmc::MarkovChain chain_;
};

}  // namespace ahs
