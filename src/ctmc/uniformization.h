// Transient CTMC solution by uniformization (Jensen's method).
//
// π(t) = Σ_k  Poisson(Λt; k) · π(0) P^k,   P = I + Q/Λ,   Λ ≥ max exit rate.
//
// Poisson weights are computed with a Fox–Glynn-style stable scheme
// (mode-relative weights, left/right truncation at a configurable mass
// tolerance), so horizons with Λt in the thousands are fine.  Multiple time
// points are solved incrementally: π(t_{i+1}) starts from π(t_i).  Λ is
// always quantized (see PoissonCache), so a result never depends on which
// cache served its Poisson windows.
//
// Three solver engines share this interface (UniformizationOptions::solver):
//
//   kStandard  the fixed-Λ loop above — the bitwise reference every other
//              engine is certified against;
//   kAdaptive  the same loop plus a quasi-stationary flux-plateau
//              extrapolation that closes the post-mixing tail of the
//              Poisson window analytically (the docs/PERFORMANCE.md
//              "Iteration counts" section quantifies it);
//   kKrylov    an Arnoldi expmv solver (ctmc/expmv.h) — an independent
//              numerical method used as the cross-check oracle for the
//              adaptive path.
//
// This solver is what replaces Möbius simulation for the paper's smallest
// probabilities (S(t) ~ 1e-13 for λ = 1e-7/h), which no Monte Carlo scheme
// reaches at the paper's stated batch counts.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ctmc/chain.h"

namespace ctmc {

struct PoissonWindow;

/// Hashes the exact (λ, ε) bit-pattern pair of a cache key through
/// util::hash_mix (defined in the .cpp so this header stays light).
struct PoissonKeyHash {
  std::size_t operator()(
      const std::pair<std::uint64_t, std::uint64_t>& key) const;
};

/// Thread-safe cross-solve cache of Poisson windows, keyed on the exact bit
/// patterns of (λ = Λ·Δt, ε).  One cache shared across the points of a
/// sweep carries each window — weights plus left/right truncation bounds —
/// from the first point that computes it to every neighbor that asks for
/// the same key, instead of re-expanding thousands of weights per point.
///
/// Exact keys only match if the uniformization rates match, so the solvers
/// always use a *quantized* Λ (rounded up to the next 2⁻⁸ mantissa step;
/// frexp's mantissa lies in [0.5, 1), so the overshoot is below 2⁻⁷ ≈
/// 0.78 %): neighboring sweep points whose max exit rates differ only in
/// low-order bits then land on the same key.  A cached window is
/// byte-identical to a fresh computation for its key, so solves are
/// deterministic and independent of cache history and sweep thread count,
/// and a solve gives the same bits with or without a cache.
class PoissonCache {
 public:
  /// The cached window for (lambda, epsilon), or nullptr.  Counts the
  /// lookup toward hits()/misses().
  std::shared_ptr<const PoissonWindow> find(double lambda,
                                            double epsilon) const;
  void store(double lambda, double epsilon,
             std::shared_ptr<const PoissonWindow> window);

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  /// hits / (hits + misses), 0 when never consulted.
  double hit_rate() const;

 private:
  mutable std::mutex mutex_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>,
                     std::shared_ptr<const PoissonWindow>, PoissonKeyHash>
      windows_;
};

/// What a completed adaptive solve publishes for its sweep neighbors: the
/// evidence that one (structure, time-grid) group's quasi-stationary
/// plateau has been reached, so a follower can confirm its own plateau
/// against a converged neighbor instead of accumulating the slow
/// self-evidence from scratch (see UniformizationOptions::warm_cache).
struct WarmStart {
  /// Normalized transient shape at the plateau: transient entries divided
  /// by the remaining transient mass, absorbing entries zero.
  std::vector<double> shape;
  /// DTMC step index at which the publishing solve confirmed its plateau.
  std::uint64_t fired_at = 0;
};

/// Thread-safe cross-solve cache of WarmStart entries, keyed on a
/// caller-chosen 64-bit identity (the sweep engine keys on the structure
/// group and the time grid).  store() is first-writer-wins, so with the
/// sweep's cold-builds-before-followers barrier the entry every follower
/// observes is deterministic for any thread count.
class WarmStartCache {
 public:
  /// The cached entry, or nullptr.  Counts toward hits()/misses().
  std::shared_ptr<const WarmStart> find(std::uint64_t key) const;
  /// Publishes an entry; an existing entry for `key` wins and is kept.
  void store(std::uint64_t key, std::shared_ptr<const WarmStart> entry);

  /// Every entry currently in the cache, sorted by key (deterministic
  /// order).  The sweep engine persists these into its checkpoint
  /// directory so a resumed sweep rewarms followers whose structure
  /// group's cold build was *restored* (a result file holds no
  /// distribution, so without the persisted shapes those followers would
  /// fall back to the cold plateau criteria).
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const WarmStart>>>
  entries() const;
  std::size_t size() const;

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  /// hits / (hits + misses), 0 when never consulted.
  double hit_rate() const;

 private:
  mutable std::mutex mutex_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::unordered_map<std::uint64_t, std::shared_ptr<const WarmStart>>
      entries_;
};

/// Transient solver engine (see the file comment).  kStandard is the plain
/// reference loop; kAdaptive trades last-ulp
/// equality for a large iteration-count reduction on absorption-dominated
/// chains; kKrylov is an independent method for cross-checking.
enum class TransientSolver : std::uint8_t { kStandard, kAdaptive, kKrylov };

const char* to_string(TransientSolver s);

struct UniformizationOptions {
  /// Truncation mass tolerance: left+right discarded Poisson mass ≤ epsilon.
  double epsilon = 1e-12;
  /// Uniformization rate safety factor (Λ = factor · max exit rate).
  double rate_factor = 1.02;
  /// Steady-state detection tolerance on ‖πP^k − πP^{k-1}‖∞ (0 disables).
  double steady_state_tol = 1e-14;
  /// Optional shared Poisson-window cache (see PoissonCache); nullptr = a
  /// cache local to the solve.  Sharing one lets adjacent solves reuse
  /// windows and never changes results.  The sweep engine wires one per
  /// sweep.
  PoissonCache* poisson_cache = nullptr;

  /// Engine selection.  kStandard (default) is the reference loop;
  /// callers that can tolerate the documented extrapolation
  /// error (ahs::StudyOptions does) select kAdaptive.
  TransientSolver solver = TransientSolver::kStandard;

  // ---- kAdaptive wiring -----------------------------------------------

  /// Optional shared warm-start cache; consulted under warm_key.
  WarmStartCache* warm_cache = nullptr;
  /// Cache key for warm_cache lookups (the caller encodes the structure
  /// group and time grid; the solver mixes in the interval index).
  std::uint64_t warm_key = 0;
  /// Publish this solve's plateau evidence to warm_cache (the sweep engine
  /// sets it on each structure group's cold build only, so the published
  /// entry is deterministic for any thread count).
  bool warm_publish = false;

  // ---- kKrylov --------------------------------------------------------

  /// Local error tolerance per unit time (0 = use epsilon).  Note this is
  /// an *absolute* tolerance on the distribution vector; a request below
  /// the solve's round-off floor (≈ ε_mach·‖Qᵀ‖·t) cannot be honoured —
  /// the solver detects that, raises TransientSolution::tol_floor_hit,
  /// logs a warning, and reports the achievable floor (see
  /// ctmc::expmv_tol_floor).  The floor bounds round-off on each entry of
  /// the distribution vector, not on the reward: at fig 12's n = 10,
  /// λ = 1e-4 it is 3.7e-12 absolute, yet S(6 h) = 2.5e-5 agrees with
  /// kStandard to 7e-15 relative.
  double krylov_tol = 0.0;
};

struct TransientSolution {
  std::vector<double> time_points;
  /// expected_reward[i] = Σ_s π(t_i)[s] · reward[s].
  std::vector<double> expected_reward;
  /// Matrix-vector products performed (the unit every engine shares; the
  /// adaptive and Krylov engines exist to make this number small).
  std::uint64_t total_iterations = 0;
  /// kAdaptive: quasi-stationary extrapolations fired (≤ #intervals).
  std::uint64_t qs_extrapolations = 0;
  /// Always 0: no engine runs reduced-rate segments.  Kept because
  /// perfbench/perfbench.cpp reads it and asserts that it is 0.
  std::uint64_t ramp_segments = 0;
  /// kAdaptive: the solve validated its shape against a warm-start entry.
  bool warm_start_hit = false;
  /// kKrylov: the requested tolerance sat below the solver's achievable
  /// absolute-error floor for this solve's magnitude (ε_mach·‖Qᵀ‖·t); the
  /// distribution vector is only certified to `achievable_tol`, not the
  /// request.  Also surfaced as the ctmc.expmv.tol_floor_hits counter, the
  /// ctmc.expmv.tol_floor gauge, and a warning log line.
  bool tol_floor_hit = false;
  /// kKrylov: the round-off floor of this solve (max over its intervals),
  /// an absolute bound on each entry of the distribution vector — not a
  /// bound on expected_reward's relative error; 0 when the requested
  /// tolerance was achievable.
  double achievable_tol = 0.0;
};

/// Expected reward at each (strictly increasing, non-negative) time point.
TransientSolution solve_transient(const MarkovChain& chain,
                                  std::span<const double> reward,
                                  std::span<const double> time_points,
                                  const UniformizationOptions& options = {});

struct AccumulatedSolution {
  std::vector<double> time_points;
  /// accumulated[i] = E[ ∫₀^{t_i} reward(X_u) du ].
  std::vector<double> accumulated;
  std::uint64_t total_iterations = 0;
};

/// Interval-of-time (accumulated) rewards:
///   E[∫₀ᵗ r(X_u) du] = (1/Λ) Σ_k P(N_t ≥ k+1) · ⟨π P^k, r⟩
/// where N_t is the uniformized Poisson count — the standard accumulated-
/// reward uniformization.  Time points are handled incrementally:
/// the distribution is advanced to t_i with solve_transient's machinery
/// and each interval's accumulation starts from it.  Steady-state cutoff
/// shares solve_transient's detector: once the DTMC iterate converges the
/// remaining survival-weighted terms are closed in one scalar pass.
AccumulatedSolution solve_accumulated(const MarkovChain& chain,
                                      std::span<const double> reward,
                                      std::span<const double> time_points,
                                      const UniformizationOptions& options =
                                          {});

/// Poisson(λ) weights for k in [left, right] with total discarded mass
/// ≤ epsilon; weights are normalized to sum to 1 over the window.
/// Exposed for testing.
struct PoissonWindow {
  std::uint64_t left = 0;
  std::uint64_t right = 0;
  std::vector<double> weight;  ///< weight[k - left]
};
PoissonWindow poisson_window(double lambda, double epsilon);

}  // namespace ctmc
