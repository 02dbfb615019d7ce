// Parallel parameter-sweep engine: evaluates S(t) for a batch of parameter
// sets concurrently on a util::ThreadPool, reusing the explored state-space
// structure across points that differ only in rate values.
//
// Every figure bench is a sweep — fig 11 varies λ, fig 12 (n, λ), fig 13
// the load (join, leave), fig 14 the strategy — so this is the layer where
// wall-clock is won: the per-point CTMC solves are independent and the BFS
// exploration is shared via StudyCache whenever the points' structural
// fingerprints coincide.
//
// Determinism: each point is evaluated on one thread by code that does not
// depend on the thread count, and results land in slots indexed by input
// order — so the output is point-for-point identical to a sequential loop,
// for any thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ahs/parameters.h"
#include "ahs/study.h"
#include "util/snapshot.h"

namespace util {
class ThreadPool;
}

namespace ahs {

/// One sweep point: a full parameter set plus a label for logs/CSV.
struct SweepPoint {
  std::string label;
  Parameters params;
};

/// One grid axis: a parameter name (for labels), its values, and a setter
/// applying a value to a Parameters.
struct GridAxis {
  std::string name;
  std::vector<double> values;
  std::function<void(Parameters&, double)> set;
};

/// 1-D grid: `base` with axis.set applied for each value.  Labels are
/// "name=value".
std::vector<SweepPoint> make_grid(const Parameters& base,
                                  const GridAxis& axis);

/// 2-D grid in row-major order (outer varies slowest).  Labels are
/// "outer=v1,inner=v2".
std::vector<SweepPoint> make_grid(const Parameters& base,
                                  const GridAxis& outer,
                                  const GridAxis& inner);

struct SweepOptions {
  /// Engine + engine knobs for every point.
  StudyOptions study;

  /// Worker threads: 0 = hardware concurrency, 1 = sequential in the
  /// calling thread (no pool is created).
  unsigned threads = 0;

  // ---- robustness (docs/ROBUSTNESS.md) --------------------------------

  /// Directory for durable per-point result files and in-flight transient
  /// checkpoints ("" disables persistence).  Created if absent.
  std::string checkpoint_dir;
  /// Resume a previous sweep from checkpoint_dir: points whose result file
  /// is present and matches (parameters, times, options, seed) are
  /// restored bit-for-bit and skipped; in-flight simulation points resume
  /// from their transient checkpoint.  A mismatched file throws
  /// util::SnapshotError — stale state is rejected, never merged.
  bool resume = false;
  /// Per-point wall-clock budget in seconds (simulation engines; 0 = off).
  /// A point that exhausts its budget is recorded as degraded — its
  /// partial progress stays in the transient checkpoint for a later
  /// resume — instead of stalling the whole sweep.
  double point_timeout_seconds = 0.0;
  /// Evaluation attempts per point before a throwing point is recorded as
  /// degraded instead of aborting the sweep (>= 1).
  int max_attempts = 2;
  /// Cooperative cancellation flag (e.g. &util::stop_flag()), polled
  /// before each point and inside simulation estimates; a set flag skips
  /// the remaining points after flushing in-flight checkpoints.
  const std::atomic<bool>* stop = nullptr;
};

/// What happened to one sweep point.
enum class PointOutcome {
  kComputed,  ///< evaluated in this run (and persisted, if configured)
  kRestored,  ///< loaded bit-for-bit from its durable result file
  kDegraded,  ///< kept failing or exhausted its budget; curve is partial
  kSkipped,   ///< not evaluated (cooperative stop)
};

const char* to_string(PointOutcome o);

struct SweepResult {
  /// curves[i] is the result for points[i] — same order, any thread count.
  std::vector<UnsafetyCurve> curves;
  /// Whether point i reused a cached structure (false for the first point
  /// of each fingerprint group and for simulation engines).
  std::vector<bool> structure_cache_hit;
  /// Wall-clock seconds spent evaluating point i.
  std::vector<double> point_seconds;
  /// Wall-clock seconds for the whole sweep (includes scheduling).
  double total_seconds = 0.0;
  /// Per-point outcome; curves[i] is authoritative only for kComputed and
  /// kRestored points.
  std::vector<PointOutcome> outcome;
  /// For kDegraded points: why (exception text or "timeout").
  std::vector<std::string> degraded_reason;
  /// The stop flag fired before every point completed; checkpoints hold
  /// the progress and a --resume rerun finishes the job.
  bool cancelled = false;
  /// Shared Poisson-window cache traffic (CTMC engines; both 0 otherwise).
  /// A hit means a point reused a neighbor's uniformization window and
  /// truncation bounds instead of recomputing them — see ctmc::PoissonCache.
  std::uint64_t poisson_cache_hits = 0;
  std::uint64_t poisson_cache_misses = 0;
  /// Sweep-internal warm-start traffic (adaptive CTMC solves only; both 0
  /// otherwise).  A hit means a follower point confirmed its
  /// quasi-stationary plateau against the shape published by its structure
  /// group's cold build and extrapolated after a short confirmation run
  /// instead of a full cold lookback window — see ctmc::WarmStartCache.
  /// Persisting sweeps write every published shape to
  /// `<checkpoint_dir>/warm_starts.cache` (snapshot kind "sweep-warm"), so
  /// a resumed sweep whose cold builds were *restored* preloads the exact
  /// shapes the interrupted run published — recomputed followers hit the
  /// warm criteria and reproduce the uninterrupted run bit-for-bit,
  /// iteration counts included.
  std::uint64_t warm_start_hits = 0;
  std::uint64_t warm_start_misses = 0;
  /// Matrix–vector products summed over every point's transient solves
  /// (Σ curves[i].solver_iterations; 0 for simulation engines) — the
  /// iteration count the "Iteration counts" work of docs/PERFORMANCE.md
  /// tracks, reported per point by the fig-12 bench.
  std::uint64_t total_solver_iterations = 0;

  std::size_t degraded_count() const;
  /// True when every point carries an authoritative result.
  bool complete() const;
};

/// Evaluates S(t) at `times` for every point.  Cold structure builds (one
/// per distinct fingerprint) run first, concurrently; the remaining points
/// then run concurrently with guaranteed cache hits.
SweepResult run_sweep(const std::vector<SweepPoint>& points,
                      const std::vector<double>& times,
                      const SweepOptions& options = {});

// ---- durable point-file protocol --------------------------------------
// The per-point result files a persisting sweep writes (`point_<i>.result`,
// snapshot kind "sweep-point") double as the `ahs_server` service's
// job/result wire format: a worker *process* evaluates one point and writes
// exactly this file; the supervisor reads it back, and a SIGKILLed worker
// is restartable for free because the file either exists complete (atomic
// rename) or not at all.  The identity and codec functions are public for
// that reason — serve/worker.cpp and run_sweep must agree byte-for-byte.

/// Identity of a durable point-result file: the point (index, label, full
/// parameter values), the evaluation grid, and every result-determining
/// study option.  Any difference rejects the file on resume.
std::uint64_t point_option_hash(std::size_t index, const SweepPoint& point,
                                const std::vector<double>& times,
                                const StudyOptions& study);

/// Index/label-free identity of a point's *numerical result*: the
/// service's cross-request ResultStore merges on this key and computes
/// shared points exactly once.  Equal identities give bitwise-equal curves
/// on every path — run_sweep, a served worker, a plain unsafety_curve call
/// — for every kStandard and kKrylov point and for every kAdaptive point
/// that is its structure group's cold build.  A run_sweep kAdaptive
/// follower is warm-started from its group's cold build, so it differs
/// from the served curve within the quasi-stationary closure error.
std::uint64_t point_identity_hash(const Parameters& params,
                                  const std::vector<double>& times,
                                  const StudyOptions& study);

/// The snapshot header of point_<index>.result under this identity.
util::SnapshotHeader point_result_header(std::size_t index,
                                         const SweepPoint& point,
                                         const std::vector<double>& times,
                                         const StudyOptions& study);

/// Serializes a completed curve with exact double bit patterns, so a
/// restored point is bitwise identical to the run that computed it.
std::string encode_curve(const UnsafetyCurve& curve);
UnsafetyCurve decode_curve(const std::string& payload);

}  // namespace ahs
