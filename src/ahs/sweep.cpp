#include "ahs/sweep.h"

#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_set>

#include "ctmc/uniformization.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/snapshot.h"
#include "util/spans.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace ahs {

const char* to_string(PointOutcome o) {
  switch (o) {
    case PointOutcome::kComputed: return "computed";
    case PointOutcome::kRestored: return "restored";
    case PointOutcome::kDegraded: return "degraded";
    case PointOutcome::kSkipped: return "skipped";
  }
  return "?";
}

std::size_t SweepResult::degraded_count() const {
  std::size_t n = 0;
  for (const PointOutcome o : outcome)
    if (o == PointOutcome::kDegraded) ++n;
  return n;
}

bool SweepResult::complete() const {
  for (const PointOutcome o : outcome)
    if (o != PointOutcome::kComputed && o != PointOutcome::kRestored)
      return false;
  return !outcome.empty() || curves.empty();
}

namespace {

std::string axis_label(const GridAxis& axis, double v) {
  return axis.name + "=" + util::format_sci(v);
}

/// Folds every *value* field of a Parameters into `h`.  The structural
/// fingerprint alone is not an identity for a sweep point — points of one
/// sweep usually share structure and differ only in rate values — so the
/// durable result files hash the full numeric parameter set.
std::uint64_t hash_params(std::uint64_t h, const Parameters& p) {
  h = util::hash_mix(h, static_cast<std::uint64_t>(p.max_per_platoon));
  h = util::hash_mix(h, static_cast<std::uint64_t>(p.num_platoons));
  h = util::hash_mix(h, p.base_failure_rate);
  for (double m : p.rate_multipliers) h = util::hash_mix(h, m);
  for (bool e : p.failure_mode_enabled)
    h = util::hash_mix(h, static_cast<std::uint64_t>(e));
  for (double r : p.maneuver_rates) h = util::hash_mix(h, r);
  h = util::hash_mix(h, static_cast<std::uint64_t>(p.maneuver_time_model));
  h = util::hash_mix(h, p.join_rate);
  h = util::hash_mix(h, p.leave_rate);
  h = util::hash_mix(h, p.change_rate);
  h = util::hash_mix(h, p.transit_rate);
  h = util::hash_mix(h, p.q_intrinsic);
  h = util::hash_mix(h, static_cast<std::uint64_t>(p.max_transit));
  h = util::hash_mix(h, static_cast<std::uint64_t>(p.strategy));
  h = util::hash_mix(h, static_cast<std::uint64_t>(p.adjacency_radius));
  return h;
}

std::string point_path(const std::string& dir, std::size_t index,
                       const char* suffix) {
  return dir + "/point_" + std::to_string(index) + suffix;
}

}  // namespace

std::uint64_t point_identity_hash(const Parameters& params,
                                  const std::vector<double>& times,
                                  const StudyOptions& study) {
  std::uint64_t h = 0;
  h = hash_params(h, params);
  for (double t : times) h = util::hash_mix(h, t);
  h = util::hash_mix(h, static_cast<std::uint64_t>(times.size()));
  h = util::hash_mix(h, static_cast<std::uint64_t>(study.engine));
  h = util::hash_mix(h, static_cast<std::uint64_t>(study.solver));
  h = util::hash_mix(h, study.min_replications);
  h = util::hash_mix(h, study.max_replications);
  h = util::hash_mix(h, study.rel_half_width);
  h = util::hash_mix(h, study.abs_half_width);
  h = util::hash_mix(h, study.confidence);
  h = util::hash_mix(h, study.seed);
  h = util::hash_mix(h, study.failure_boost);
  h = util::hash_mix(h, study.fail_case_bias);
  h = util::hash_mix(h, static_cast<std::uint64_t>(study.max_states));
  return h;
}

std::uint64_t point_option_hash(std::size_t index, const SweepPoint& point,
                                const std::vector<double>& times,
                                const StudyOptions& study) {
  std::uint64_t h = 0;
  h = util::hash_mix(h, static_cast<std::uint64_t>(index));
  h = util::hash_mix(h, point.label);
  h = util::hash_mix(h, point_identity_hash(point.params, times, study));
  return h;
}

util::SnapshotHeader point_result_header(std::size_t index,
                                         const SweepPoint& point,
                                         const std::vector<double>& times,
                                         const StudyOptions& study) {
  return util::SnapshotHeader{
      "sweep-point", point.params.structural_fingerprint(), study.seed,
      point_option_hash(index, point, times, study)};
}

std::string encode_curve(const UnsafetyCurve& curve) {
  std::ostringstream os;
  os << curve.times.size() << "\n";
  for (double t : curve.times) os << util::encode_double(t) << " ";
  os << "\n";
  for (double u : curve.unsafety) os << util::encode_double(u) << " ";
  os << "\n";
  for (double hw : curve.half_width) os << util::encode_double(hw) << " ";
  os << "\n"
     << curve.replications << " " << (curve.converged ? 1 : 0) << " "
     << curve.solver_iterations << "\n";
  return os.str();
}

UnsafetyCurve decode_curve(const std::string& payload) {
  util::TokenReader in(payload);
  UnsafetyCurve curve;
  const std::uint64_t k = in.next_u64();
  if (k > in.remaining() / 3)  // k times, k values, k half-widths
    throw util::SnapshotError("curve payload shorter than its point count");
  curve.times.reserve(k);
  curve.unsafety.reserve(k);
  curve.half_width.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i) curve.times.push_back(in.next_f64());
  for (std::uint64_t i = 0; i < k; ++i)
    curve.unsafety.push_back(in.next_f64());
  for (std::uint64_t i = 0; i < k; ++i)
    curve.half_width.push_back(in.next_f64());
  curve.replications = in.next_u64();
  curve.converged = in.next_u64() != 0;
  curve.solver_iterations = in.next_u64();
  return curve;
}

namespace {

/// Payload of <checkpoint_dir>/warm_starts.cache: every warm-start shape
/// the sweep's cold builds have published so far, bitwise-exact doubles.
/// A resumed sweep preloads these so followers of *restored* cold builds
/// still validate against the exact shape the interrupted run published.
std::string encode_warm_entries(const ctmc::WarmStartCache& cache) {
  std::ostringstream os;
  const auto entries = cache.entries();
  os << entries.size() << "\n";
  for (const auto& [key, entry] : entries) {
    os << key << " " << entry->fired_at << " " << entry->shape.size() << "\n";
    for (double s : entry->shape) os << util::encode_double(s) << " ";
    os << "\n";
  }
  return os.str();
}

std::size_t decode_warm_entries(const std::string& payload,
                                ctmc::WarmStartCache& cache) {
  util::TokenReader in(payload);
  const std::uint64_t count = in.next_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t key = in.next_u64();
    auto entry = std::make_shared<ctmc::WarmStart>();
    entry->fired_at = in.next_u64();
    const std::uint64_t n = in.next_u64();
    if (n > in.remaining())
      throw util::SnapshotError("warm-start payload shorter than its shape");
    entry->shape.reserve(n);
    for (std::uint64_t s = 0; s < n; ++s)
      entry->shape.push_back(in.next_f64());
    cache.store(key, std::move(entry));
  }
  return count;
}

}  // namespace

std::vector<SweepPoint> make_grid(const Parameters& base,
                                  const GridAxis& axis) {
  AHS_REQUIRE(axis.set != nullptr, "grid axis needs a setter");
  std::vector<SweepPoint> points;
  points.reserve(axis.values.size());
  for (double v : axis.values) {
    SweepPoint p{axis_label(axis, v), base};
    axis.set(p.params, v);
    points.push_back(std::move(p));
  }
  return points;
}

std::vector<SweepPoint> make_grid(const Parameters& base,
                                  const GridAxis& outer,
                                  const GridAxis& inner) {
  AHS_REQUIRE(outer.set != nullptr && inner.set != nullptr,
              "grid axes need setters");
  std::vector<SweepPoint> points;
  points.reserve(outer.values.size() * inner.values.size());
  for (double vo : outer.values) {
    for (double vi : inner.values) {
      SweepPoint p{axis_label(outer, vo) + "," + axis_label(inner, vi),
                   base};
      outer.set(p.params, vo);
      inner.set(p.params, vi);
      points.push_back(std::move(p));
    }
  }
  return points;
}

SweepResult run_sweep(const std::vector<SweepPoint>& points,
                      const std::vector<double>& times,
                      const SweepOptions& options) {
  AHS_REQUIRE(options.max_attempts >= 1, "max_attempts must be >= 1");
  AHS_SPAN("sweep.run");
  const auto sweep_start = std::chrono::steady_clock::now();

  const bool persisting = !options.checkpoint_dir.empty();
  if (persisting)
    std::filesystem::create_directories(options.checkpoint_dir);

  // Sweep telemetry ("ahs.sweep.*"): per-point wall time, the cache
  // hit/miss split, and the robustness counters (restored/retried/degraded
  // points), aggregated under the process-wide registry if attached.
  util::MetricsRegistry* reg = util::MetricsRegistry::global();
  util::Counter tm_points, tm_hits, tm_misses, tm_restored, tm_retries,
      tm_degraded;
  util::HistogramHandle tm_point_seconds;
  if (reg != nullptr) {
    tm_points = reg->counter("ahs.sweep.points");
    tm_hits = reg->counter("ahs.sweep.structure_cache_hits");
    tm_misses = reg->counter("ahs.sweep.structure_cache_misses");
    tm_restored = reg->counter("ahs.sweep.points_restored");
    tm_retries = reg->counter("ahs.sweep.point_retries");
    tm_degraded = reg->counter("ahs.sweep.points_degraded");
    tm_point_seconds = reg->histogram(
        "ahs.sweep.point_seconds",
        {0, 0.001, 0.01, 0.1, 0.5, 1, 5, 30, 120});
    // Pre-register the pool's instruments (normally registered by the
    // ThreadPool constructor): a sequential sweep creates no pool, and the
    // telemetry key set must be identical for any --threads value.
    reg->counter("util.thread_pool.tasks");
    reg->counter("util.thread_pool.busy_ns");
    reg->histogram("util.thread_pool.queue_depth",
                   {0, 1, 2, 4, 8, 16, 32, 64, 128});
    // Live-progress denominator for the telemetry tap (util/telemetry.h):
    // points done / points_total is how ahs_top draws its bar.
    reg->gauge("ahs.sweep.points_total")
        .set(static_cast<double>(points.size()));
  }

  // Flight-recorder lifecycle events (util/trace.h): one instant per point
  // transition, arg a = point index, so a Perfetto timeline shows when each
  // point was queued, started (cold build vs follower), and how it ended.
  util::TraceRecorder* trc = util::TraceRecorder::global();
  util::TraceName tr_queued, tr_cold, tr_warm, tr_computed, tr_restored,
      tr_degraded, tr_skipped;
  if (trc != nullptr) {
    tr_queued = trc->name("sweep.point.queued");
    tr_cold = trc->name("sweep.point.cold");
    tr_warm = trc->name("sweep.point.warm");
    tr_computed = trc->name("sweep.point.computed");
    tr_restored = trc->name("sweep.point.restored");
    tr_degraded = trc->name("sweep.point.degraded");
    tr_skipped = trc->name("sweep.point.skipped");
  }

  SweepResult result;
  result.curves.resize(points.size());
  result.structure_cache_hit.assign(points.size(), false);
  result.point_seconds.assign(points.size(), 0.0);
  result.outcome.assign(points.size(), PointOutcome::kSkipped);
  result.degraded_reason.assign(points.size(), std::string());
  if (points.empty()) return result;

  // One StudyCache per sweep (CTMC engines) carries what the points share:
  // explored structure; Poisson windows and truncation bounds — the λ/n
  // axes move the uniformization rate by less than the quantization step,
  // so most points hit (watch ctmc.uniformization.poisson_cache_{hits,
  // misses}); and, for the adaptive solver, warm starts — each group's cold
  // build publishes the quasi-stationary plateau shape its solve converged
  // to, and the group's followers confirm their own plateaus against it
  // after a short run instead of a cold lookback window.  The
  // cold-before-followers barrier below orders every publish before every
  // possible consume, so the curves stay identical for any thread count.
  const bool caching = options.study.engine == Engine::kLumpedCtmc ||
                       options.study.engine == Engine::kFullCtmc;
  StudyCache cache;
  const bool warm_active =
      caching && options.study.solver == ctmc::TransientSolver::kAdaptive;

  // Warm-start persistence: a point's durable result file holds its curve
  // but no distribution, so a resumed sweep whose cold builds were all
  // restored would have nothing to warm its recomputed followers with —
  // they'd fall back to the cold plateau criteria and diverge (in iteration
  // count, not values) from the uninterrupted run.  Persisting sweeps
  // therefore snapshot every published shape after each cold point and
  // preload the file on resume.  The header identity covers everything that
  // makes shapes comparable: engine, solver, and the evaluation grid.
  const bool warm_persisting = warm_active && persisting;
  const std::string warm_path =
      warm_persisting ? options.checkpoint_dir + "/warm_starts.cache"
                      : std::string();
  util::SnapshotHeader warm_header;
  std::mutex warm_io_mutex;
  if (warm_persisting) {
    std::uint64_t wh = util::hash_mix(0, std::string("warm-shapes-v1"));
    wh = util::hash_mix(wh, static_cast<std::uint64_t>(options.study.engine));
    wh = util::hash_mix(wh, static_cast<std::uint64_t>(options.study.solver));
    for (double t : times) wh = util::hash_mix(wh, t);
    wh = util::hash_mix(wh, static_cast<std::uint64_t>(times.size()));
    warm_header = util::SnapshotHeader{"sweep-warm", 0, options.study.seed, wh};
    if (options.resume) {
      std::string payload;
      if (util::read_snapshot(warm_path, warm_header, &payload)) {
        const std::size_t n = decode_warm_entries(payload, cache.warm());
        if (reg != nullptr)
          reg->gauge("ahs.sweep.warm_shapes_preloaded")
              .set(static_cast<double>(n));
        AHS_LOGM_INFO("sweep")
            << "preloaded " << n << " warm-start shape(s) from " << warm_path;
      }
    }
  }

  // Split the points into cold builds (the first point of each structure
  // group — every point when not caching) and followers.  Running all cold
  // builds to completion first guarantees every follower hits the cache.
  std::vector<std::size_t> cold, followers;
  std::unordered_set<std::uint64_t> seen;
  std::vector<unsigned char> is_cold(points.size(), 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (caching &&
        !seen.insert(StudyCache::key(points[i].params, options.study.engine))
             .second) {
      followers.push_back(i);
    } else {
      cold.push_back(i);
      is_cold[i] = 1;
    }
  }
  if (trc != nullptr)
    for (std::size_t i = 0; i < points.size(); ++i)
      tr_queued.instant(i, is_cold[i]);

  // vector<bool> packs bits, so concurrent writes to distinct indices would
  // race; stage the hit flags in bytes.
  std::vector<unsigned char> hits(points.size(), 0);
  std::atomic<bool> any_cancelled{false};

  const auto stopped = [&] {
    return options.stop != nullptr &&
           options.stop->load(std::memory_order_relaxed);
  };

  auto evaluate = [&](std::size_t i) {
    AHS_SPAN("sweep.point");
    (is_cold[i] != 0 ? tr_cold : tr_warm).instant(i);
    const auto start = std::chrono::steady_clock::now();
    const auto record_seconds = [&] {
      result.point_seconds[i] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
    };

    // Cooperative stop: points not yet started are skipped, preserving
    // whatever checkpoints the started points already flushed.
    if (stopped()) {
      any_cancelled.store(true, std::memory_order_relaxed);
      record_seconds();
      tr_skipped.instant(i);
      return;
    }

    const util::SnapshotHeader header =
        point_result_header(i, points[i], times, options.study);
    const std::string result_path =
        persisting ? point_path(options.checkpoint_dir, i, ".result")
                   : std::string();

    // Resume: a durable result file short-circuits the evaluation with the
    // bit-identical curve of the interrupted run.
    if (persisting && options.resume) {
      std::string payload;
      if (util::read_snapshot(result_path, header, &payload)) {
        result.curves[i] = decode_curve(payload);
        result.outcome[i] = PointOutcome::kRestored;
        record_seconds();
        tr_restored.instant(i);
        if (reg != nullptr) {
          tm_points.inc();
          tm_restored.inc();
        }
        return;
      }
    }

    StudyOptions study = options.study;
    study.stop = options.stop;
    study.max_seconds = options.point_timeout_seconds;
    study.warm_publish = is_cold[i] != 0;
    if (persisting) {
      study.checkpoint_path =
          point_path(options.checkpoint_dir, i, ".transient");
      study.resume = options.resume;
    }

    for (int attempt = 1;; ++attempt) {
      try {
        bool hit = false;
        result.curves[i] =
            unsafety_curve(points[i].params, times, study,
                           caching ? &cache : nullptr, &hit);
        hits[i] = hit ? 1 : 0;
        if (result.curves[i].cancelled) {
          // Progress is in the transient checkpoint; the point stays
          // kSkipped so a resume knows to finish it.
          any_cancelled.store(true, std::memory_order_relaxed);
        } else if (result.curves[i].timed_out) {
          result.outcome[i] = PointOutcome::kDegraded;
          result.degraded_reason[i] =
              "wall-clock budget of " +
              util::format_sci(options.point_timeout_seconds) +
              " s exhausted (progress checkpointed)";
          if (reg != nullptr) tm_degraded.inc();
          AHS_LOGM_WARN("sweep")
              << "point " << i << " (" << points[i].label
              << ") degraded: " << result.degraded_reason[i];
        } else {
          result.outcome[i] = PointOutcome::kComputed;
          if (persisting)
            util::write_snapshot(result_path, header,
                                 encode_curve(result.curves[i]));
          if (warm_persisting && is_cold[i] != 0) {
            // Snapshot the shapes after every cold completion (not once at
            // the end): a crash between cold builds must not lose the
            // shapes the finished builds already published.  Atomic write,
            // so readers never see a torn file.
            std::lock_guard<std::mutex> lock(warm_io_mutex);
            util::write_snapshot(warm_path, warm_header,
                                 encode_warm_entries(cache.warm()));
            if (reg != nullptr)
              reg->gauge("ahs.sweep.warm_shapes_persisted")
                  .set(static_cast<double>(cache.warm().size()));
          }
        }
        break;
      } catch (const util::SnapshotError&) {
        // A mismatched or corrupt checkpoint is a configuration error, not
        // a transient fault: retrying cannot help, and degrading would
        // silently discard the operator's resume intent.
        throw;
      } catch (const std::exception& e) {
        if (attempt < options.max_attempts && !stopped()) {
          if (reg != nullptr) tm_retries.inc();
          AHS_LOGM_WARN("sweep")
              << "point " << i << " (" << points[i].label
              << ") attempt " << attempt << "/" << options.max_attempts
              << " failed: " << e.what() << " — retrying";
          continue;
        }
        result.curves[i] = UnsafetyCurve{};
        result.outcome[i] = PointOutcome::kDegraded;
        result.degraded_reason[i] = e.what();
        if (reg != nullptr) tm_degraded.inc();
        AHS_LOGM_WARN("sweep")
            << "point " << i << " (" << points[i].label
            << ") degraded after " << attempt
            << " attempt(s): " << e.what();
        break;
      }
    }

    record_seconds();
    switch (result.outcome[i]) {
      case PointOutcome::kComputed: tr_computed.instant(i); break;
      case PointOutcome::kDegraded: tr_degraded.instant(i); break;
      case PointOutcome::kRestored: tr_restored.instant(i); break;
      case PointOutcome::kSkipped: tr_skipped.instant(i); break;
    }
    if (reg != nullptr) {
      tm_points.inc();
      (hits[i] != 0 ? tm_hits : tm_misses).inc();
      tm_point_seconds.record(result.point_seconds[i]);
    }
  };

  if (options.threads == 1) {
    for (std::size_t i : cold) evaluate(i);
    for (std::size_t i : followers) evaluate(i);
  } else {
    util::ThreadPool pool(options.threads);
    auto run_batch = [&](const std::vector<std::size_t>& batch) {
      std::vector<std::future<void>> futures;
      futures.reserve(batch.size());
      for (std::size_t i : batch)
        futures.push_back(pool.submit([&evaluate, i] { evaluate(i); }));
      for (auto& f : futures) f.get();
    };
    run_batch(cold);
    run_batch(followers);
  }

  for (std::size_t i = 0; i < points.size(); ++i)
    result.structure_cache_hit[i] = hits[i] != 0;
  result.cancelled = any_cancelled.load(std::memory_order_relaxed);
  if (caching) {
    result.poisson_cache_hits = cache.poisson().hits();
    result.poisson_cache_misses = cache.poisson().misses();
    if (reg != nullptr)
      reg->gauge("ahs.sweep.poisson_cache_hit_rate")
          .set(cache.poisson().hit_rate());
  }
  if (warm_active) {
    result.warm_start_hits = cache.warm().hits();
    result.warm_start_misses = cache.warm().misses();
    if (reg != nullptr)
      reg->gauge("ahs.sweep.warm_start_hit_rate")
          .set(cache.warm().hit_rate());
  }
  for (const UnsafetyCurve& c : result.curves)
    result.total_solver_iterations += c.solver_iterations;
  result.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();
  return result;
}

}  // namespace ahs
