#include "ctmc/uniformization.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <span>
#include <utility>

#include "ctmc/expmv.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/snapshot.h"
#include "util/spans.h"
#include "util/trace.h"

namespace ctmc {

std::size_t PoissonKeyHash::operator()(
    const std::pair<std::uint64_t, std::uint64_t>& key) const {
  return static_cast<std::size_t>(
      util::hash_mix(util::hash_mix(0x9e3779b97f4a7c15ull, key.first),
                     key.second));
}

std::shared_ptr<const PoissonWindow> PoissonCache::find(
    double lambda, double epsilon) const {
  const std::pair<std::uint64_t, std::uint64_t> key{
      std::bit_cast<std::uint64_t>(lambda),
      std::bit_cast<std::uint64_t>(epsilon)};
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = windows_.find(key);
  if (it == windows_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

void PoissonCache::store(double lambda, double epsilon,
                         std::shared_ptr<const PoissonWindow> window) {
  const std::pair<std::uint64_t, std::uint64_t> key{
      std::bit_cast<std::uint64_t>(lambda),
      std::bit_cast<std::uint64_t>(epsilon)};
  const std::lock_guard<std::mutex> lock(mutex_);
  windows_.emplace(key, std::move(window));
}

std::uint64_t PoissonCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t PoissonCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

double PoissonCache::hit_rate() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
}

std::shared_ptr<const WarmStart> WarmStartCache::find(std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

void WarmStartCache::store(std::uint64_t key,
                           std::shared_ptr<const WarmStart> entry) {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.emplace(key, std::move(entry));
}

std::vector<std::pair<std::uint64_t, std::shared_ptr<const WarmStart>>>
WarmStartCache::entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const WarmStart>>> out(
      entries_.begin(), entries_.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::size_t WarmStartCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t WarmStartCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t WarmStartCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

double WarmStartCache::hit_rate() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
}

const char* to_string(TransientSolver s) {
  switch (s) {
    case TransientSolver::kStandard:
      return "standard";
    case TransientSolver::kAdaptive:
      return "adaptive";
    case TransientSolver::kKrylov:
      return "krylov";
  }
  return "unknown";
}

namespace {

/// Solver telemetry ("ctmc.uniformization.*"), resolved per solve from the
/// process-wide registry; every site is one predictable branch when no
/// registry is attached.
struct UnifTelemetry {
  bool on = false;
  util::Counter solves;
  util::Counter iterations;  ///< DTMC vector-matrix products
  util::Counter cache_hits;    ///< PoissonCache lookup served a window
  util::Counter cache_misses;  ///< PoissonCache lookup missed, computed
  util::Counter steady_cutoffs;  ///< steady-state detection fired
  util::Counter qs_extrapolations;  ///< adaptive plateau closures fired
  util::HistogramHandle window_size;  ///< Poisson window width per miss
  util::Gauge truncation;  ///< Poisson mass left outside the last window
  util::Gauge avx2;        ///< 1 when the AVX2 slice loop ran the last solve

  // Flight-recorder milestones (util/trace.h) — independent of the metrics
  // registry; each emit is one branch when no recorder is attached.
  util::TraceName tr_window;    ///< instant per interval (a=interval, b=right)
  util::TraceName tr_steady;    ///< steady-state cutoff fired (a=k)
  util::TraceName tr_qs;        ///< quasi-stationary extrapolation (a=k)
  util::TraceName tr_warm;      ///< warm-start shape validated (a=k)

  UnifTelemetry() {
    if (util::TraceRecorder* trc = util::TraceRecorder::global()) {
      tr_window = trc->name("unif.window_start");
      tr_steady = trc->name("unif.steady_cutoff");
      tr_qs = trc->name("unif.qs_extrapolation");
      tr_warm = trc->name("unif.warm_start_hit");
    }
    if (util::MetricsRegistry* reg = util::MetricsRegistry::global()) {
      on = true;
      solves = reg->counter("ctmc.uniformization.solves");
      iterations = reg->counter("ctmc.uniformization.iterations");
      cache_hits = reg->counter("ctmc.uniformization.poisson_cache_hits");
      cache_misses = reg->counter("ctmc.uniformization.poisson_cache_misses");
      steady_cutoffs = reg->counter("ctmc.uniformization.steady_cutoffs");
      qs_extrapolations =
          reg->counter("ctmc.uniformization.qs_extrapolations");
      window_size = reg->histogram(
          "ctmc.uniformization.poisson_window_size",
          {0, 8, 16, 32, 64, 128, 256, 512, 1024, 4096});
      truncation = reg->gauge("ctmc.uniformization.truncation_remaining");
      avx2 = reg->gauge("ctmc.uniformization.avx2");
    }
  }
};

/// The Poisson window for λ from `cache`, computed and stored on a miss.
/// A window is a pure function of its key, so threads racing on one miss
/// compute and store the same bytes.
std::shared_ptr<const PoissonWindow> cached_window(PoissonCache& cache,
                                                   double lambda,
                                                   double epsilon,
                                                   UnifTelemetry& tm) {
  if (std::shared_ptr<const PoissonWindow> hit = cache.find(lambda, epsilon)) {
    if (tm.on) tm.cache_hits.inc();
    return hit;
  }
  auto computed =
      std::make_shared<const PoissonWindow>(poisson_window(lambda, epsilon));
  if (tm.on) {
    tm.cache_misses.inc();
    tm.window_size.record(static_cast<double>(computed->weight.size()));
  }
  cache.store(lambda, epsilon, computed);
  return computed;
}

/// Rounds a uniformization rate up to the next multiple of 2^(e-8), e the
/// rate's binary exponent (frexp's mantissa lies in [0.5, 1), so the
/// overshoot is below 2⁻⁷ ≈ 0.78 %).  Any two rates within one step of
/// each other quantize to the *same* double — the property that lets
/// neighboring sweep points share PoissonCache entries.
double quantize_rate_up(double rate) {
  int e = 0;
  std::frexp(rate, &e);
  const double step = std::ldexp(1.0, e - 8);
  return std::ceil(rate / step) * step;
}

/// Uniformization rate for a chain under `options`: Λ = factor · max exit
/// rate (positive even for an all-absorbing chain), always quantized, so a
/// solve's result does not depend on whether a PoissonCache is attached.
double uniformization_rate(const MarkovChain& chain,
                           const UniformizationOptions& options) {
  return quantize_rate_up(
      std::max(chain.max_exit_rate() * options.rate_factor, 1e-12));
}

/// The uniformized DTMC step y := x P, P = I + Q/Λ, shared by all solvers,
/// plus the steady-state detector both solve_transient and
/// solve_accumulated consult (the shared flag keeps the cutoff semantics
/// identical).
///
/// The product gathers over the transpose of the rate matrix, held as a
/// SlicedTranspose: each slice sums 8 output rows at once, one per lane, and
/// each row keeps left_multiply's scatter order, so the result has the
/// scatter product's bits.  The slice loop is picked once per stepper: AVX2
/// gathers where the CPU has AVX2, the same loop in scalar code elsewhere.
/// The rest of the per-iteration element work is fused onto each chunk of
/// row sums while they are in L1: the /Λ scaling and I·self_prob term, the
/// Poisson accumulation acc[s] += w·x[s], and the steady-state max-norm
/// diff, in one pass over the state vectors.
class DtmcStepper {
 public:
  DtmcStepper(const MarkovChain& chain, double unif_rate, double steady_tol)
      : unif_rate_(unif_rate),
        steady_tol_(steady_tol),
        self_prob_(chain.num_states),
        sliced_(chain.rates),
        sum_(pick_sum()) {
    for (std::uint32_t s = 0; s < chain.num_states; ++s)
      self_prob_[s] = 1.0 - chain.exit_rate[s] / unif_rate;
  }

  /// Fused step: y := x P; when `acc` is non-null, acc[s] += w·x[s] rides
  /// along.  Returns ‖y − x‖∞ and latches steady() when the diff drops
  /// below the construction-time tolerance.
  double step(const std::vector<double>& x, std::vector<double>& y, double w,
              std::vector<double>* acc) {
    const double diff = acc != nullptr ? run<true>(x, y, w, acc->data())
                                       : run<false>(x, y, 0.0, nullptr);
    if (steady_tol_ > 0.0 && diff < steady_tol_) steady_ = true;
    return diff;
  }

  /// The DTMC iterate has converged (‖ΔΠ‖∞ below the tolerance).  Latched
  /// until reset_steady(); callers reset at each interval boundary.
  bool steady() const { return steady_; }
  void reset_steady() { steady_ = false; }

  /// Whether the AVX2 slice loop runs the product.
  bool avx2() const { return sum_ != &SlicedTranspose::sum_scalar; }

 private:
  using SumFn = void (SlicedTranspose::*)(std::uint32_t, std::uint32_t,
                                          const double*, double*) const;

  /// Slices summed per call; their 512 row sums stay in L1 for the finish.
  static constexpr std::uint32_t kChunkSlices = 64;

  static SumFn pick_sum() {
#if defined(__x86_64__)
    if (SlicedTranspose::avx2_supported()) return &SlicedTranspose::sum_avx2;
#endif
    return &SlicedTranspose::sum_scalar;
  }

  template <bool kWithAcc>
  double run(const std::vector<double>& x, std::vector<double>& y, double w,
             double* acc) const {
    const double* xs = x.data();
    const double* sp = self_prob_.data();
    double* ys = y.data();
    double max_diff = 0.0;
    const auto finish = [&](std::uint32_t r, double g) {
      g /= unif_rate_;
      g += xs[r] * sp[r];
      max_diff = std::max(max_diff, std::abs(g - xs[r]));
      if constexpr (kWithAcc) acc[r] += w * xs[r];
      ys[r] = g;
    };
    constexpr std::uint32_t kLanes = SlicedTranspose::kLanes;
    const std::span<const std::uint32_t> rows = sliced_.slot_rows();
    const std::uint32_t slices = sliced_.slices();
    std::array<double, std::size_t{kChunkSlices} * kLanes> sums{};
    for (std::uint32_t s = 0; s < slices; s += kChunkSlices) {
      const std::uint32_t last = std::min(slices, s + kChunkSlices);
      (sliced_.*sum_)(s, last, xs, sums.data());
      const std::size_t base = std::size_t{s} * kLanes;
      const std::size_t end = std::min(rows.size(), std::size_t{last} * kLanes);
      for (std::size_t i = base; i < end; ++i) finish(rows[i], sums[i - base]);
    }
    const std::span<const std::uint32_t> long_rows = sliced_.long_rows();
    for (std::size_t i = 0; i < long_rows.size(); ++i)
      finish(long_rows[i], sliced_.long_row_sum(i, xs));
    return max_diff;
  }

  double unif_rate_;
  double steady_tol_;
  bool steady_ = false;
  std::vector<double> self_prob_;
  SlicedTranspose sliced_;
  SumFn sum_;
};

// ---- kAdaptive machinery -------------------------------------------------

/// Length of the diff-history ring buffer backing the plateau lookback
/// check: a slowly decaying flux passes the consecutive-step flatness test
/// long before it passes |diff_k − diff_{k−64}| ≤ tol·diff.
constexpr std::uint64_t kQsLookback = 64;

/// Minimum window tail (in DTMC steps) left for a plateau closure to fire:
/// below this the exact iterations are cheap and the extrapolation only
/// adds (tiny, but nonzero) model error.
constexpr std::uint64_t kQsMinTail = 128;

/// Relative flatness tolerance for the quasi-stationary flux plateau:
/// |diff_k − diff_{k−1}| ≤ kQsRelTol·diff_k counts as a stable step.
constexpr double kQsRelTol = 1e-4;

/// Consecutive stable steps (plus the lookback check over 2× this span)
/// required before the plateau extrapolation fires on a cold solve.
constexpr int kQsConfirm = 32;

/// Consecutive stable steps required once the current shape has been
/// validated against a warm-start neighbor (the neighbor's converged shape
/// replaces the slow self-evidence).
constexpr int kQsConfirmWarm = 4;

/// ∞-norm tolerance for validating the normalized transient shape against a
/// warm-start entry.
constexpr double kWarmShapeTol = 1e-3;

/// Normalized transient shape of a distribution: transient entries divided
/// by their total mass, absorbing entries zero (what WarmStart stores).
std::vector<double> normalized_shape(const std::vector<double>& exit_rate,
                                     const std::vector<double>& v) {
  const std::size_t n = v.size();
  std::vector<double> shape(n, 0.0);
  double mass = 0.0;
  for (std::size_t s = 0; s < n; ++s)
    if (exit_rate[s] > 0.0) mass += v[s];
  if (mass <= 0.0) return shape;
  for (std::size_t s = 0; s < n; ++s)
    if (exit_rate[s] > 0.0) shape[s] = v[s] / mass;
  return shape;
}

/// ∞-norm comparison of v's normalized transient shape against a published
/// warm-start shape.
bool shape_matches(const std::vector<double>& exit_rate,
                   const std::vector<double>& v,
                   const std::vector<double>& shape, double tol) {
  if (shape.size() != v.size()) return false;
  double mass = 0.0;
  for (std::size_t s = 0; s < v.size(); ++s)
    if (exit_rate[s] > 0.0) mass += v[s];
  if (mass <= 0.0) return false;
  double dev = 0.0;
  for (std::size_t s = 0; s < v.size(); ++s)
    if (exit_rate[s] > 0.0)
      dev = std::max(dev, std::abs(v[s] / mass - shape[s]));
  return dev <= tol;
}

/// Closes Poisson window indices [k+1, right] analytically from the plateau
/// pair (v_k, v_{k+1}).  Post-mixing the distribution sits on its
/// quasi-stationary mode: transient states scale by ρ = 1 − κ per DTMC step
/// (κ measured as the pair's one-step transient-mass loss fraction) and
/// each absorbing state a gains its measured one-step inflow
/// φ_a = v_{k+1}[a] − v_k[a] scaled by the same geometric decay.  The
/// scalars go through log1p/expm1 — κ is routinely ~1e-16·Λt, where forming
/// ρ = 1 − κ directly would round to 1.0 and silently stop the decay.
void qs_close_window(const std::vector<double>& exit_rate,
                     const PoissonWindow& win, std::uint64_t k,
                     const std::vector<double>& v_k,
                     const std::vector<double>& v_k1, std::vector<double>& acc,
                     double& remaining) {
  const std::size_t n = exit_rate.size();
  double m0 = 0.0, m1 = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    if (exit_rate[s] > 0.0) {
      m0 += v_k[s];
      m1 += v_k1[s];
    }
  }
  const double kappa =
      m0 > 0.0 ? std::clamp((m0 - m1) / m0, 0.0, 1.0) : 0.0;
  const double log_rho = kappa < 1.0 ? std::log1p(-kappa) : -1e300;
  double mass = 0.0, geo = 0.0, tail = 0.0;
  for (std::uint64_t kp = std::max(k + 1, win.left); kp <= win.right; ++kp) {
    const double w = win.weight[kp - win.left];
    const double j = static_cast<double>(kp - (k + 1));
    const double rho_j = std::exp(j * log_rho);
    const double tail_j =
        kappa > 0.0 ? -std::expm1(j * log_rho) / kappa : j;
    mass += w;
    geo += w * rho_j;
    tail += w * tail_j;
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (exit_rate[s] > 0.0)
      acc[s] += geo * v_k1[s];
    else
      acc[s] += mass * v_k1[s] + tail * (v_k1[s] - v_k[s]);
  }
  remaining = std::max(0.0, remaining - mass);
}

}  // namespace

PoissonWindow poisson_window(double lambda, double epsilon) {
  AHS_REQUIRE(lambda >= 0.0, "Poisson rate must be >= 0");
  AHS_REQUIRE(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
  PoissonWindow w;
  if (lambda == 0.0) {
    w.left = w.right = 0;
    w.weight = {1.0};
    return w;
  }
  const auto mode = static_cast<std::uint64_t>(std::floor(lambda));

  // Expand left and right until the *relative* tail terms are negligible.
  // Work with weights relative to the mode term, P(k)/P(mode), to avoid
  // underflow.
  std::vector<double> right_w;
  double scaled = 1.0;  // mode term
  std::uint64_t right = mode;
  right_w.push_back(scaled);
  const double cut = epsilon / 4.0;
  while (true) {
    ++right;
    scaled *= lambda / static_cast<double>(right);
    if (scaled < cut * 1e-4 && right > mode + 2) break;
    right_w.push_back(scaled);
    if (right > mode + 100000000)
      throw util::NumericalError("Poisson window expansion runaway");
  }

  std::vector<double> left_w;  // mode-1 downwards
  scaled = 1.0;
  std::uint64_t left = mode;
  while (left > 0) {
    scaled *= static_cast<double>(left) / lambda;
    --left;
    if (scaled < cut * 1e-4 && left + 2 < mode) break;
    left_w.push_back(scaled);
  }

  w.left = mode - left_w.size();
  w.right = mode + right_w.size() - 1;

  w.weight.resize(right_w.size() + left_w.size());
  for (std::size_t i = 0; i < left_w.size(); ++i)
    w.weight[left_w.size() - 1 - i] = left_w[i];
  for (std::size_t i = 0; i < right_w.size(); ++i)
    w.weight[left_w.size() + i] = right_w[i];

  // Normalize: the true weights are weight[i] · P(mode); dividing by the
  // window total both normalizes and absorbs that factor (the discarded
  // tail mass is within epsilon by construction).
  double total = 0.0;
  for (double x : w.weight) total += x;
  AHS_ASSERT(total > 0.0, "Poisson window has zero mass");
  for (double& x : w.weight) x /= total;
  return w;
}

AccumulatedSolution solve_accumulated(const MarkovChain& chain,
                                      std::span<const double> reward,
                                      std::span<const double> time_points,
                                      const UniformizationOptions& options) {
  AHS_REQUIRE(reward.size() == chain.num_states,
              "reward vector size mismatch");
  AHS_REQUIRE(!time_points.empty(), "need at least one time point");
  double prev_t = 0.0;
  for (double t : time_points) {
    AHS_REQUIRE(t >= prev_t,
                "time points must be non-decreasing and non-negative");
    prev_t = t;
  }

  AHS_SPAN("uniformization.accumulated");
  UnifTelemetry tm;
  if (tm.on) tm.solves.inc();

  const std::uint32_t n = chain.num_states;
  const double unif_rate = uniformization_rate(chain, options);
  DtmcStepper dtmc_step(chain, unif_rate, options.steady_state_tol);
  if (tm.on) tm.avx2.set(dtmc_step.avx2() ? 1.0 : 0.0);
  PoissonCache local_cache;
  PoissonCache& cache =
      options.poisson_cache != nullptr ? *options.poisson_cache : local_cache;
  std::shared_ptr<const PoissonWindow> window;
  double window_lambda = 0.0;

  AccumulatedSolution sol;
  sol.time_points.assign(time_points.begin(), time_points.end());

  std::vector<double> pi = chain.initial;
  double pi_time = 0.0;
  double total = 0.0;

  std::vector<double> v(n), v_next(n), pi_acc(n);
  for (double t : time_points) {
    const double dt = t - pi_time;
    if (dt > 0.0) {
      // A constant Δt repeats λ: keep the last window, no cache lookup.
      const double lambda = unif_rate * dt;
      if (window == nullptr || lambda != window_lambda) {
        window = cached_window(cache, lambda, options.epsilon, tm);
        window_lambda = lambda;
      }
      const PoissonWindow& win = *window;
      tm.tr_window.instant(sol.accumulated.size(), win.right);
      // Survival function of the Poisson count: P(N ≥ k+1).  Below the
      // window it is ≈ 1; inside it decreases by the pmf weights; above
      // it is ≈ 0.
      v = pi;
      std::fill(pi_acc.begin(), pi_acc.end(), 0.0);
      double survival = 1.0;
      double interval_acc = 0.0;
      bool steady = false;
      dtmc_step.reset_steady();
      for (std::uint64_t k = 0; k <= win.right; ++k) {
        if (k >= win.left) survival -= win.weight[k - win.left];
        const double coeff = std::max(0.0, survival);
        if (coeff > 0.0) {
          double vr = 0.0;
          for (std::uint32_t s = 0; s < n; ++s) vr += v[s] * reward[s];
          interval_acc += coeff * vr;
        }
        // Advance the transient distribution weights alongside.
        if (k >= win.left)
          for (std::uint32_t s = 0; s < n; ++s)
            pi_acc[s] += win.weight[k - win.left] * v[s];
        ++sol.total_iterations;
        if (k == win.right) break;
        (void)dtmc_step.step(v, v_next, 0.0, nullptr);
        v.swap(v_next);
        if (dtmc_step.steady()) {
          // The DTMC iterate has converged (same detector solve_transient
          // uses): every remaining term sees the same vector, so the rest
          // of the interval closes in one scalar pass over the survival
          // weights instead of win.right − k more products.
          steady = true;
          tm.tr_steady.instant(k);
          double vr = 0.0;
          for (std::uint32_t s = 0; s < n; ++s) vr += v[s] * reward[s];
          double wsum = 0.0;
          for (std::uint64_t k2 = k + 1; k2 <= win.right; ++k2) {
            if (k2 >= win.left) {
              const double wk = win.weight[k2 - win.left];
              survival -= wk;
              wsum += wk;
            }
            const double coeff2 = std::max(0.0, survival);
            if (coeff2 > 0.0) interval_acc += coeff2 * vr;
          }
          for (std::uint32_t s = 0; s < n; ++s) pi_acc[s] += wsum * v[s];
          break;
        }
      }
      if (tm.on && steady) tm.steady_cutoffs.inc();
      total += interval_acc / unif_rate;
      pi = pi_acc;
      double mass = 0.0;
      for (double p : pi) mass += p;
      if (mass > 0.0 && std::abs(mass - 1.0) < 1e-6)
        for (double& p : pi) p /= mass;
      pi_time = t;
    }
    sol.accumulated.push_back(total);
  }
  if (tm.on) tm.iterations.add(sol.total_iterations);
  return sol;
}

TransientSolution solve_transient(const MarkovChain& chain,
                                  std::span<const double> reward,
                                  std::span<const double> time_points,
                                  const UniformizationOptions& options) {
  AHS_REQUIRE(reward.size() == chain.num_states,
              "reward vector size mismatch");
  AHS_REQUIRE(!time_points.empty(), "need at least one time point");
  double prev_t = 0.0;
  for (double t : time_points) {
    AHS_REQUIRE(t >= prev_t,
                "time points must be non-decreasing and non-negative");
    prev_t = t;
  }

  if (options.solver == TransientSolver::kKrylov)
    return solve_transient_krylov(chain, reward, time_points, options);

  AHS_SPAN("uniformization.transient");
  UnifTelemetry tm;
  if (tm.on) tm.solves.inc();

  const std::uint32_t n = chain.num_states;
  const double unif_rate = uniformization_rate(chain, options);
  const bool adaptive = options.solver == TransientSolver::kAdaptive;
  PoissonCache local_cache;
  PoissonCache& cache =
      options.poisson_cache != nullptr ? *options.poisson_cache : local_cache;
  std::shared_ptr<const PoissonWindow> window;
  double window_lambda = 0.0;

  TransientSolution sol;
  sol.time_points.assign(time_points.begin(), time_points.end());

  std::vector<double> pi = chain.initial;
  double pi_time = 0.0;

  // Built after pi: under glibc's dynamic mmap threshold the allocation
  // order moves a sweep's peak RSS (by 4% on the fig15 grid).
  DtmcStepper dtmc_step(chain, unif_rate, options.steady_state_tol);
  if (tm.on) tm.avx2.set(dtmc_step.avx2() ? 1.0 : 0.0);

  std::vector<double> v = pi, v_next(n), acc(n);
  std::uint64_t interval = 0;
  for (double t : time_points) {
    const double dt = t - pi_time;
    if (dt > 0.0) {
      // A constant Δt repeats λ: keep the last window, no cache lookup.
      const double lambda = unif_rate * dt;
      if (window == nullptr || lambda != window_lambda) {
        window = cached_window(cache, lambda, options.epsilon, tm);
        window_lambda = lambda;
      }
      const PoissonWindow& win = *window;
      tm.tr_window.instant(interval, win.right);
      std::fill(acc.begin(), acc.end(), 0.0);
      v = pi;
      double remaining = 1.0;
      bool steady = false;
      bool qs_fired = false;
      dtmc_step.reset_steady();

      // Plateau-detection state (kAdaptive only; one cold ring fill per
      // interval is noise next to a single matrix product).
      double prev_diff = -1.0;
      int stable = 0;
      std::array<double, kQsLookback> ring{};
      bool warm_ok = false;
      std::shared_ptr<const WarmStart> warm;
      std::uint64_t warm_key = 0;
      if (adaptive && options.warm_cache != nullptr) {
        warm_key = util::hash_mix(options.warm_key, interval);
        warm = options.warm_cache->find(warm_key);
      }

      for (std::uint64_t k = 0; k <= win.right; ++k) {
        const bool in_window = k >= win.left;
        const double w = in_window ? win.weight[k - win.left] : 0.0;
        ++sol.total_iterations;
        if (k == win.right) {
          // Final weight: no step left to fuse its accumulation into.
          if (in_window) {
            for (std::uint32_t s = 0; s < n; ++s) acc[s] += w * v[s];
            remaining -= w;
          }
          break;
        }
        // Fused iteration: the step carries this k's Poisson accumulation
        // acc[s] += w·v[s] along with the product and returns ‖v' − v‖∞
        // for steady-state detection — one pass over the vectors instead
        // of three.
        const double diff =
            dtmc_step.step(v, v_next, w, in_window ? &acc : nullptr);
        if (in_window) remaining -= w;
        if (dtmc_step.steady()) {
          steady = true;
          tm.tr_steady.instant(k);
          v.swap(v_next);
          break;
        }
        if (adaptive && win.right - k >= kQsMinTail) {
          // Quasi-stationary plateau: after mixing, the ∞-norm step diff
          // equals the constant absorption flux.  Cold evidence is
          // kQsConfirm consecutive flat steps PLUS flatness against the
          // diff kQsLookback steps back — the lookback rejects fluxes that
          // are decaying smoothly but slowly, which satisfy the
          // consecutive test long before the plateau is real.  A validated
          // warm-start shape replaces the lookback (that is where the
          // warm savings come from).
          const bool flat = diff > 0.0 && prev_diff >= 0.0 &&
                            std::abs(diff - prev_diff) <= kQsRelTol * diff;
          stable = flat ? stable + 1 : 0;
          const bool long_flat =
              k >= kQsLookback &&
              std::abs(diff - ring[k % kQsLookback]) <= kQsRelTol * diff;
          ring[k % kQsLookback] = diff;
          prev_diff = diff;
          if (warm != nullptr && !warm_ok && stable > 0 && (k & 15u) == 0u)
            warm_ok = shape_matches(chain.exit_rate, v_next, warm->shape,
                                    kWarmShapeTol);
          const bool fire = warm_ok ? stable >= kQsConfirmWarm
                                    : (stable >= kQsConfirm && long_flat);
          if (fire) {
            qs_close_window(chain.exit_rate, win, k, v, v_next, acc,
                            remaining);
            qs_fired = true;
            tm.tr_qs.instant(k, win.right);
            if (warm_ok) tm.tr_warm.instant(k);
            ++sol.qs_extrapolations;
            sol.warm_start_hit = sol.warm_start_hit || warm_ok;
            if (options.warm_cache != nullptr && options.warm_publish) {
              auto entry = std::make_shared<WarmStart>();
              entry->fired_at = k;
              entry->shape = normalized_shape(chain.exit_rate, v_next);
              options.warm_cache->store(warm_key, std::move(entry));
            }
            v.swap(v_next);
            break;
          }
        }
        v.swap(v_next);
      }
      if (steady && remaining > 0.0) {
        // The DTMC iterate has converged; the rest of the Poisson mass sees
        // the same vector.
        for (std::uint32_t s = 0; s < n; ++s) acc[s] += remaining * v[s];
      }
      if (tm.on) {
        if (steady) tm.steady_cutoffs.inc();
        if (qs_fired) tm.qs_extrapolations.inc();
        tm.truncation.set(std::max(0.0, remaining));
      }
      pi = acc;
      pi_time = t;
      // Guard against accumulated round-off: renormalize gently.
      double total = 0.0;
      for (double p : pi) total += p;
      if (total > 0.0 && std::abs(total - 1.0) < 1e-6)
        for (double& p : pi) p /= total;
    }
    double expect = 0.0;
    for (std::uint32_t s = 0; s < n; ++s) expect += pi[s] * reward[s];
    sol.expected_reward.push_back(expect);
    ++interval;
  }
  if (tm.on) tm.iterations.add(sol.total_iterations);
  return sol;
}

}  // namespace ctmc
