#include "ctmc/expmv.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "ctmc/sparse.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/spans.h"

namespace ctmc {
namespace {

/// Arnoldi subspace dimension.
constexpr int kKrylovDim = 30;

/// y := Qᵀ x = Rᵀ x − exit ∘ x, gathered over the transpose of the
/// off-diagonal rate matrix R: every output entry accumulates in the
/// uniformization stepper's order.
class AdjointOp {
 public:
  explicit AdjointOp(const MarkovChain& chain)
      : exit_(&chain.exit_rate), transposed_(chain.rates.transposed()) {}

  void apply(const std::vector<double>& x, std::vector<double>& y) const {
    transposed_.right_multiply(x, y);
    for (std::size_t r = 0; r < y.size(); ++r) y[r] -= (*exit_)[r] * x[r];
  }

 private:
  const std::vector<double>* exit_;
  CsrMatrix transposed_;
};

// ---- dense p×p helpers (p ≤ kKrylovDim + 2, so cubic cost is noise) -----

std::vector<double> matmul(const std::vector<double>& a,
                           const std::vector<double>& b, int p) {
  std::vector<double> c(static_cast<std::size_t>(p) * p, 0.0);
  for (int i = 0; i < p; ++i)
    for (int k = 0; k < p; ++k) {
      const double aik = a[i * p + k];
      if (aik == 0.0) continue;
      for (int j = 0; j < p; ++j) c[i * p + j] += aik * b[k * p + j];
    }
  return c;
}

void add_scaled(std::vector<double>& dst, const std::vector<double>& src,
                double f) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += f * src[i];
}

/// Solves A·X = B (both p×p row-major) by partial-pivot LU; returns X.
std::vector<double> lu_solve(std::vector<double> a, std::vector<double> b,
                             int p) {
  for (int c = 0; c < p; ++c) {
    int best = c;
    for (int r = c + 1; r < p; ++r)
      if (std::abs(a[r * p + c]) > std::abs(a[best * p + c])) best = r;
    if (best != c) {
      for (int j = 0; j < p; ++j) std::swap(a[c * p + j], a[best * p + j]);
      for (int j = 0; j < p; ++j) std::swap(b[c * p + j], b[best * p + j]);
    }
    const double d = a[c * p + c];
    if (d == 0.0)
      throw util::NumericalError("dense_expm: singular Padé denominator");
    for (int r = c + 1; r < p; ++r) {
      const double f = a[r * p + c] / d;
      if (f == 0.0) continue;
      for (int j = c; j < p; ++j) a[r * p + j] -= f * a[c * p + j];
      for (int j = 0; j < p; ++j) b[r * p + j] -= f * b[c * p + j];
    }
  }
  for (int c = p - 1; c >= 0; --c) {
    const double d = a[c * p + c];
    for (int j = 0; j < p; ++j) {
      double s = b[c * p + j];
      for (int r = c + 1; r < p; ++r) s -= a[c * p + r] * b[r * p + j];
      b[c * p + j] = s / d;
    }
  }
  return b;
}

}  // namespace

std::vector<double> dense_expm(const std::vector<double>& a_in, int p) {
  AHS_REQUIRE(a_in.size() == static_cast<std::size_t>(p) * p,
              "dense_expm: size mismatch");
  // Padé(13) is backward stable for ‖A‖₁ ≤ θ₁₃; larger norms are halved
  // into range and squared back (Higham 2005).
  constexpr double kTheta13 = 5.371920351148152;
  std::vector<double> a = a_in;
  double norm = 0.0;
  for (int i = 0; i < p; ++i) {
    double row = 0.0;
    for (int j = 0; j < p; ++j) row += std::abs(a[i * p + j]);
    norm = std::max(norm, row);
  }
  int squarings = 0;
  if (norm > kTheta13) {
    squarings = static_cast<int>(std::ceil(std::log2(norm / kTheta13)));
    const double scale = std::ldexp(1.0, -squarings);
    for (double& x : a) x *= scale;
  }
  static constexpr double b[14] = {
      64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
      1187353796428800.0,  129060195264000.0,   10559470521600.0,
      670442572800.0,      33522128640.0,       1323241920.0,
      40840800.0,          960960.0,            16380.0,
      182.0,               1.0};
  std::vector<double> id(static_cast<std::size_t>(p) * p, 0.0);
  for (int i = 0; i < p; ++i) id[i * p + i] = 1.0;
  const std::vector<double> a2 = matmul(a, a, p);
  const std::vector<double> a4 = matmul(a2, a2, p);
  const std::vector<double> a6 = matmul(a2, a4, p);

  std::vector<double> t(static_cast<std::size_t>(p) * p, 0.0);
  add_scaled(t, a6, b[13]);
  add_scaled(t, a4, b[11]);
  add_scaled(t, a2, b[9]);
  std::vector<double> u = matmul(a6, t, p);
  add_scaled(u, a6, b[7]);
  add_scaled(u, a4, b[5]);
  add_scaled(u, a2, b[3]);
  add_scaled(u, id, b[1]);
  u = matmul(a, u, p);

  std::fill(t.begin(), t.end(), 0.0);
  add_scaled(t, a6, b[12]);
  add_scaled(t, a4, b[10]);
  add_scaled(t, a2, b[8]);
  std::vector<double> v = matmul(a6, t, p);
  add_scaled(v, a6, b[6]);
  add_scaled(v, a4, b[4]);
  add_scaled(v, a2, b[2]);
  add_scaled(v, id, b[0]);

  std::vector<double> num = v;
  add_scaled(num, u, 1.0);
  std::vector<double> den = std::move(v);
  add_scaled(den, u, -1.0);
  std::vector<double> x = lu_solve(std::move(den), std::move(num), p);
  for (int s = 0; s < squarings; ++s) x = matmul(x, x, p);
  return x;
}

namespace {

struct ExpmvResult {
  /// exp(Qᵀ t) · v.
  std::vector<double> w;
  /// Matrix-vector products performed (Arnoldi + error-estimate products).
  std::uint64_t matvecs = 0;
};

/// w = exp(Qᵀ t) · v0 with local error ≲ `tol` (absolute, on the vector),
/// over a prebuilt operator (so multi-interval solves build the transpose
/// once).
ExpmvResult run_expmv(const AdjointOp& op, std::uint32_t n, double anorm,
                      std::span<const double> v0, double t, double tol) {
  ExpmvResult res;
  res.w.assign(v0.begin(), v0.end());
  if (t <= 0.0 || n == 0) return res;
  if (tol <= 0.0) tol = 1e-12;
  const int m = std::clamp(
      kKrylovDim, 1, static_cast<int>(std::min<std::uint32_t>(n, 60)));
  const int pdim = m + 2;
  const double tol_rate = tol / t;  // local error budget per unit time
  std::vector<std::vector<double>> V(
      static_cast<std::size_t>(m) + 1, std::vector<double>(n, 0.0));
  std::vector<double> p_vec(n), w_next(n);
  std::vector<double> H(static_cast<std::size_t>(pdim) * pdim, 0.0);
  double t_done = 0.0;
  double tau = t;
  int outer = 0;
  while (t_done < t) {
    if (++outer > 100000)
      throw util::NumericalError("expmv: step control failed to advance");
    double beta = 0.0;
    for (double x : res.w) beta += x * x;
    beta = std::sqrt(beta);
    if (beta == 0.0) break;
    for (std::uint32_t s = 0; s < n; ++s) V[0][s] = res.w[s] / beta;
    std::fill(H.begin(), H.end(), 0.0);

    // Arnoldi with modified Gram–Schmidt.
    int mb = m;
    bool happy = false;
    for (int j = 0; j < m; ++j) {
      op.apply(V[j], p_vec);
      ++res.matvecs;
      for (int i = 0; i <= j; ++i) {
        double h = 0.0;
        for (std::uint32_t s = 0; s < n; ++s) h += V[i][s] * p_vec[s];
        H[i * pdim + j] = h;
        for (std::uint32_t s = 0; s < n; ++s) p_vec[s] -= h * V[i][s];
      }
      double hs = 0.0;
      for (double x : p_vec) hs += x * x;
      hs = std::sqrt(hs);
      if (hs <= 1e-14 * std::max(1.0, anorm)) {
        // Happy breakdown: the subspace is invariant, the small
        // exponential is exact — take the rest of the horizon in one step.
        happy = true;
        mb = j + 1;
        break;
      }
      H[(j + 1) * pdim + j] = hs;
      for (std::uint32_t s = 0; s < n; ++s) V[j + 1][s] = p_vec[s] / hs;
    }
    double avnorm = 0.0;
    if (!happy) {
      op.apply(V[m], p_vec);
      ++res.matvecs;
      for (double x : p_vec) avnorm += x * x;
      avnorm = std::sqrt(avnorm);
    }

    double tau_step = happy ? t - t_done : std::min(tau, t - t_done);
    const int pb = mb + 2;
    std::vector<double> F;
    double err_loc = 0.0;
    for (;;) {
      // Augmented (mb+2)² matrix (Sidje 1998): the two extra columns turn
      // exp into the φ-functions the error estimate reads off rows mb and
      // mb+1 of the first column.
      std::vector<double> Hb(static_cast<std::size_t>(pb) * pb, 0.0);
      for (int i = 0; i <= mb && i < pb; ++i)
        for (int j = 0; j < mb; ++j)
          Hb[i * pb + j] = tau_step * H[i * pdim + j];
      Hb[(mb + 1) * pb + mb] = tau_step * 1.0;
      F = dense_expm(Hb, pb);
      if (happy) break;
      const double err1 = std::abs(beta * F[mb * pb + 0]);
      const double err2 = std::abs(beta * F[(mb + 1) * pb + 0]) * avnorm;
      if (err1 > 10.0 * err2)
        err_loc = err2;
      else if (err1 > err2)
        err_loc = err1 * err2 / (err1 - err2);
      else
        err_loc = err1;
      if (err_loc <= 1.2 * tau_step * tol_rate) break;
      tau_step *= 0.5;
      if (tau_step < t * 1e-12)
        throw util::NumericalError("expmv: step size collapsed");
    }

    const int mx = happy ? mb : mb + 1;
    std::fill(w_next.begin(), w_next.end(), 0.0);
    for (int i = 0; i < mx; ++i) {
      const double f = beta * F[i * pb + 0];
      if (f == 0.0) continue;
      const double* vi = V[i].data();
      for (std::uint32_t s = 0; s < n; ++s) w_next[s] += f * vi[s];
    }
    res.w.swap(w_next);
    t_done += tau_step;
    if (!happy) {
      const double grow =
          0.9 * std::pow(1.2 * tau_step * tol_rate /
                             std::max(err_loc, 1e-300),
                         1.0 / static_cast<double>(m));
      tau = tau_step * std::clamp(grow, 0.2, 5.0);
    }
  }
  return res;
}

}  // namespace

double expmv_tol_floor(double anorm, double t) {
  // One matvec loses ~ε_mach·‖A‖·‖x‖; over a horizon the losses compound
  // proportionally to anorm·t (the number of unit-norm sub-steps the
  // controller needs).  The factor 4 covers the Gram–Schmidt and dense-expm
  // round-off on top of the products — deliberately a *lower* bound on the
  // real error, so a flagged solve is certainly degraded.
  constexpr double kEps = 2.220446049250313e-16;
  return 4.0 * kEps * std::max(1.0, anorm * t);
}

TransientSolution solve_transient_krylov(const MarkovChain& chain,
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

  AHS_SPAN("uniformization.krylov");
  bool on = false;
  util::Counter solves, iterations;
  if (util::MetricsRegistry* reg = util::MetricsRegistry::global()) {
    on = true;
    solves = reg->counter("ctmc.uniformization.solves");
    iterations = reg->counter("ctmc.uniformization.iterations");
    solves.inc();
  }

  const std::uint32_t n = chain.num_states;
  const double tol =
      options.krylov_tol > 0.0 ? options.krylov_tol : options.epsilon;
  const AdjointOp op(chain);
  const double anorm = 2.0 * chain.max_exit_rate();

  TransientSolution sol;
  sol.time_points.assign(time_points.begin(), time_points.end());

  std::vector<double> pi = chain.initial;
  double pi_time = 0.0;
  for (double t : time_points) {
    const double dt = t - pi_time;
    if (dt > 0.0) {
      // Tolerance-floor check (per interval — the floor grows with the
      // horizon): a request below the round-off floor is recorded as a
      // degraded certification, never silently passed.  The solve itself
      // still runs at the requested tolerance so results are unchanged.
      const double floor = expmv_tol_floor(anorm, dt);
      if (tol < floor) {
        sol.tol_floor_hit = true;
        sol.achievable_tol = std::max(sol.achievable_tol, floor);
      }
      ExpmvResult r = run_expmv(op, n, anorm, pi, dt, tol);
      pi = std::move(r.w);
      sol.total_iterations += r.matvecs;
      double total = 0.0;
      for (double p : pi) total += p;
      if (total > 0.0 && std::abs(total - 1.0) < 1e-6)
        for (double& p : pi) p /= total;
      pi_time = t;
    }
    double expect = 0.0;
    for (std::uint32_t s = 0; s < n; ++s) expect += pi[s] * reward[s];
    sol.expected_reward.push_back(expect);
  }
  if (on) iterations.add(sol.total_iterations);
  if (sol.tol_floor_hit) {
    // The explicit signal the 1e-12 tail certifications need: the
    // estimator's "error ≤ tol" claim on the vector is only good to the
    // round-off floor.
    if (util::MetricsRegistry* reg = util::MetricsRegistry::global()) {
      reg->counter("ctmc.expmv.tol_floor_hits").inc();
      reg->gauge("ctmc.expmv.tol_floor").set(sol.achievable_tol);
    }
    // Only a tolerance the caller asked for is worth a warning: the
    // epsilon fallback (LumpedModel::unsafety pins it to 1e-14) sits below
    // the floor of the figures' chains (fig12's n = 10, λ = 1e-4: 3.7e-12),
    // so it would warn on every lumped kKrylov solve.
    if (options.krylov_tol > 0.0) {
      AHS_LOGM_WARN("ctmc")
          << "krylov: requested tolerance " << tol
          << " is below the round-off floor " << sol.achievable_tol
          << " for this solve (‖Qᵀ‖·t ≈ " << anorm * time_points.back()
          << "); the floor bounds round-off on each entry of the "
             "distribution vector, not on the reward: a reward well above "
             "it keeps its digits, one near or below it needs the "
             "adaptive/standard engine";
    }
  }
  return sol;
}

}  // namespace ctmc
