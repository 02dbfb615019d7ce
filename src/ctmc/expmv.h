// Krylov (Arnoldi) matrix-exponential propagation for transient CTMC
// solution — the kKrylov engine behind ctmc::solve_transient.
//
// π(t)ᵀ = exp(Qᵀ t) · π(0)ᵀ is approximated in a Krylov subspace
// K_m(Qᵀ, v) with adaptive sub-stepping in the style of Expokit's dgexpv:
// per step, an Arnoldi factorization Qᵀ·V_m = V_{m+1}·H̄_m, a dense
// exponential of the small augmented matrix (scaling-and-squaring
// Padé(13)), and an a-posteriori local error estimate from the two extra
// rows of the augmented exponential that drives the step-size control.
//
// This is an *independent numerical method* from uniformization — no
// Poisson weights, no DTMC powers — which is exactly why it exists here:
// it is the cross-check oracle the adaptive uniformization engine is
// certified against (tests/test_solvers.cpp).  The iteration unit reported
// in TransientSolution::total_iterations is matrix-vector products, the
// same unit the uniformization engines report.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ctmc/chain.h"
#include "ctmc/uniformization.h"

namespace ctmc {

/// The absolute round-off floor on each entry of the vector a Krylov
/// propagation over horizon `t` returns, for operator norm bound `anorm`
/// (‖Qᵀ‖ estimate); it bounds no reward's relative error.  The local-error
/// estimator measures Krylov *truncation* error only, so a requested
/// tolerance below ε_mach·max(1, anorm·t) is noise — the solve silently
/// carries O(floor) round-off no matter what the estimator claims.  The
/// Krylov transient solver compares its tolerance against this and raises
/// TransientSolution::tol_floor_hit instead of certifying the impossible.
double expmv_tol_floor(double anorm, double t);

/// solve_transient with the Krylov engine; ctmc::solve_transient dispatches
/// here for UniformizationOptions::solver == kKrylov.  Uses
/// options.krylov_tol (or options.epsilon when 0) as the per-interval
/// error budget, with a 30-dimensional Arnoldi subspace.  The product
/// gathers over the transposed rate matrix in the uniformization stepper's
/// accumulation order.
TransientSolution solve_transient_krylov(const MarkovChain& chain,
                                         std::span<const double> reward,
                                         std::span<const double> time_points,
                                         const UniformizationOptions& options);

/// Dense exp(A) for a row-major m×m matrix by scaling-and-squaring
/// Padé(13) (Higham 2005).  Exposed for testing; the solver only ever
/// calls it with (Arnoldi dimension + 2)-sized matrices.
std::vector<double> dense_expm(const std::vector<double>& a, int m);

}  // namespace ctmc
