// Standard restarted GMRES(m) on the simulated multi-GPU machine
// (paper §III, Fig. 1).
//
// Arnoldi with MGS or CGS orthogonalization per iteration, Givens
// least-squares monitoring, restart after m iterations, convergence at a
// `tol` relative residual reduction. All SpMV and Orth costs are charged to
// the machine, phase-labelled "spmv" and "orth".
#pragma once

#include "core/restart_driver.hpp"
#include "core/solver_common.hpp"
#include "mpk/exec.hpp"
#include "sim/machine.hpp"

namespace cagmres::core {

/// Solves the prepared problem with GMRES(opts.m); returns the solution in
/// the caller's original ordering/scaling plus telemetry.
SolveResult gmres(sim::Machine& machine, const Problem& problem,
                  const SolverOptions& opts);

namespace detail {

/// One Arnoldi restart cycle (shared with CA-GMRES's shift-harvesting first
/// restart): V(:,0) must hold the unit starting vector; generates up to m
/// more columns, orthogonalizing each with `orth`. Stops early when the
/// least-squares residual drops to `abs_tol` or on happy breakdown.
struct CycleOutcome {
  int k = 0;                ///< basis columns generated (H has k columns)
  blas::DMat h;             ///< (m+1) x m raw Hessenberg (cols 0..k-1 valid)
  std::vector<double> y;    ///< LS solution for the k columns
  double ls_residual = 0.0; ///< final least-squares residual estimate
  int replays = 0;          ///< iterations re-run by the health scrub
};

/// `max_replays` > 0 enables the recovery scrub: each iteration's Hessenberg
/// column and norm (computed anyway — a free checksum) are checked for
/// NaN/Inf before the iteration is accepted; a poisoned iteration is re-run
/// up to max_replays times, after which the cycle stops early at the last
/// clean column. 0 (the fault-free default) changes nothing.
///
/// `pc` non-null runs the right-preconditioned recurrence: each step stages
/// M^{-1} v_j (in the executor's scratch multivector) and multiplies A into
/// that, building a basis of A M^{-1}. The caller must then apply M^{-1}
/// once inside the solution update (update_solution with the same `pc`).
CycleOutcome arnoldi_cycle(sim::Machine& machine, mpk::MpkExecutor& spmv,
                           sim::DistMultiVec& v, int m, ortho::Method orth,
                           double beta, double abs_tol, int max_replays = 0,
                           precond::PrecondHandle* pc = nullptr);

/// The GMRES restart cycle: arnoldi_cycle from ctx.v(:,0) with `orth`,
/// then the least-squares update of x. gmres() runs it every restart;
/// CA-GMRES runs it for its shift-harvesting first restart and its
/// fallback rung.
CycleOutcome gmres_cycle(RestartContext& ctx, ortho::Method orth);

/// y(:, ycol) := A x(:, xcol), or A M^{-1} x(:, xcol) when `pc` is armed:
/// M^{-1} x is staged in column `stage_col` of the executor's
/// stage(stage_cols) between the trisolve and the SpMV.
void apply_operator(sim::Machine& machine, mpk::MpkExecutor& spmv,
                    precond::PrecondHandle* pc, const sim::DistMultiVec& x,
                    int xcol, sim::DistMultiVec& y, int ycol,
                    int stage_cols = 2, int stage_col = 0);

/// r := b - A x into column rcol of v, where x lives in column xcol of
/// `xwork` (a 2-column scratch multivector) — or r := b when first is true.
/// Returns ||r|| (reduced on the host).
double compute_residual(sim::Machine& machine, mpk::MpkExecutor& spmv,
                        const sim::DistVec& b, sim::DistMultiVec& xwork,
                        sim::DistMultiVec& v, int rcol, bool first);

/// x (column 0 of xwork) += V(:, 0:k) * y, broadcasting y to the devices.
/// Right-preconditioned (`pc` non-null): x += M^{-1} (V(:, 0:k) y), staging
/// V y in `stage` (columns 0 and 1; pass the executor's stage(2)) so x
/// stays the true-space iterate.
void update_solution(sim::Machine& machine, sim::DistMultiVec& v, int k,
                     const std::vector<double>& y, sim::DistMultiVec& xwork,
                     precond::PrecondHandle* pc = nullptr,
                     sim::DistMultiVec* stage = nullptr);

}  // namespace detail

}  // namespace cagmres::core
