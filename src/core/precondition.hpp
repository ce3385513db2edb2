// Preconditioned solver drivers.
//
// Spec-based drivers over precond::PrecondHandle (src/precond/):
// right-preconditioned device-local ILU(k) with cached symbolic factors and
// level-scheduled triangular solves, charged inside the solve and composing
// with recovery/repartitioning. See DESIGN.md §15.
#pragma once

#include "core/solver_common.hpp"
#include "precond/precond.hpp"

namespace cagmres::core {

/// Result of a spec-based (handle) preconditioned solve: the solver
/// outcome plus the handle's cumulative telemetry (factor sizes, level
/// depths, cache reuse, charged setup seconds).
struct IluPreconditionedResult {
  SolveResult solve;
  precond::PrecondStats precond;
};

/// Spec-based preconditioned drivers: build a precond::PrecondHandle for
/// `spec`, point opts.precond at it, and delegate to the standard solver
/// (which factors lazily inside its fault-handling scope and rebuilds
/// affected device factors after a repartition). A kNone spec delegates
/// unpreconditioned — bit-for-bit the plain solver. The returned stats
/// are the handle's final state after the solve. The caller's problem is
/// never modified, and the numerical health monitor (core/health.hpp)
/// rides along through `opts.health` exactly as in the plain solvers.
IluPreconditionedResult preconditioned_gmres(sim::Machine& machine,
                                             const Problem& problem,
                                             const SolverOptions& opts,
                                             const precond::PrecondSpec& spec);
IluPreconditionedResult preconditioned_ca_gmres(
    sim::Machine& machine, const Problem& problem, const SolverOptions& opts,
    const precond::PrecondSpec& spec);
IluPreconditionedResult preconditioned_pipelined_gmres(
    sim::Machine& machine, const Problem& problem, const SolverOptions& opts,
    const precond::PrecondSpec& spec);

}  // namespace cagmres::core
