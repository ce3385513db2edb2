#include "core/precondition.hpp"

#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "core/pipelined.hpp"

namespace cagmres::core {

namespace {

/// Shared body of the spec-based drivers: a handle on the stack, wired
/// through opts.precond, outliving the delegated solve.
template <typename Solver>
IluPreconditionedResult solve_with_spec(const SolverOptions& opts,
                                        const precond::PrecondSpec& spec,
                                        Solver&& solver) {
  IluPreconditionedResult out;
  if (!spec.armed()) {
    out.solve = solver(opts);
    return out;
  }
  precond::PrecondHandle handle(spec);
  SolverOptions popts = opts;
  popts.precond = &handle;
  out.solve = solver(popts);
  out.precond = handle.stats();
  return out;
}

}  // namespace

IluPreconditionedResult preconditioned_gmres(
    sim::Machine& machine, const Problem& problem, const SolverOptions& opts,
    const precond::PrecondSpec& spec) {
  return solve_with_spec(opts, spec,
                         [&](const SolverOptions& o) {
                           return gmres(machine, problem, o);
                         });
}

IluPreconditionedResult preconditioned_ca_gmres(
    sim::Machine& machine, const Problem& problem, const SolverOptions& opts,
    const precond::PrecondSpec& spec) {
  return solve_with_spec(opts, spec,
                         [&](const SolverOptions& o) {
                           return ca_gmres(machine, problem, o);
                         });
}

IluPreconditionedResult preconditioned_pipelined_gmres(
    sim::Machine& machine, const Problem& problem, const SolverOptions& opts,
    const precond::PrecondSpec& spec) {
  return solve_with_spec(opts, spec,
                         [&](const SolverOptions& o) {
                           return pipelined_gmres(machine, problem, o);
                         });
}

}  // namespace cagmres::core
