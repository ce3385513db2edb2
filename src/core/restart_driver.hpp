// The restart loop every Krylov solver shares (DESIGN.md §7.3).
//
// GMRES, CA-GMRES and pipelined GMRES differ only in how one restart cycle
// builds and orthogonalizes its basis. Everything around the cycle — the
// true residual and its NaN rollback, the checkpoint, convergence and
// health checks, the escalation ladder's dispatch, repartition after a
// device loss, the host-only degradation floor and the final statistics —
// lives once, in run_restarts(). A solver implements RestartCycle and
// hands it to the driver.
#pragma once

#include <functional>
#include <vector>

#include "core/solver_common.hpp"
#include "mpk/exec.hpp"
#include "sim/machine.hpp"

namespace cagmres::core::detail {

/// The driver state one cycle reads and updates. Rebuilt every restart, so
/// the references always point at the current (possibly repartitioned)
/// distributed state.
struct RestartContext {
  sim::Machine& machine;
  const SolverOptions& opts;
  bool resilient;                ///< fault injection armed at entry
  const std::vector<int>& rows;  ///< device row split of the current problem
  mpk::MpkExecutor& spmv;        ///< 1-step SpMV executor of that problem
  sim::DistMultiVec& v;          ///< basis; v(:,0) = r / beta on entry
  sim::DistMultiVec& xwork;      ///< x in column 0, scratch in column 1
  SolveStats& st;
  SolveHealthMonitor& hm;
  /// Answers a monitor trip: applies the next applicable ladder rung, or
  /// throws kDeadlineExceeded for a progress-class trip with none left.
  const std::function<void(HealthEventKind)>& respond;
  int restart;     ///< restarts completed before this cycle
  double beta;     ///< ||b - A x|| that scaled v(:,0)
  double abs_tol;  ///< opts.tol * initial residual

  /// x += V(:, 0:k) y (x += M^{-1} V(:, 0:k) y when preconditioned).
  void update_solution(int k, const std::vector<double>& y);
};

/// What one cycle reports back to the driver.
struct CycleReport {
  int k = 0;                  ///< basis columns folded into x (0: x unchanged)
  double ls_residual = -1.0;  ///< the cycle's recurrence residual estimate
  bool tainted = false;       ///< persistent poison: roll x back, redo restart
};

/// One solver's restart cycle. The object lives in the solver's frame,
/// outside run_restarts, so the buffers it owns outlive the driver's
/// DrainGuard: on an exceptional unwind the worker pool drains before
/// anything a queued closure may still read is destroyed.
class RestartCycle {
 public:
  virtual ~RestartCycle() = default;

  /// (Re)builds the plans and buffers the cycle owns for `prob`: once at
  /// entry and again after every repartition.
  virtual void bind(const Problem& prob) { (void)prob; }

  /// The escalation-ladder rungs this solver offers (none by default), and
  /// the two callbacks the driver's ladder dispatch uses.
  virtual LadderCapabilities ladder() const { return {}; }
  virtual bool rung_applicable(EscalationStep step) const {
    (void)step;
    return false;
  }
  virtual void apply_rung(EscalationStep step) { (void)step; }

  /// Runs one cycle from the unit residual in v(:,0) and folds its
  /// correction into x via ctx.update_solution. Counts its own iterations.
  virtual CycleReport run(RestartContext& ctx) = 0;

  /// Called after a completed (untainted) restart has been counted.
  virtual void restart_completed(sim::Machine& machine) { (void)machine; }
};

/// Solves the prepared problem with restarted `cycle`s; returns the
/// solution in the caller's original ordering/scaling plus telemetry.
/// Throws kBadInput before charging anything when `opts` is malformed.
SolveResult run_restarts(sim::Machine& machine, const Problem& problem,
                         const SolverOptions& opts, RestartCycle& cycle);

}  // namespace cagmres::core::detail
