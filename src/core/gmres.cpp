#include "core/gmres.hpp"

#include <algorithm>
#include <cmath>

#include "blas/least_squares.hpp"
#include "common/error.hpp"
#include "ortho/reduce.hpp"
#include "precond/precond.hpp"
#include "sim/device_blas.hpp"

namespace cagmres::core {

namespace detail {

namespace {

/// Global dot product of two distributed columns (Fig. 9's reduction).
double dist_dot(sim::Machine& m, const sim::DistMultiVec& v, int ca, int cb) {
  const int ng = m.n_devices();
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(ng), std::vector<double>(1, 0.0));
  for (int d = 0; d < ng; ++d) {
    partial[static_cast<std::size_t>(d)][0] =
        sim::dev_dot(m, d, v.local_rows(d), v.col(d, ca), v.col(d, cb));
  }
  double out = 0.0;
  ortho::detail::reduce_to_host(m, partial, 1, &out);
  return out;
}

}  // namespace

void apply_operator(sim::Machine& m, mpk::MpkExecutor& spmv,
                    precond::PrecondHandle* pc, const sim::DistMultiVec& x,
                    int xcol, sim::DistMultiVec& y, int ycol, int stage_cols,
                    int stage_col) {
  if (pc == nullptr) {
    spmv.spmv(m, x, xcol, y, ycol);
    return;
  }
  sim::DistMultiVec& stage = spmv.stage(stage_cols);
  pc->apply(m, x, xcol, stage, stage_col);
  spmv.spmv(m, stage, stage_col, y, ycol);
}

double compute_residual(sim::Machine& m, mpk::MpkExecutor& spmv,
                        const sim::DistVec& b, sim::DistMultiVec& xwork,
                        sim::DistMultiVec& v, int rcol, bool first) {
  const int ng = m.n_devices();
  if (first) {
    for (int d = 0; d < ng; ++d) {
      sim::dev_copy(m, d, v.local_rows(d), b.local(d), v.col(d, rcol));
    }
  } else {
    spmv.spmv(m, xwork, /*xcol=*/0, /*ycol=*/1);
    for (int d = 0; d < ng; ++d) {
      sim::dev_copy(m, d, v.local_rows(d), b.local(d), v.col(d, rcol));
      sim::dev_axpy(m, d, v.local_rows(d), -1.0, xwork.col(d, 1),
                    v.col(d, rcol));
    }
  }
  const double nrm_sq = dist_dot(m, v, rcol, rcol);
  return std::sqrt(std::max(nrm_sq, 0.0));
}

void update_solution(sim::Machine& m, sim::DistMultiVec& v, int k,
                     const std::vector<double>& y, sim::DistMultiVec& xwork,
                     precond::PrecondHandle* pc, sim::DistMultiVec* stage) {
  CAGMRES_REQUIRE(static_cast<int>(y.size()) >= k, "short LS solution");
  if (k == 0) return;
  // Broadcast the (possibly codec-quantized) wire image of y; the devices
  // accumulate exactly the coefficients that crossed the wire.
  std::vector<double> yq(y.begin(), y.begin() + k);
  ortho::detail::broadcast_charge(m, k, yq.data());
  if (pc == nullptr) {
    for (int d = 0; d < m.n_devices(); ++d) {
      sim::dev_gemv_n_acc(m, d, v.local_rows(d), k, v.col(d, 0),
                          v.local(d).ld(), yq.data(), xwork.col(d, 0));
    }
    return;
  }
  // Right-preconditioned: the basis spans the u-space (A M^{-1} u = b), so
  // the true-space correction is M^{-1} (V y): stage V y in column 1,
  // solve M into column 0, accumulate into x. Column 1 is fully
  // overwritten (copy + scale of the first term, then accumulate), so
  // poison from an earlier faulted update cannot persist across rollbacks.
  CAGMRES_REQUIRE(stage != nullptr && stage->cols() >= 2,
                  "preconditioned update needs a 2-column stage");
  for (int d = 0; d < m.n_devices(); ++d) {
    sim::dev_copy(m, d, v.local_rows(d), v.col(d, 0), stage->col(d, 1));
    sim::dev_scal(m, d, stage->local_rows(d), yq[0], stage->col(d, 1));
    if (k > 1) {
      sim::dev_gemv_n_acc(m, d, v.local_rows(d), k - 1, v.col(d, 1),
                          v.local(d).ld(), yq.data() + 1, stage->col(d, 1));
    }
  }
  pc->apply(m, *stage, 1, *stage, 0);
  for (int d = 0; d < m.n_devices(); ++d) {
    sim::dev_axpy(m, d, xwork.local_rows(d), 1.0, stage->col(d, 0),
                  xwork.col(d, 0));
  }
}

CycleOutcome arnoldi_cycle(sim::Machine& m, mpk::MpkExecutor& spmv,
                           sim::DistMultiVec& v, int mm, ortho::Method orth,
                           double beta, double abs_tol, int max_replays,
                           precond::PrecondHandle* pc) {
  CAGMRES_REQUIRE(orth == ortho::Method::kMgs || orth == ortho::Method::kCgs,
                  "GMRES Orth must be MGS or CGS");
  const int ng = m.n_devices();
  CycleOutcome out;
  out.h = blas::DMat(mm + 1, mm);
  blas::GivensLS ls(mm, beta);
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(ng),
      std::vector<double>(static_cast<std::size_t>(mm) + 1, 0.0));
  std::vector<double> coeff(static_cast<std::size_t>(mm) + 1, 0.0);

  for (int j = 0; j < mm; ++j) {
    const int k = j + 1;  // number of previous columns
    double nrm = 0.0;
    int attempts = 0;
    bool column_ok = false;
    // Replay loop: the SpMV fully rewrites column k from the (accepted)
    // column j, so re-running a poisoned iteration is side-effect free.
    // (Preconditioned, the apply fully rewrites the stage column too.)
    while (true) {
      apply_operator(m, spmv, pc, v, j, v, j + 1);

      sim::PhaseScope phase(m, "orth");
      if (orth == ortho::Method::kCgs) {
        for (int d = 0; d < ng; ++d) {
          sim::dev_gemv_t(m, d, v.local_rows(d), k, v.col(d, 0),
                          v.local(d).ld(), v.col(d, k),
                          partial[static_cast<std::size_t>(d)].data());
        }
        ortho::detail::reduce_to_host(m, partial, k, coeff.data());
        // Broadcast may quantize the coefficients in place; the device
        // update and the H column below both read the wire image.
        ortho::detail::broadcast_charge(m, k, coeff.data());
        for (int d = 0; d < ng; ++d) {
          sim::dev_gemv_n_sub(m, d, v.local_rows(d), k, v.col(d, 0),
                              v.local(d).ld(), coeff.data(), v.col(d, k));
        }
        for (int i = 0; i < k; ++i) {
          out.h(i, j) = coeff[static_cast<std::size_t>(i)];
        }
      } else {  // MGS: one reduction per previous column
        for (int l = 0; l < k; ++l) {
          for (int d = 0; d < ng; ++d) {
            partial[static_cast<std::size_t>(d)][0] = sim::dev_dot(
                m, d, v.local_rows(d), v.col(d, l), v.col(d, k));
          }
          double r = 0.0;
          ortho::detail::reduce_to_host(m, partial, 1, &r);
          // Record r after the broadcast so H holds the coefficient the
          // devices actually subtract (broadcast may quantize in place).
          ortho::detail::broadcast_charge(m, 1, &r);
          out.h(l, j) = r;
          for (int d = 0; d < ng; ++d) {
            sim::dev_axpy(m, d, v.local_rows(d), -r, v.col(d, l), v.col(d, k));
          }
        }
      }
      // Norm of the new vector (doubles as the health checksum: a finite
      // sum of squares proves the whole column is NaN/Inf free).
      for (int d = 0; d < ng; ++d) {
        partial[static_cast<std::size_t>(d)][0] =
            sim::dev_dot(m, d, v.local_rows(d), v.col(d, k), v.col(d, k));
      }
      double nrm_sq = 0.0;
      ortho::detail::reduce_to_host(m, partial, 1, &nrm_sq);
      if (max_replays > 0) {
        bool ok = std::isfinite(nrm_sq);
        for (int i = 0; ok && i < k; ++i) ok = std::isfinite(out.h(i, j));
        if (!ok) {
          ++out.replays;
          if (++attempts > max_replays) break;  // give up on this iteration
          continue;
        }
      }
      nrm = std::sqrt(std::max(nrm_sq, 0.0));
      column_ok = true;
      break;
    }
    if (!column_ok) break;  // persistent poison: keep the clean prefix
    if (nrm <= 1e-300) {  // happy breakdown: subspace is invariant
      out.h(k, j) = nrm;
      out.k = j + 1;
      // Column j of H is complete with h(k, j) = 0; append and stop.
      std::vector<double> col(static_cast<std::size_t>(k) + 1);
      for (int i = 0; i <= k; ++i) col[static_cast<std::size_t>(i)] = out.h(i, j);
      out.ls_residual = ls.append_column(col.data());
      break;
    }
    // Broadcast first (may quantize nrm), then record: H and the device
    // scaling must agree on the same wire value.
    ortho::detail::broadcast_charge(m, 1, &nrm);
    out.h(k, j) = nrm;
    for (int d = 0; d < ng; ++d) {
      sim::dev_scal(m, d, v.local_rows(d), 1.0 / nrm, v.col(d, k));
    }

    std::vector<double> col(static_cast<std::size_t>(k) + 1);
    for (int i = 0; i <= k; ++i) col[static_cast<std::size_t>(i)] = out.h(i, j);
    out.ls_residual = ls.append_column(col.data());
    out.k = j + 1;
    if (out.ls_residual <= abs_tol) break;
  }
  m.charge_host(sim::Kernel::kSmall,
                3.0 * static_cast<double>(out.k) * out.k, 0.0);
  out.y = ls.solve();
  return out;
}

CycleOutcome gmres_cycle(RestartContext& ctx, ortho::Method orth) {
  CycleOutcome cycle = arnoldi_cycle(
      ctx.machine, ctx.spmv, ctx.v, ctx.opts.m, orth, ctx.beta, ctx.abs_tol,
      ctx.resilient ? ctx.opts.max_block_replays : 0, ctx.opts.precond);
  ctx.st.recovery.blocks_replayed += cycle.replays;
  ctx.update_solution(cycle.k, cycle.y);
  ctx.st.iterations += cycle.k;
  return cycle;
}

}  // namespace detail

namespace {

/// GMRES's cycle. Its ladder has one rung: downshift the per-iteration
/// Orth from CGS to the more stable MGS.
class GmresCycle final : public detail::RestartCycle {
 public:
  explicit GmresCycle(ortho::Method orth) : orth_(orth) {}

  LadderCapabilities ladder() const override {
    LadderCapabilities caps;
    caps.switch_orth = (orth_ == ortho::Method::kCgs);
    return caps;
  }
  bool rung_applicable(EscalationStep step) const override {
    return step == EscalationStep::kSwitchOrth &&
           orth_ == ortho::Method::kCgs;
  }
  void apply_rung(EscalationStep) override { orth_ = ortho::Method::kMgs; }

  detail::CycleReport run(detail::RestartContext& ctx) override {
    const detail::CycleOutcome cycle = detail::gmres_cycle(ctx, orth_);
    return {cycle.k, cycle.ls_residual};
  }

 private:
  ortho::Method orth_;
};

}  // namespace

SolveResult gmres(sim::Machine& machine, const Problem& problem,
                  const SolverOptions& opts) {
  GmresCycle cycle(opts.gmres_orth);
  return detail::run_restarts(machine, problem, opts, cycle);
}

}  // namespace cagmres::core
