#include "core/pipelined.hpp"

#include <cmath>

#include "blas/least_squares.hpp"
#include "core/gmres.hpp"
#include "ortho/reduce.hpp"
#include "sim/device_blas.hpp"

namespace cagmres::core {

namespace {

/// The pipelined cycle. The recurrence is fixed by construction (CGS-style
/// fused update, no orthogonalizer to swap), so its escalation ladder is
/// empty: watchdog trips are logged, and a progress-class trip — with
/// nothing left to try — stops the solve instead of burning the restart
/// budget.
class PipelinedCycle final : public detail::RestartCycle {
 public:
  explicit PipelinedCycle(int m) : m_(m) {}

  void bind(const Problem& prob) override {
    z_ = sim::DistMultiVec(prob.rows_per_device(), m_ + 1);
  }

  detail::CycleReport run(detail::RestartContext& ctx) override;

 private:
  int m_;
  sim::DistMultiVec z_;  // Z = A * V, the pipelining basis
};

detail::CycleReport PipelinedCycle::run(detail::RestartContext& ctx) {
  sim::Machine& machine = ctx.machine;
  sim::DistMultiVec& v = ctx.v;
  sim::DistMultiVec& z = z_;
  precond::PrecondHandle* const pc = ctx.opts.precond;
  const int ng = machine.n_devices();
  const int mm = ctx.opts.m;
  // The fused reduction below is hand-rolled (raw d2h per device), so the
  // reduce-class codec is applied here directly: encode on the device,
  // wire-priced ship, decode at the host fold.
  const sim::CodecSpec& rcd = machine.codec(sim::TrafficClass::kReduce);
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(ng),
      std::vector<double>(static_cast<std::size_t>(mm) + 2, 0.0));
  std::vector<double> coeff(static_cast<std::size_t>(mm) + 2, 0.0);
  // Device closures write partial[]: a fault thrown mid-cycle drains them
  // before this frame unwinds.
  sim::UnwindDrainGuard unwind_guard(machine);

  // Preconditioned products alternate between stage columns 2 and 3. The
  // halo exchange of a product runs closures on consumer streams that read
  // the owners' stage column in place, and only the next iteration's
  // reduction wait joins them — after the following product is enqueued.
  // One shared column would let that product's trisolve overwrite rows a
  // peer's parked closure still reads (the write-after-read hazard
  // generate_by_spmv avoids in cagmres.cpp). Columns 0 and 1 stay free
  // for update_solution.
  const auto stage_col = [](int product) { return 2 + product % 2; };

  // Prime the pipeline: z_0 = A v_0 (A M^{-1} v_0 preconditioned).
  detail::apply_operator(machine, ctx.spmv, pc, v, 0, z, 0, 4, stage_col(0));

  blas::GivensLS ls(mm, ctx.beta);
  int k = 0;
  double cycle_ls_res = -1.0;
  for (int j = 0; j < mm; ++j) {
    sim::PhaseScope phase(machine, "orth");
    const int prev = j + 1;  // columns v_0..v_j are orthonormal

    // (1) Post the fused reduction for z_j: projections V^T z_j plus
    //     ||z_j||^2, one D2H message per device, and record one event per
    //     message — the reduction's arrival, before the lookahead SpMV is
    //     queued behind it.
    std::vector<sim::Event> red_ev(static_cast<std::size_t>(ng));
    for (int d = 0; d < ng; ++d) {
      auto& p = partial[static_cast<std::size_t>(d)];
      sim::dev_gemv_t(machine, d, v.local_rows(d), prev, v.col(d, 0),
                      v.local(d).ld(), z.col(d, j), p.data());
      p[static_cast<std::size_t>(prev)] = sim::dev_dot(
          machine, d, v.local_rows(d), z.col(d, j), z.col(d, j));
      machine.charge_codec(d, rcd, prev + 1);
      machine.d2h(d, rcd.wire_bytes(prev + 1), 8.0 * (prev + 1));
      red_ev[static_cast<std::size_t>(d)] = machine.record_event(d);
    }

    // (2) Lookahead product w = A z_j (A M^{-1} z_j preconditioned),
    //     overlapping the reduction wait. The trisolve is device-local,
    //     so it overlaps the in-flight reduction messages the same way.
    if (j + 1 <= mm) {
      detail::apply_operator(machine, ctx.spmv, pc, z, j, z, j + 1, 4,
                             stage_col(j + 1));
    }

    // (3) The host waits only for the reduction messages, not the SpMV.
    //     The waits also cover, wall-clock, exactly the closures that
    //     filled partial[] — the host sum below does not lean on the
    //     lookahead exchange having drained the machine.
    {
      sim::PhaseScope phase2(machine, "orth");
      for (int d = 0; d < ng; ++d) {
        machine.host_wait_event(red_ev[static_cast<std::size_t>(d)]);
      }
      machine.charge_host(sim::Kernel::kAxpy,
                          static_cast<double>(prev + 1) * ng,
                          16.0 * (prev + 1) * ng);
    }
    // Fold the decoded wire images of the partials (partial[] is fully
    // rewritten next iteration, so quantizing in place is safe).
    if (rcd.active()) {
      for (int d = 0; d < ng; ++d) {
        rcd.roundtrip(partial[static_cast<std::size_t>(d)].data(), prev + 1);
      }
    }
    for (int i = 0; i <= prev; ++i) {
      coeff[static_cast<std::size_t>(i)] = 0.0;
      for (int d = 0; d < ng; ++d) {
        coeff[static_cast<std::size_t>(i)] +=
            partial[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)];
      }
    }
    // Broadcast before reading the coefficients: it may quantize them in
    // place, and the recurrence below must use the values the devices
    // subtract (charge order unchanged — the fold is pure host work).
    ortho::detail::broadcast_charge(machine, prev + 1, coeff.data());
    const double n2 = coeff[static_cast<std::size_t>(prev)];
    double proj2 = 0.0;
    for (int i = 0; i < prev; ++i) {
      proj2 += coeff[static_cast<std::size_t>(i)] * coeff[static_cast<std::size_t>(i)];
    }
    double nu2 = n2 - proj2;
    // Recovery scrub on host data (free): a finite fused reduction proves
    // v_0..v_j and z_j poison-free, so a poisoned one ends the cycle on the
    // clean prefix of k = j columns. Unarmed solves skip it.
    if (ctx.resilient && !(std::isfinite(n2) && std::isfinite(proj2))) break;

    // (4) Update BOTH bases by linearity (coefficients broadcast above):
    //     v_{j+1} = (z_j - V a)/nu,  z_{j+1} = (w - Z a)/nu.
    for (int d = 0; d < ng; ++d) {
      sim::dev_copy(machine, d, v.local_rows(d), z.col(d, j),
                    v.col(d, prev));
      sim::dev_gemv_n_sub(machine, d, v.local_rows(d), prev, v.col(d, 0),
                          v.local(d).ld(), coeff.data(), v.col(d, prev));
      sim::dev_gemv_n_sub(machine, d, v.local_rows(d), prev, z.col(d, 0),
                          z.local(d).ld(), coeff.data(), z.col(d, prev));
    }
    double nu;
    if (nu2 > 1e-8 * n2 && nu2 > 0.0) {
      nu = std::sqrt(nu2);
    } else {
      // Cancellation: recompute ||v_{j+1}|| explicitly (extra reduction;
      // the pipelined recurrence inherits CGS-grade stability).
      for (int d = 0; d < ng; ++d) {
        partial[static_cast<std::size_t>(d)][0] =
            sim::dev_dot(machine, d, v.local_rows(d), v.col(d, prev),
                         v.col(d, prev));
      }
      double explicit_n2 = 0.0;
      ortho::detail::reduce_to_host(machine, partial, 1, &explicit_n2);
      ortho::detail::broadcast_charge(machine, 1, &explicit_n2);
      nu = std::sqrt(std::max(explicit_n2, 0.0));
    }
    if (nu <= 1e-300) {  // happy breakdown: the space is invariant
      k = j;
      break;
    }
    if (ctx.resilient && !std::isfinite(nu)) break;  // poisoned v_{j+1}
    for (int d = 0; d < ng; ++d) {
      sim::dev_scal(machine, d, v.local_rows(d), 1.0 / nu, v.col(d, prev));
      sim::dev_scal(machine, d, v.local_rows(d), 1.0 / nu, z.col(d, prev));
    }

    // (5) Least squares bookkeeping (H column = [a; nu]).
    coeff[static_cast<std::size_t>(prev)] = nu;
    const double ls_res = ls.append_column(coeff.data());
    cycle_ls_res = ls_res;
    k = j + 1;
    ctx.st.iterations += 1;
    if (ls_res <= ctx.abs_tol) break;
  }
  machine.charge_host(sim::Kernel::kSmall, 3.0 * static_cast<double>(k) * k,
                      0.0);
  if (k > 0) ctx.update_solution(k, ls.solve());
  return {k, cycle_ls_res};
}

}  // namespace

SolveResult pipelined_gmres(sim::Machine& machine, const Problem& problem,
                            const SolverOptions& opts) {
  PipelinedCycle cycle(opts.m);
  return detail::run_restarts(machine, problem, opts, cycle);
}

}  // namespace cagmres::core
