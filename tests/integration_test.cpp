// Cross-module integration tests: end-to-end identities that tie the
// substrates together — MPK feeding TSQR, the Hessenberg recovery against
// an explicitly computed A*Q, solver equivalence across data layouts, and
// clock/counter consistency across whole solves.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "blas/blas3.hpp"
#include "common/rng.hpp"
#include "core/cagmres.hpp"
#include "core/cpu_gmres.hpp"
#include "core/gmres.hpp"
#include "core/hessenberg.hpp"
#include "core/shifts.hpp"
#include "mpk/exec.hpp"
#include "mpk/plan.hpp"
#include "ortho/borth.hpp"
#include "ortho/metrics.hpp"
#include "ortho/tsqr.hpp"
#include "sim/device_blas.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "sparse/generators.hpp"

#include "codec_tol.hpp"

namespace cagmres {
namespace {

using sim::DistMultiVec;
using sim::Machine;

/// Gathers a distributed column into one host vector.
std::vector<double> gather_col(const DistMultiVec& v, int col) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(v.total_rows()));
  for (int d = 0; d < v.n_parts(); ++d) {
    const double* p = v.col(d, col);
    out.insert(out.end(), p, p + v.local_rows(d));
  }
  return out;
}

/// Runs one CA block pipeline (MPK -> BOrth -> TSQR) by hand and verifies
/// the defining identity A Q(:,1:k) = Q H column by column against
/// explicitly computed SpMVs.
TEST(Pipeline, HessenbergIdentityHoldsAgainstExplicitSpmv) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(14, 13, 0.3, 0.5);
  const int n = a.n_rows;
  const int s = 4, blocks = 3, m = s * blocks;  // m = 12 basis vectors
  const std::vector<int> offsets = {0, n / 2, n};
  const mpk::MpkPlan plan = mpk::build_mpk_plan(a, offsets, s);
  mpk::MpkExecutor exec(plan);
  Machine machine(2);

  DistMultiVec v(plan.rows_per_device(), m + 1);
  Rng rng(3);
  {
    std::vector<double> r0(static_cast<std::size_t>(n));
    for (auto& e : r0) e = rng.normal();
    const double nrm = blas::nrm2(n, r0.data());
    std::size_t off = 0;
    for (int d = 0; d < 2; ++d) {
      for (int i = 0; i < v.local_rows(d); ++i) {
        v.col(d, 0)[i] = r0[off + static_cast<std::size_t>(i)] / nrm;
      }
      off += static_cast<std::size_t>(v.local_rows(d));
    }
  }

  // Newton shifts: arbitrary but fixed, with a conjugate pair.
  core::Shifts step;
  step.re = {0.8, 1.1, 1.1, -0.3};
  step.im = {0.0, 0.6, -0.6, 0.0};

  blas::DMat r_total(m + 1, m + 1);
  r_total(0, 0) = 1.0;
  std::vector<char> starts(static_cast<std::size_t>(m) + 1, 0);
  starts[0] = 1;
  core::Shifts col_shifts;
  col_shifts.re.assign(static_cast<std::size_t>(m), 0.0);
  col_shifts.im.assign(static_cast<std::size_t>(m), 0.0);

  int done = 1;
  while (done < m + 1) {
    starts[static_cast<std::size_t>(done) - 1] = 1;
    exec.apply(machine, v, done - 1, s, {step.re.data(), step.im.data()});
    for (int i = 0; i < s; ++i) {
      col_shifts.re[static_cast<std::size_t>(done - 1 + i)] = step.re[static_cast<std::size_t>(i)];
      col_shifts.im[static_cast<std::size_t>(done - 1 + i)] = step.im[static_cast<std::size_t>(i)];
    }
    const blas::DMat c =
        ortho::borth(machine, ortho::BorthMethod::kCgs, v, done, done + s);
    const ortho::TsqrResult tq =
        ortho::tsqr(machine, ortho::Method::kCaqr, v, done, done + s);
    for (int i = 0; i < s; ++i) {
      for (int row = 0; row < done; ++row) r_total(row, done + i) = c(row, i);
      for (int row = 0; row <= i; ++row) {
        r_total(done + row, done + i) = tq.r(row, i);
      }
    }
    done += s;
  }
  machine.sync();  // the host gathers the basis columns below
  const blas::DMat h = core::hessenberg_blocked(r_total, starts, col_shifts);

  // Verify A q_j == sum_i H(i,j) q_i for every column.
  std::vector<double> aq(static_cast<std::size_t>(n));
  for (int j = 0; j < m; ++j) {
    const std::vector<double> qj = gather_col(v, j);
    // The multivector lives in the permuted (here: identity-partitioned)
    // space, and offsets split the natural order, so plain SpMV applies.
    sparse::spmv(a, qj.data(), aq.data());
    std::vector<double> recon(static_cast<std::size_t>(n), 0.0);
    for (int i = 0; i <= j + 1; ++i) {
      const std::vector<double> qi = gather_col(v, i);
      blas::axpy(n, h(i, j), qi.data(), recon.data());
    }
    double err = 0.0, scale = 0.0;
    for (int i = 0; i < n; ++i) {
      err += (recon[static_cast<std::size_t>(i)] - aq[static_cast<std::size_t>(i)]) *
             (recon[static_cast<std::size_t>(i)] - aq[static_cast<std::size_t>(i)]);
      scale += aq[static_cast<std::size_t>(i)] * aq[static_cast<std::size_t>(i)];
    }
    EXPECT_LT(std::sqrt(err / (scale + 1e-300)), test::codec_tol(1e-9, 1e-8))
        << "column " << j;
  }
  // And the basis is orthonormal (to fp32 grade when a codec quantizes the
  // projection coefficients on the wire).
  EXPECT_LT(ortho::orthogonality_error(v, 0, m + 1),
            test::codec_tol(1e-10, 1e-4));
}

TEST(Pipeline, MpkThenTsqrSpansTheKrylovSpace) {
  // After orthogonalization, the basis columns must span the same Krylov
  // space as explicitly computed powers: verify by projecting the powers
  // onto the Q basis and checking the residual is ~0.
  const sparse::CsrMatrix a = sparse::make_laplace2d(10, 10, 0.2, 0.4);
  const int n = a.n_rows, s = 5;
  const mpk::MpkPlan plan = mpk::build_mpk_plan(a, {0, n}, s);
  mpk::MpkExecutor exec(plan);
  Machine machine(1);
  DistMultiVec v(plan.rows_per_device(), s + 1);
  Rng rng(4);
  for (int i = 0; i < n; ++i) v.col(0, 0)[i] = rng.normal();
  const std::vector<double> x0 = gather_col(v, 0);
  exec.apply(machine, v, 0, s);
  ortho::tsqr(machine, ortho::Method::kCaqr, v, 0, s + 1);
  machine.sync();  // the host reads the panel below

  // Explicit power A^s x0.
  std::vector<double> p = x0, tmp(static_cast<std::size_t>(n));
  for (int k = 0; k < s; ++k) {
    sparse::spmv(a, p.data(), tmp.data());
    p.swap(tmp);
  }
  // Residual of p after projection onto span(Q).
  std::vector<double> proj(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j <= s; ++j) {
    const double* qj = v.col(0, j);
    const double coef = blas::dot(n, qj, p.data());
    blas::axpy(n, coef, qj, proj.data());
  }
  double num = 0.0, den = 0.0;
  for (int i = 0; i < n; ++i) {
    num += (p[static_cast<std::size_t>(i)] - proj[static_cast<std::size_t>(i)]) *
           (p[static_cast<std::size_t>(i)] - proj[static_cast<std::size_t>(i)]);
    den += p[static_cast<std::size_t>(i)] * p[static_cast<std::size_t>(i)];
  }
  EXPECT_LT(std::sqrt(num / den), 1e-8);
}

TEST(Equivalence, SolutionIndependentOfDeviceCount) {
  // The same problem solved on 1, 2, 3 devices differs only by reduction
  // rounding: solutions must agree far beyond the solve tolerance.
  const sparse::CsrMatrix a = sparse::make_laplace2d(18, 15, 0.25, 0.4);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  std::vector<std::vector<double>> solutions;
  for (int ng = 1; ng <= 3; ++ng) {
    const core::Problem p =
        core::make_problem(a, b, ng, graph::Ordering::kNatural, false, 1);
    Machine machine(ng);
    core::SolverOptions opts;
    opts.m = 25;
    opts.s = 5;
    opts.tol = 1e-9;
    const core::SolveResult res = core::ca_gmres(machine, p, opts);
    ASSERT_TRUE(res.stats.converged);
    solutions.push_back(res.x);
  }
  for (std::size_t k = 1; k < solutions.size(); ++k) {
    for (int i = 0; i < a.n_rows; ++i) {
      EXPECT_NEAR(solutions[k][static_cast<std::size_t>(i)],
                  solutions[0][static_cast<std::size_t>(i)], 1e-6);
    }
  }
}

TEST(Equivalence, SolutionIndependentOfOrdering) {
  // Natural / RCM / KWY reorder the computation but solve the same system.
  const sparse::CsrMatrix a = sparse::make_circuit_like(0.04, true, 5);
  std::vector<double> b(static_cast<std::size_t>(a.n_rows));
  Rng rng(6);
  for (auto& e : b) e = rng.normal();
  std::vector<double> reference;
  for (const auto o : {graph::Ordering::kNatural, graph::Ordering::kRcm,
                       graph::Ordering::kKway}) {
    const core::Problem p = core::make_problem(a, b, 2, o, true, 3);
    Machine machine(2);
    core::SolverOptions opts;
    opts.m = 30;
    opts.s = 6;
    // fp32-quantized reduction wires cap the attainable residual on this
    // ill-conditioned circuit matrix; ask only for what the codec can give.
    opts.tol = test::codec_tol(1e-8, 1e-4);
    opts.max_restarts = 400;
    const core::SolveResult res = core::ca_gmres(machine, p, opts);
    ASSERT_TRUE(res.stats.converged) << graph::to_string(o);
    if (reference.empty()) {
      reference = res.x;
    } else {
      for (int i = 0; i < a.n_rows; ++i) {
        EXPECT_NEAR(res.x[static_cast<std::size_t>(i)],
                    reference[static_cast<std::size_t>(i)],
                    test::codec_near(2e-5,
                                     reference[static_cast<std::size_t>(i)],
                                     100.0))
            << graph::to_string(o);
      }
    }
  }
}

/// The fused sliced MPK against an unfused host reference: a CSR SpMV of
/// the whole matrix, then the Newton shift as a separate pass. Each row
/// accumulates in CSR order on both sides, so every basis column must match
/// bitwise for every worker count and topology.
TEST(Equivalence, FusedSlicedMpkMatchesUnfusedHostReferenceBitwise) {
  const sparse::CsrMatrix a = sparse::make_cant_like(0.1);
  const int n = a.n_rows;
  const int s = 5;
  struct Shifts {
    const char* name;
    std::vector<double> re, im;
  };
  const std::vector<Shifts> bases = {
      {"monomial", {}, {}},
      {"real", {1.5, -0.7, 0.3, 0.9, -1.1}, {0, 0, 0, 0, 0}},
      {"pair", {0.5, 1.0, 1.0, -0.2, 0.3}, {0, 0.8, -0.8, 0, 0}}};
  Rng rng(7);
  std::vector<double> x0(static_cast<std::size_t>(n));
  for (auto& e : x0) e = rng.normal();

  for (const Shifts& sh : bases) {
    // Host reference, one step at a time.
    std::vector<std::vector<double>> ref(static_cast<std::size_t>(s) + 1);
    ref[0] = x0;
    for (int k = 1; k <= s; ++k) {
      auto& out = ref[static_cast<std::size_t>(k)];
      const auto& in = ref[static_cast<std::size_t>(k) - 1];
      out.resize(static_cast<std::size_t>(n));
      sparse::spmv(a, in.data(), out.data());
      if (sh.re.empty()) continue;
      const double theta = sh.re[static_cast<std::size_t>(k) - 1];
      const bool pair = sh.im[static_cast<std::size_t>(k) - 1] < 0.0;
      const double im = pair ? sh.im[static_cast<std::size_t>(k) - 2] : 0.0;
      for (int i = 0; i < n; ++i) {
        const auto u = static_cast<std::size_t>(i);
        out[u] -= theta * in[u];
        if (pair) out[u] += im * im * ref[static_cast<std::size_t>(k) - 2][u];
      }
    }
    for (const sim::Topology topo : {sim::Topology{1, 3}, sim::Topology{2, 2}}) {
      const int ng = topo.n_devices();
      std::vector<int> offsets;
      for (int d = 0; d <= ng; ++d) offsets.push_back(n * d / ng);
      const mpk::MpkPlan plan = mpk::build_mpk_plan(a, offsets, s);
      for (const int workers : {0, 2}) {
        Machine m(topo);
        m.set_codec(sim::TrafficClass::kHalo, sim::CodecSpec{});
        m.set_host_workers(workers);
        mpk::MpkExecutor exec(plan);
        DistMultiVec v(plan.rows_per_device(), s + 1);
        for (int d = 0; d < ng; ++d) {
          std::copy_n(x0.begin() + offsets[static_cast<std::size_t>(d)],
                      v.local_rows(d), v.col(d, 0));
        }
        const mpk::ShiftSeq seq =
            sh.re.empty() ? mpk::ShiftSeq{}
                          : mpk::ShiftSeq{sh.re.data(), sh.im.data()};
        exec.apply(m, v, 0, s, seq);
        m.sync();  // the host reads the basis below
        for (int k = 1; k <= s; ++k) {
          const std::vector<double> got = gather_col(v, k);
          int mismatches = 0;
          for (int i = 0; i < n; ++i) {
            // == treats +0 and -0 as equal.
            if (!(got[static_cast<std::size_t>(i)] ==
                  ref[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)])) {
              ++mismatches;
            }
          }
          EXPECT_EQ(mismatches, 0)
              << sh.name << " " << topo.n_nodes << "x" << topo.gpus_per_node
              << " workers=" << workers << " k=" << k;
        }
      }
    }
  }
}

/// A kernel NaN landing in the fused MPK kernel poisons the basis column it
/// stores, so the block scrub catches it and replays the block.
TEST(FusedMpk, KernelNanInFusedKernelIsScrubbedByBlockReplay) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(24, 24, 0.1, 0.02);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const core::Problem p =
      core::make_problem(a, b, 3, graph::Ordering::kNatural, true, 1);
  core::SolverOptions opts;
  opts.m = 30;
  opts.s = 6;
  opts.tol = 1e-6;
  opts.max_restarts = 400;
  const int victim = 1;
  sim::FaultEvent nan;
  nan.kind = sim::FaultKind::kKernelNan;
  nan.device = victim;

  // An armed run whose only event never fires: the same op sequence as the
  // faulted run, so the victim's op count at its first fused MPK kernel is
  // its count of charged operations (kernels and transfers) up to there.
  std::int64_t op = 0;
  {
    Machine machine(3);
    sim::FaultEvent never = nan;
    never.at_op = std::int64_t{1} << 50;
    machine.fault_injector().schedule(never);
    machine.enable_trace(true);
    core::ca_gmres(machine, p, opts);
    for (const sim::TraceEvent& e : machine.trace().events()) {
      // Event record/wait markers are instants, not charged operations.
      if (e.device != victim || e.name.rfind("event:", 0) == 0) continue;
      ++op;
      if (e.name == "spmv_ell" && e.phase == "mpk") break;
    }
  }
  Machine machine(3);
  nan.at_op = op;
  machine.fault_injector().schedule(nan);
  machine.enable_trace(true);
  const core::SolveResult res = core::ca_gmres(machine, p, opts);
  const auto& ev = machine.trace().events();
  const auto it = std::find_if(ev.begin(), ev.end(), [](const sim::TraceEvent& e) {
    return e.name == "fault:nan";
  });
  ASSERT_NE(it, ev.end());
  ASSERT_NE(it + 1, ev.end());
  EXPECT_EQ((it + 1)->name, "spmv_ell");
  EXPECT_EQ((it + 1)->phase, "mpk");
  EXPECT_EQ(res.stats.recovery.kernel_faults, 1);
  EXPECT_GE(res.stats.recovery.blocks_replayed, 1);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_LT(core::true_residual(a, b, res.x) / blas::nrm2(a.n_rows, b.data()),
            1e-5);
}

TEST(Accounting, PhaseTimesPartitionTheTotal) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(16, 16, 0.2, 0.3);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const core::Problem p =
      core::make_problem(a, b, 3, graph::Ordering::kKway, true, 2);
  Machine machine(3);
  core::SolverOptions opts;
  opts.m = 16;
  opts.s = 4;
  const core::SolveResult res = core::ca_gmres(machine, p, opts);
  const auto& st = res.stats;
  const double sum = st.time_spmv + st.time_mpk + st.time_orth +
                     st.time_borth + st.time_tsqr + st.time_other;
  EXPECT_NEAR(sum, st.time_total, 1e-9 + 1e-9 * st.time_total);
  EXPECT_GE(st.time_other, 0.0);
  EXPECT_GT(st.time_tsqr, 0.0);
  EXPECT_GT(st.time_borth, 0.0);
}

TEST(Accounting, SolverChargesScaleWithDevices) {
  // On a large enough matrix, more devices => more total messages but less
  // elapsed time. (On tiny matrices latency dominates and extra devices
  // hurt — which the model also reproduces, see the paper's scaling
  // caveats.)
  const sparse::CsrMatrix a = sparse::make_cant_like(1.0);  // n ~ 62k
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  std::vector<double> elapsed;
  std::vector<std::int64_t> msgs;
  for (const int ng : {1, 3}) {
    const core::Problem p =
        core::make_problem(a, b, ng, graph::Ordering::kNatural, true, 1);
    Machine machine(ng);
    core::SolverOptions opts;
    opts.m = 30;
    opts.max_restarts = 2;
    core::gmres(machine, p, opts);
    elapsed.push_back(machine.clock().elapsed());
    msgs.push_back(machine.counters().total_msgs());
  }
  EXPECT_LT(elapsed[1], elapsed[0]);
  EXPECT_GT(msgs[1], msgs[0]);
}

TEST(CpuPath, MatchesDeviceNumericsBitwiseOnOneDevice) {
  // With one device and MGS, the device GMRES and CPU GMRES perform the
  // same floating-point operations in the same order up to the residual
  // reductions; the solutions agree to near machine precision.
  const sparse::CsrMatrix a = sparse::make_laplace2d(12, 11, 0.15, 0.5);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const core::Problem p =
      core::make_problem(a, b, 1, graph::Ordering::kNatural, false, 1);
  core::SolverOptions opts;
  opts.m = 20;
  opts.tol = 1e-10;
  opts.gmres_orth = ortho::Method::kMgs;
  Machine m1(1), m2(1);
  const auto r_dev = core::gmres(m1, p, opts);
  const auto r_cpu = core::cpu_gmres(m2, p, opts);
  ASSERT_TRUE(r_dev.stats.converged);
  ASSERT_TRUE(r_cpu.stats.converged);
  EXPECT_EQ(r_dev.stats.restarts, r_cpu.stats.restarts);
  // The CPU path never touches the wire, so an armed codec legitimately
  // perturbs only the device side: compare to convergence grade then.
  for (int i = 0; i < a.n_rows; ++i) {
    EXPECT_NEAR(r_dev.x[static_cast<std::size_t>(i)],
                r_cpu.x[static_cast<std::size_t>(i)],
                test::codec_tol(1e-12, 1e-10));
  }
}

TEST(Shifts, NewtonBasisImprovesBlockConditioning) {
  // End-to-end property behind §IV-A: with identical setups, the Newton
  // basis blocks are orders of magnitude better conditioned than monomial.
  const sparse::CsrMatrix a = sparse::make_laplace2d(20, 20, 0.1, 0.05);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const core::Problem p =
      core::make_problem(a, b, 1, graph::Ordering::kNatural, true, 1);
  auto worst_kappa = [&](core::Basis basis) {
    Machine machine(1);
    core::SolverOptions opts;
    opts.m = 24;
    opts.s = 12;
    opts.basis = basis;
    opts.max_restarts = 6;
    opts.collect_tsqr_errors = true;
    opts.tsqr = ortho::Method::kSvqr;  // never breaks down
    const auto res = core::ca_gmres(machine, p, opts);
    double mx = 0.0;
    for (const auto& e : res.stats.tsqr_errors) {
      mx = std::max(mx, e.kappa_block);
    }
    return mx;
  };
  const double kappa_mono = worst_kappa(core::Basis::kMonomial);
  const double kappa_newton = worst_kappa(core::Basis::kNewton);
  EXPECT_LT(kappa_newton * 1e2, kappa_mono);
}

}  // namespace
}  // namespace cagmres
