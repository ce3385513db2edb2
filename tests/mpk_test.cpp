// Unit + property tests for the matrix powers kernel (paper §IV):
// boundary sets, plan construction, execution vs. repeated SpMV, Newton
// shifts with complex pairs, and the communication statistics.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/partition.hpp"
#include "mpk/boundary.hpp"
#include "mpk/exec.hpp"
#include "mpk/plan.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"

#include "codec_tol.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"

namespace cagmres::mpk {
namespace {

using sim::DistMultiVec;
using sim::Machine;
using sparse::CsrMatrix;

std::vector<int> offsets_of(const CsrMatrix& a, int ng) {
  std::vector<int> off(static_cast<std::size_t>(ng) + 1);
  for (int d = 0; d <= ng; ++d) {
    off[static_cast<std::size_t>(d)] =
        static_cast<int>((static_cast<long long>(a.n_rows) * d) / ng);
  }
  return off;
}

/// Brute-force hop sets via BFS on the directed row->column pattern.
std::vector<std::vector<int>> brute_force_hops(const CsrMatrix& a, int row0,
                                               int row1, int s) {
  std::vector<int> dist(static_cast<std::size_t>(a.n_rows), -1);
  std::vector<int> frontier;
  for (int i = row0; i < row1; ++i) {
    dist[static_cast<std::size_t>(i)] = 0;
    frontier.push_back(i);
  }
  std::vector<std::vector<int>> hops(static_cast<std::size_t>(s));
  for (int t = 1; t <= s; ++t) {
    std::vector<int> next;
    for (const int r : frontier) {
      const auto lo = a.row_ptr[static_cast<std::size_t>(r)];
      const auto hi = a.row_ptr[static_cast<std::size_t>(r) + 1];
      for (auto p = lo; p < hi; ++p) {
        const int c = a.col_idx[static_cast<std::size_t>(p)];
        if (dist[static_cast<std::size_t>(c)] < 0) {
          dist[static_cast<std::size_t>(c)] = t;
          next.push_back(c);
        }
      }
    }
    std::sort(next.begin(), next.end());
    hops[static_cast<std::size_t>(t) - 1] = next;
    frontier = next;
  }
  return hops;
}

TEST(Boundary, MatchesBruteForceBfs) {
  const CsrMatrix a = sparse::make_circuit_like(0.04, true, 13);
  const int row0 = 30, row1 = 150, s = 4;
  const BoundarySets bs = compute_boundary_sets(a, row0, row1, s);
  const auto ref = brute_force_hops(a, row0, row1, s);
  ASSERT_EQ(bs.hops.size(), ref.size());
  for (int t = 0; t < s; ++t) {
    EXPECT_EQ(bs.hops[static_cast<std::size_t>(t)], ref[static_cast<std::size_t>(t)])
        << "hop " << t + 1;
  }
}

TEST(Boundary, BandedMatrixGrowsLinearly) {
  // On a 1D path, each hop adds at most 2 vertices (one per side).
  sparse::CooBuilder b(50, 50);
  for (int i = 0; i < 50; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i < 49) b.add(i, i + 1, -1.0);
  }
  const CsrMatrix a = b.build();
  const BoundarySets bs = compute_boundary_sets(a, 20, 30, 5);
  for (int t = 0; t < 5; ++t) {
    EXPECT_EQ(bs.hops[static_cast<std::size_t>(t)].size(), 2u);
  }
  EXPECT_EQ(bs.total_external(), 10);
}

TEST(Boundary, StopsAtDependencyClosure) {
  // Whole matrix owned: no external hops at all.
  const CsrMatrix a = sparse::make_laplace2d(5, 5);
  const BoundarySets bs = compute_boundary_sets(a, 0, 25, 3);
  EXPECT_EQ(bs.total_external(), 0);
}

TEST(Plan, StatsAreConsistent) {
  const CsrMatrix a = sparse::make_laplace2d(30, 30);
  const auto off = offsets_of(a, 3);
  for (const int s : {1, 2, 4}) {
    const MpkPlan plan = build_mpk_plan(a, off, s);
    const MpkStats& st = plan.stats;
    // Local blocks tile the matrix.
    std::int64_t local = 0;
    for (int d = 0; d < 3; ++d) local += st.local_nnz[static_cast<std::size_t>(d)];
    EXPECT_EQ(local, a.nnz());
    // Gather == scatter volume summed over devices only when every sent
    // element has exactly one consumer; in general gather <= scatter.
    EXPECT_LE(st.gather_volume(), st.scatter_volume());
    if (s == 1) {
      // No boundary rows are ever multiplied for s=1.
      for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(st.boundary_nnz[static_cast<std::size_t>(d)], 0);
        EXPECT_EQ(st.extra_flops[static_cast<std::size_t>(d)], 0.0);
      }
    } else {
      EXPECT_GT(st.boundary_nnz[0], 0);
      EXPECT_GT(st.extra_flops[0], 0.0);
    }
  }
}

TEST(Plan, SurfaceGrowsWithS) {
  const CsrMatrix a = sparse::make_laplace2d(40, 40);
  const auto off = offsets_of(a, 2);
  double prev_ratio = -1.0;
  for (const int s : {2, 3, 5, 8}) {
    const MpkPlan plan = build_mpk_plan(a, off, s);
    const double ratio = plan.stats.surface_to_volume(0);
    EXPECT_GT(ratio, prev_ratio);
    prev_ratio = ratio;
  }
}

TEST(Plan, SingleDeviceHasNoCommunication) {
  const CsrMatrix a = sparse::make_laplace2d(12, 12);
  const MpkPlan plan = build_mpk_plan(a, {0, a.n_rows}, 4);
  EXPECT_EQ(plan.stats.total_volume(), 0);
  EXPECT_EQ(plan.dev[0].ext_global.size(), 0u);
  EXPECT_EQ(plan.dev[0].boundary.n_rows, 0);
}

TEST(Plan, RejectsBadArguments) {
  const CsrMatrix a = sparse::make_laplace2d(4, 4);
  EXPECT_THROW(build_mpk_plan(a, {0, 8}, 2), Error);      // offsets wrong end
  EXPECT_THROW(build_mpk_plan(a, {0, 16}, 0), Error);     // s < 1
}

class MpkExecTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MpkExecTest, MonomialPowersMatchRepeatedSpmv) {
  const auto [ng, s] = GetParam();
  const CsrMatrix a = sparse::make_circuit_like(0.05, true, 29);
  const int n = a.n_rows;
  const auto off = offsets_of(a, ng);
  const MpkPlan plan = build_mpk_plan(a, off, s);
  MpkExecutor exec(plan);
  Machine m(ng);

  DistMultiVec v(plan.rows_per_device(), s + 1);
  Rng rng(7);
  std::vector<double> x0(static_cast<std::size_t>(n));
  for (auto& x : x0) x = rng.normal();
  {
    std::size_t offv = 0;
    for (int d = 0; d < ng; ++d) {
      for (int i = 0; i < v.local_rows(d); ++i) {
        v.col(d, 0)[i] = x0[offv + static_cast<std::size_t>(i)];
      }
      offv += static_cast<std::size_t>(v.local_rows(d));
    }
  }
  exec.apply(m, v, 0, s);
  m.sync();  // the host reads the basis columns below

  // Reference: k plain SpMVs on the host.
  std::vector<double> ref = x0, tmp(static_cast<std::size_t>(n));
  for (int k = 1; k <= s; ++k) {
    sparse::spmv(a, ref.data(), tmp.data());
    ref.swap(tmp);
    std::size_t offv = 0;
    for (int d = 0; d < ng; ++d) {
      for (int i = 0; i < v.local_rows(d); ++i) {
        EXPECT_NEAR(v.col(d, k)[i], ref[offv + static_cast<std::size_t>(i)],
                    test::codec_near(1e-9 * std::pow(10.0, k),
                                     ref[offv + static_cast<std::size_t>(i)],
                                     std::pow(10.0, k)))
            << "k=" << k << " d=" << d << " i=" << i;
      }
      offv += static_cast<std::size_t>(v.local_rows(d));
    }
  }
  // Exactly one exchange: one gather + one scatter message per device that
  // has neighbors.
  if (ng > 1) {
    EXPECT_LE(m.counters().d2h_msgs, ng);
    EXPECT_LE(m.counters().h2d_msgs, ng);
    EXPECT_GE(m.counters().d2h_msgs, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, MpkExecTest,
                         ::testing::Values(std::make_tuple(1, 4),
                                           std::make_tuple(2, 3),
                                           std::make_tuple(3, 5),
                                           std::make_tuple(3, 1)),
                         [](const auto& info) {
                           return "ng" + std::to_string(std::get<0>(info.param)) +
                                  "_s" + std::to_string(std::get<1>(info.param));
                         });

TEST(MpkExec, NewtonRealShiftsMatchExplicitRecursion) {
  const CsrMatrix a = sparse::make_laplace2d(15, 14, 0.2);
  const int n = a.n_rows;
  const int ng = 2, s = 3;
  const auto off = offsets_of(a, ng);
  const MpkPlan plan = build_mpk_plan(a, off, s);
  MpkExecutor exec(plan);
  Machine m(ng);

  const double re[3] = {1.5, -0.7, 0.3};
  const double im[3] = {0.0, 0.0, 0.0};
  DistMultiVec v(plan.rows_per_device(), s + 1);
  Rng rng(8);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& e : x) e = rng.normal();
  std::size_t offv = 0;
  for (int d = 0; d < ng; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) v.col(d, 0)[i] = x[offv + static_cast<std::size_t>(i)];
    offv += static_cast<std::size_t>(v.local_rows(d));
  }
  exec.apply(m, v, 0, s, {re, im});
  m.sync();  // the host reads the basis columns below

  std::vector<double> cur = x, tmp(static_cast<std::size_t>(n));
  for (int k = 0; k < s; ++k) {
    sparse::spmv(a, cur.data(), tmp.data());
    for (int i = 0; i < n; ++i) tmp[static_cast<std::size_t>(i)] -= re[k] * cur[static_cast<std::size_t>(i)];
    cur = tmp;
    offv = 0;
    for (int d = 0; d < ng; ++d) {
      for (int i = 0; i < v.local_rows(d); ++i) {
        EXPECT_NEAR(v.col(d, k + 1)[i], cur[offv + static_cast<std::size_t>(i)],
                    test::codec_near(1e-10,
                                     cur[offv + static_cast<std::size_t>(i)],
                                     std::pow(10.0, k + 1)));
      }
      offv += static_cast<std::size_t>(v.local_rows(d));
    }
  }
}

TEST(MpkExec, ComplexPairMatchesExplicitRealArithmetic) {
  const CsrMatrix a = sparse::make_laplace2d(12, 12, 0.4);
  const int n = a.n_rows;
  const int ng = 3, s = 4;
  const auto off = offsets_of(a, ng);
  const MpkPlan plan = build_mpk_plan(a, off, s);
  MpkExecutor exec(plan);
  Machine m(ng);

  // Real, then a conjugate pair (alpha +- beta i), then real.
  const double re[4] = {0.5, 1.0, 1.0, -0.2};
  const double im[4] = {0.0, 0.8, -0.8, 0.0};
  DistMultiVec v(plan.rows_per_device(), s + 1);
  Rng rng(9);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& e : x) e = rng.normal();
  std::size_t offv = 0;
  for (int d = 0; d < ng; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) v.col(d, 0)[i] = x[offv + static_cast<std::size_t>(i)];
    offv += static_cast<std::size_t>(v.local_rows(d));
  }
  exec.apply(m, v, 0, s, {re, im});
  m.sync();  // the host reads the basis columns below

  // Reference recursion: v1 = (A-0.5)v0; v2 = (A-1)v1; v3 = (A-1)v2 +
  // 0.64*v1; v4 = (A+0.2)v3.
  std::vector<std::vector<double>> ref(static_cast<std::size_t>(s) + 1,
                                       std::vector<double>(static_cast<std::size_t>(n)));
  ref[0] = x;
  for (int k = 0; k < s; ++k) {
    sparse::spmv(a, ref[static_cast<std::size_t>(k)].data(),
                 ref[static_cast<std::size_t>(k) + 1].data());
    for (int i = 0; i < n; ++i) {
      ref[static_cast<std::size_t>(k) + 1][static_cast<std::size_t>(i)] -=
          re[k] * ref[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)];
      if (im[k] < 0.0) {
        ref[static_cast<std::size_t>(k) + 1][static_cast<std::size_t>(i)] +=
            im[k - 1] * im[k - 1] *
            ref[static_cast<std::size_t>(k) - 1][static_cast<std::size_t>(i)];
      }
    }
  }
  offv = 0;
  for (int d = 0; d < ng; ++d) {
    for (int k = 1; k <= s; ++k) {
      for (int i = 0; i < v.local_rows(d); ++i) {
        EXPECT_NEAR(v.col(d, k)[i],
                    ref[static_cast<std::size_t>(k)][offv + static_cast<std::size_t>(i)],
                    test::codec_near(
                        1e-9,
                        ref[static_cast<std::size_t>(k)][offv + static_cast<std::size_t>(i)],
                        std::pow(10.0, k)));
      }
    }
    offv += static_cast<std::size_t>(v.local_rows(d));
  }
}

TEST(MpkExec, PairStraddlingCallBoundaryThrows) {
  // The bad pair member sits at the last step, so a step-by-step check
  // would already have charged the exchange and the earlier steps and
  // written their columns.
  const CsrMatrix a = sparse::make_laplace2d(10, 9);
  const int ng = 2, s = 3;
  const MpkPlan plan = build_mpk_plan(a, offsets_of(a, ng), s);
  MpkExecutor exec(plan);
  Machine m(ng);
  DistMultiVec v(plan.rows_per_device(), s + 1);
  Rng rng(4);
  for (int d = 0; d < ng; ++d) {
    for (int k = 0; k <= s; ++k) {
      for (int i = 0; i < v.local_rows(d); ++i) v.col(d, k)[i] = rng.normal();
    }
  }
  const DistMultiVec before = v;
  const double re[3] = {1.0, 0.5, 0.5};
  const double im[3] = {0.0, 0.0, -0.8};  // second member with no first
  EXPECT_THROW(exec.apply(m, v, 0, s, {re, im}), Error);
  m.sync();
  EXPECT_EQ(m.clock().elapsed(), 0.0);
  EXPECT_EQ(m.counters().total_msgs(), 0);
  for (int d = 0; d < ng; ++d) {
    for (int k = 0; k <= s; ++k) {
      for (int i = 0; i < v.local_rows(d); ++i) {
        EXPECT_EQ(v.col(d, k)[i], before.col(d, k)[i]) << "d=" << d << " k=" << k;
      }
    }
  }
}

TEST(MpkExec, OneFusedKernelPerStepAndDevice) {
  // One apply of s steps: s fused local kernels per device, one more per
  // step with boundary rows, and no separate shift (AXPY) or store (COPY)
  // kernels — the only COPY is the exchange's owned-row copy into z.
  const CsrMatrix a = sparse::make_circuit_like(0.05, false, 29);
  const int ng = 3, s = 4;
  const MpkPlan plan = build_mpk_plan(a, offsets_of(a, ng), s);
  MpkExecutor exec(plan);
  Machine m(ng);
  DistMultiVec v(plan.rows_per_device(), s + 1);
  for (int d = 0; d < ng; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) v.col(d, 0)[i] = 1.0 + i % 7;
  }
  const double re[4] = {0.5, 1.0, 1.0, -0.2};
  const double im[4] = {0.0, 0.8, -0.8, 0.0};
  exec.apply(m, v, 0, s, {re, im});
  m.sync();

  std::int64_t expected = 0;
  for (const MpkDevicePlan& dp : plan.dev) {
    expected += s;
    for (const int rows : dp.boundary_rows_at_step) expected += rows > 0 ? 1 : 0;
  }
  ASSERT_GT(expected, ng * s);  // some step has boundary rows
  const auto count = [&m](sim::Kernel k) {
    return m.counters().kernel_count[static_cast<std::size_t>(sim::kernel_index(k))];
  };
  EXPECT_EQ(count(sim::Kernel::kSpmvEll), expected);
  EXPECT_EQ(count(sim::Kernel::kSpmvCsr), 0);
  EXPECT_EQ(count(sim::Kernel::kAxpy), 0);
  EXPECT_EQ(count(sim::Kernel::kCopy), ng);
}

TEST(MpkExec, KernelNanInFusedKernelPoisonsZAndBasisColumn) {
  // One device, no halo: op 1 is the exchange's owned-row copy, op 2 the
  // fused kernel of step 1.
  const CsrMatrix a = sparse::make_laplace2d(9, 8);
  const int s = 3;
  const MpkPlan plan = build_mpk_plan(a, {0, a.n_rows}, s);
  MpkExecutor exec(plan);
  Machine m(1);
  sim::FaultEvent nan;
  nan.kind = sim::FaultKind::kKernelNan;
  nan.device = 0;
  nan.at_op = 2;
  m.fault_injector().schedule(nan);
  m.enable_trace(true);
  DistMultiVec v(plan.rows_per_device(), s + 1);
  for (int i = 0; i < v.local_rows(0); ++i) v.col(0, 0)[i] = 1.0;
  const double re[3] = {0.3, 0.3, 0.3};
  exec.apply(m, v, 0, s, {re, nullptr});
  m.sync();

  const auto& ev = m.trace().events();
  const auto it = std::find_if(ev.begin(), ev.end(), [](const sim::TraceEvent& e) {
    return e.name == "fault:nan";
  });
  ASSERT_NE(it, ev.end());
  ASSERT_NE(it + 1, ev.end());
  EXPECT_EQ((it + 1)->name, "spmv_ell");
  EXPECT_EQ((it + 1)->phase, "mpk");
  for (int i = 0; i < v.local_rows(0); ++i) {
    EXPECT_EQ(v.col(0, 0)[i], 1.0);
    // The basis column the fused kernel stored...
    EXPECT_TRUE(std::isnan(v.col(0, 1)[i]));
    // ...and z, which step 2 reads (never the basis column).
    EXPECT_TRUE(std::isnan(v.col(0, 2)[i]));
  }
}

TEST(MpkExec, DistributedSpmvMatchesHost) {
  const CsrMatrix a = sparse::make_cant_like(0.15);
  const int n = a.n_rows;
  const int ng = 3;
  const auto off = offsets_of(a, ng);
  const MpkPlan plan = build_mpk_plan(a, off, 1);
  MpkExecutor exec(plan);
  Machine m(ng);

  DistMultiVec v(plan.rows_per_device(), 2);
  Rng rng(10);
  std::vector<double> x(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(n));
  for (auto& e : x) e = rng.normal();
  std::size_t offv = 0;
  for (int d = 0; d < ng; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) v.col(d, 0)[i] = x[offv + static_cast<std::size_t>(i)];
    offv += static_cast<std::size_t>(v.local_rows(d));
  }
  exec.spmv(m, v, 0, 1);
  m.sync();  // the host reads the product column below
  sparse::spmv(a, x.data(), y.data());
  offv = 0;
  for (int d = 0; d < ng; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) {
      EXPECT_NEAR(v.col(d, 1)[i], y[offv + static_cast<std::size_t>(i)],
                  test::codec_near(1e-10, y[offv + static_cast<std::size_t>(i)]));
    }
    offv += static_cast<std::size_t>(v.local_rows(d));
  }
}

TEST(MpkExec, SpmvRequiresS1Plan) {
  const CsrMatrix a = sparse::make_laplace2d(6, 6);
  const MpkPlan plan = build_mpk_plan(a, {0, 18, 36}, 2);
  MpkExecutor exec(plan);
  Machine m(2);
  DistMultiVec v(plan.rows_per_device(), 2);
  EXPECT_THROW(exec.spmv(m, v, 0, 1), Error);
}

TEST(Plan, GatherVolumeEqualsBruteForceUnion) {
  // gather_volume must equal the number of distinct owned elements any
  // other device needs — computed here by brute force from the hop sets.
  const CsrMatrix a = sparse::make_circuit_like(0.04, true, 31);
  const auto off = offsets_of(a, 3);
  const int s = 3;
  const MpkPlan plan = build_mpk_plan(a, off, s);

  std::vector<char> needed(static_cast<std::size_t>(a.n_rows), 0);
  for (int d = 0; d < 3; ++d) {
    const BoundarySets bs = compute_boundary_sets(
        a, off[static_cast<std::size_t>(d)], off[static_cast<std::size_t>(d) + 1], s);
    for (const auto& hop : bs.hops) {
      for (const int g : hop) needed[static_cast<std::size_t>(g)] = 1;
    }
  }
  std::int64_t union_count = 0;
  for (const char c : needed) union_count += c;
  EXPECT_EQ(plan.stats.gather_volume(), union_count);
}

TEST(Plan, DeterministicForFixedInputs) {
  const CsrMatrix a = sparse::make_cant_like(0.1);
  const auto off = offsets_of(a, 2);
  const MpkPlan p1 = build_mpk_plan(a, off, 4);
  const MpkPlan p2 = build_mpk_plan(a, off, 4);
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(p1.dev[static_cast<std::size_t>(d)].ext_global,
              p2.dev[static_cast<std::size_t>(d)].ext_global);
    EXPECT_EQ(p1.dev[static_cast<std::size_t>(d)].send_local_rows,
              p2.dev[static_cast<std::size_t>(d)].send_local_rows);
    EXPECT_EQ(p1.dev[static_cast<std::size_t>(d)].boundary_rows_at_step,
              p2.dev[static_cast<std::size_t>(d)].boundary_rows_at_step);
  }
}

TEST(MpkExec, LatencySavingsVsRepeatedSpmv) {
  // The point of MPK (Fig. 8): one exchange instead of s exchanges. With a
  // banded matrix the extra flops are small, so simulated MPK time beats
  // s x distributed SpMV.
  const CsrMatrix a = sparse::make_cant_like(0.3);
  const int ng = 3, s = 8;
  const auto off = offsets_of(a, ng);
  const MpkPlan plan_s = build_mpk_plan(a, off, s);
  const MpkPlan plan_1 = build_mpk_plan(a, off, 1);
  MpkExecutor mpk(plan_s);
  MpkExecutor spmv(plan_1);

  DistMultiVec v(plan_s.rows_per_device(), s + 1);
  for (int d = 0; d < ng; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) v.col(d, 0)[i] = 1.0;
  }
  Machine m_mpk(ng), m_spmv(ng);
  mpk.apply(m_mpk, v, 0, s);
  // The two machines share v: drain the MPK's streams before the SpMV
  // machine's streams overwrite the same columns.
  m_mpk.sync();
  for (int k = 0; k < s; ++k) spmv.spmv(m_spmv, v, k, k + 1);
  m_spmv.sync();
  EXPECT_LT(m_mpk.clock().elapsed(), m_spmv.clock().elapsed());
  // And it used far fewer messages.
  EXPECT_LT(m_mpk.counters().total_msgs(), m_spmv.counters().total_msgs());
}

TEST(MpkCodec, HaloWireBytesMatchTheCodecSize) {
  // With halo=fp32 armed, every gather/scatter message must be priced at
  // exactly CodecSpec::wire_bytes of its payload while the logical counters
  // keep the uncompressed size — the achieved ratio is wire-accurate, not
  // an estimate.
  const CsrMatrix a = sparse::make_laplace2d(12, 10, 0.2);
  const int s = 3;
  const MpkPlan plan = build_mpk_plan(a, offsets_of(a, 2), s);
  MpkExecutor exec(plan);
  Machine m(2);
  sim::CodecSpec cd;
  cd.kind = sim::Codec::kFp32;
  m.set_codec(sim::TrafficClass::kHalo, cd);

  DistMultiVec v(plan.rows_per_device(), s + 1);
  Rng rng(17);
  for (int d = 0; d < 2; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) v.col(d, 0)[i] = rng.normal();
  }
  exec.apply(m, v, 0, s);
  m.sync();

  // The MPK ships the deep halo once per block: one pack (d2h) per sending
  // device and one expand (h2d) per receiving device.
  double exp_d2h = 0.0, exp_d2h_logical = 0.0;
  double exp_h2d = 0.0, exp_h2d_logical = 0.0;
  for (int d = 0; d < 2; ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    const double send = static_cast<double>(dp.send_local_rows.size());
    if (send > 0.0) {
      exp_d2h += cd.wire_bytes(send);
      exp_d2h_logical += 8.0 * send;
    }
    const double next = static_cast<double>(dp.ext_global.size());
    if (next > 0.0) {
      exp_h2d += cd.wire_bytes(next);
      exp_h2d_logical += 8.0 * next;
    }
  }
  ASSERT_GT(exp_d2h, 0.0);
  const sim::Counters& c = m.counters();
  EXPECT_DOUBLE_EQ(c.d2h_bytes, exp_d2h);
  EXPECT_DOUBLE_EQ(c.h2d_bytes, exp_h2d);
  EXPECT_DOUBLE_EQ(c.d2h_logical_bytes, exp_d2h_logical);
  EXPECT_DOUBLE_EQ(c.h2d_logical_bytes, exp_h2d_logical);
  // fp32 halves the wire exactly.
  EXPECT_DOUBLE_EQ(c.d2h_logical_bytes, 2.0 * c.d2h_bytes);
  EXPECT_DOUBLE_EQ(c.h2d_logical_bytes, 2.0 * c.h2d_bytes);
  // One codec pass per communicating endpoint.
  EXPECT_EQ(c.kernel_count[static_cast<std::size_t>(sim::Kernel::kCodec)], 4);
}

}  // namespace
}  // namespace cagmres::mpk
