// Unit tests for the sparse-matrix substrate: CSR/SELL/COO, I/O,
// generators, balancing, and stats.
#include <algorithm>
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/balance.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "sparse/io.hpp"
#include "sparse/sell.hpp"
#include "sparse/stats.hpp"

namespace cagmres::sparse {
namespace {

CsrMatrix small_matrix() {
  // [[2, -1, 0], [0, 3, 1], [4, 0, 5]]
  CooBuilder b(3, 3);
  b.add(0, 0, 2.0);
  b.add(0, 1, -1.0);
  b.add(1, 1, 3.0);
  b.add(1, 2, 1.0);
  b.add(2, 0, 4.0);
  b.add(2, 2, 5.0);
  return b.build();
}

TEST(Coo, BuildsSortedCsrAndMergesDuplicates) {
  CooBuilder b(2, 2);
  b.add(1, 1, 1.0);
  b.add(0, 1, 2.0);
  b.add(0, 0, 3.0);
  b.add(0, 1, 4.0);  // duplicate, summed
  CsrMatrix a = b.build();
  a.validate();
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 0.0);
}

TEST(Csr, SpmvMatchesDense) {
  CsrMatrix a = small_matrix();
  const double x[3] = {1.0, 2.0, 3.0};
  double y[3];
  spmv(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.0 * 1 - 1.0 * 2);
  EXPECT_DOUBLE_EQ(y[1], 3.0 * 2 + 1.0 * 3);
  EXPECT_DOUBLE_EQ(y[2], 4.0 * 1 + 5.0 * 3);
}

TEST(Csr, SpmvTransposeMatchesExplicitTranspose) {
  CsrMatrix a = small_matrix();
  CsrMatrix at = transpose(a);
  at.validate();
  const double x[3] = {-1.0, 0.5, 2.0};
  double y1[3], y2[3];
  spmv_transpose(a, x, y1);
  spmv(at, x, y2);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-14);
}

TEST(Csr, ExtractRowsKeepsValues) {
  CsrMatrix a = small_matrix();
  CsrMatrix sub = extract_rows(a, {2, 0});
  EXPECT_EQ(sub.n_rows, 2);
  EXPECT_DOUBLE_EQ(sub.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(sub.at(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(sub.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(sub.at(1, 1), -1.0);
}

TEST(Csr, SymmetricPermutationPreservesSpmv) {
  Rng rng(21);
  CsrMatrix a = make_laplace2d(7, 5, 0.3);
  const int n = a.n_rows;
  const std::vector<int> p = rng.permutation(n);
  CsrMatrix ap = permute_symmetric(a, p);
  ap.validate();

  std::vector<double> x(n), y(n), xp(n), yp(n);
  for (int i = 0; i < n; ++i) x[i] = rng.normal();
  for (int i = 0; i < n; ++i) xp[i] = x[static_cast<std::size_t>(p[i])];
  spmv(a, x.data(), y.data());
  spmv(ap, xp.data(), yp.data());
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(yp[i], y[static_cast<std::size_t>(p[i])], 1e-13);
  }
}

TEST(Csr, PermuteRejectsNonPermutation) {
  CsrMatrix a = small_matrix();
  EXPECT_THROW(permute_symmetric(a, {0, 0, 1}), Error);
  EXPECT_THROW(permute_symmetric(a, {0, 1}), Error);
}

TEST(Csr, FrobeniusNorm) {
  CsrMatrix a = small_matrix();
  EXPECT_NEAR(frobenius_norm(a), std::sqrt(4.0 + 1 + 9 + 1 + 16 + 25), 1e-14);
}

/// Random irregular n x n matrix: a quarter of the rows empty, most short,
/// a few long — the shape that makes plain ELLPACK pad badly.
CsrMatrix random_irregular(int n, std::uint64_t seed) {
  Rng rng(seed);
  CooBuilder b(n, n);
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    const int len = u < 0.25 ? 0 : (u < 0.95 ? 1 + static_cast<int>(rng.uniform() * 6)
                                            : 20 + static_cast<int>(rng.uniform() * 40));
    for (int k = 0; k < len; ++k) {
      b.add(i, static_cast<int>(rng.uniform() * n) % n, rng.normal());
    }
  }
  return b.build();
}

std::int64_t plain_ell_slots(const CsrMatrix& a) {
  int width = 0;
  for (int i = 0; i < a.n_rows; ++i) width = std::max(width, a.row_nnz(i));
  return static_cast<std::int64_t>(a.n_rows) * width;
}

TEST(Sell, SpmvMatchesCsrBitwise) {
  constexpr int kC = SellMatrix::kSliceHeight;
  constexpr int kSigma = SellMatrix::kSortWindow;
  // n not a multiple of C, and last sort windows shorter than sigma.
  for (const int n : {1, kC - 1, kC + 1, kSigma + 7, 3 * kSigma + kC + 5}) {
    const CsrMatrix a = random_irregular(n, 100 + static_cast<std::uint64_t>(n));
    const SellMatrix s = to_sell(a);
    Rng rng(5);
    std::vector<double> x(static_cast<std::size_t>(n)), y1(x.size()), y2(x.size());
    for (auto& e : x) e = rng.normal();
    spmv(a, x.data(), y1.data());
    spmv(s, x.data(), y2.data());
    // EXPECT_EQ compares with ==, which treats +0 and -0 as equal.
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(y1[static_cast<std::size_t>(i)], y2[static_cast<std::size_t>(i)])
          << "n=" << n << " row " << i;
    }
  }
}

TEST(Sell, LayoutSortsWithinWindowsAndNeverPadsMoreThanEll) {
  constexpr int kC = SellMatrix::kSliceHeight;
  constexpr int kSigma = SellMatrix::kSortWindow;
  for (const CsrMatrix& a :
       {random_irregular(3 * kSigma + 11, 9), make_cant_like(0.3),
        make_circuit_like(0.06, true, 7)}) {
    const SellMatrix s = to_sell(a);
    EXPECT_LE(s.stored_slots(), plain_ell_slots(a));
    EXPECT_GE(s.stored_slots(), a.nnz());
    // `row` is a permutation that only moves rows within their window, and
    // each window is sorted longest first.
    std::vector<int> seen(static_cast<std::size_t>(a.n_rows), 0);
    for (int p = 0; p < a.n_rows; ++p) {
      const int r = s.row[static_cast<std::size_t>(p)];
      ASSERT_EQ(r / kSigma, p / kSigma);
      ++seen[static_cast<std::size_t>(r)];
      if (p % kSigma != 0) {
        EXPECT_GE(a.row_nnz(s.row[static_cast<std::size_t>(p) - 1]), a.row_nnz(r));
      }
    }
    for (const int c : seen) EXPECT_EQ(c, 1);
    // Slices are C rows tall except the last.
    for (int j = 0; j + 1 < s.n_slices(); ++j) {
      EXPECT_EQ(s.slice_row[static_cast<std::size_t>(j) + 1] -
                    s.slice_row[static_cast<std::size_t>(j)], kC);
    }
  }
  // The rows of a plain ELL matrix all pad to the widest; slicing must pay
  // strictly less on a matrix with a few long rows.
  const CsrMatrix irregular = random_irregular(2 * kSigma, 4);
  EXPECT_LT(to_sell(irregular).stored_slots(), plain_ell_slots(irregular));
}

TEST(Sell, GroupsAreWholeSlicesAndPrefixesMatchCsr) {
  const CsrMatrix a = random_irregular(300, 17);
  const std::vector<int> ends = {45, 45, 170, 300};  // includes an empty group
  const SellMatrix s = to_sell(a, ends);
  int begin = 0;
  for (const int end : ends) {
    EXPECT_GE(s.slots_of_prefix(end), 0);  // throws unless `end` ends a slice
    for (int p = begin; p < end; ++p) {
      const int r = s.row[static_cast<std::size_t>(p)];
      EXPECT_TRUE(begin <= r && r < end) << "row left its group";
    }
    begin = end;
  }
  EXPECT_THROW(s.slots_of_prefix(46), Error);
  EXPECT_THROW(to_sell(a, {10, 200}), Error);  // does not cover every row

  // A prefix product touches exactly the prefix's rows.
  Rng rng(3);
  std::vector<double> x(300), y_ref(300), y(300, -7.0);
  for (auto& e : x) e = rng.normal();
  spmv(a, x.data(), y_ref.data());
  spmv(s, 170, x.data(), y.data());
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(y[static_cast<std::size_t>(i)],
              i < 170 ? y_ref[static_cast<std::size_t>(i)] : -7.0);
  }
}

TEST(Sell, EpilogueShiftsAndStoresLikeTheUnfusedSequence) {
  // Groups of 45, 32 and 123 rows: the first and last end in short slices
  // (13 and 27 rows), and the middle group is one slice of empty rows.
  // random_irregular leaves about a quarter of the other rows empty too.
  const CsrMatrix full = random_irregular(200, 23);
  CooBuilder cb(200, 200);
  for (int i = 0; i < 200; ++i) {
    if (45 <= i && i < 77) continue;
    for (auto k = full.row_ptr[static_cast<std::size_t>(i)];
         k < full.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      cb.add(i, full.col_idx[static_cast<std::size_t>(k)],
             full.vals[static_cast<std::size_t>(k)]);
    }
  }
  const CsrMatrix a = cb.build();
  const SellMatrix s = to_sell(a, {45, 77, 200});
  ASSERT_EQ(s.slice_row,
            (std::vector<int>{0, 32, 45, 77, 109, 141, 173, 200}));
  ASSERT_EQ(s.slice_slot[3], s.slice_slot[2]);  // the empty slice
  Rng rng(11);
  std::vector<double> x(200), x2(200), ref(200), y(200), store(200);
  for (auto& e : x) e = rng.normal();
  for (auto& e : x2) e = rng.normal();
  for (const int rows : {45, 200}) {
    // Rows past the prefix must be left alone.
    std::fill(y.begin(), y.end(), -7.0);
    std::fill(store.begin(), store.end(), -7.0);
    // Real shift: y = A x - theta x.
    SellEpilogue ep;
    ep.theta = 0.75;
    ep.store = store.data();
    spmv(s, rows, x.data(), y.data(), ep);
    spmv(a, x.data(), ref.data());
    for (int i = 0; i < 200; ++i) {
      const auto u = static_cast<std::size_t>(i);
      if (i >= rows) {
        EXPECT_EQ(y[u], -7.0);
        EXPECT_EQ(store[u], -7.0);
        continue;
      }
      ref[u] -= 0.75 * x[u];
      EXPECT_EQ(y[u], ref[u]) << "rows=" << rows << " row " << i;
      EXPECT_EQ(store[u], ref[u]);
    }
    // Complex pair second member: y = A x - theta x + beta2 x2.
    ep.x2 = x2.data();
    ep.beta2 = 0.64;
    ep.store = nullptr;
    spmv(s, rows, x.data(), y.data(), ep);
    spmv(a, x.data(), ref.data());
    for (int i = 0; i < rows; ++i) {
      const auto u = static_cast<std::size_t>(i);
      ref[u] -= 0.75 * x[u];
      ref[u] += 0.64 * x2[u];
      EXPECT_EQ(y[u], ref[u]) << "rows=" << rows << " row " << i;
    }
  }
}

TEST(Io, RoundTripsGeneralMatrix) {
  CsrMatrix a = small_matrix();
  std::stringstream ss;
  write_matrix_market(a, ss);
  CsrMatrix b = read_matrix_market(ss);
  b.validate();
  EXPECT_EQ(b.n_rows, a.n_rows);
  EXPECT_EQ(b.nnz(), a.nnz());
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(b.at(i, j), a.at(i, j));
  }
}

TEST(Io, ExpandsSymmetricStorage) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n"
     << "% comment line\n"
     << "3 3 3\n"
     << "1 1 2.0\n"
     << "2 1 -1.0\n"
     << "3 3 5.0\n";
  CsrMatrix a = read_matrix_market(ss);
  EXPECT_EQ(a.nnz(), 4);  // off-diagonal mirrored
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
}

TEST(Io, RejectsGarbage) {
  std::stringstream ss("not a matrix\n");
  EXPECT_THROW(read_matrix_market(ss), Error);
}

TEST(Generators, Laplace2dStructure) {
  CsrMatrix a = make_laplace2d(4, 3);
  a.validate();
  EXPECT_EQ(a.n_rows, 12);
  const MatrixStats st = compute_stats(a);
  EXPECT_TRUE(st.structurally_symmetric);
  EXPECT_EQ(st.max_row_nnz, 5);
  // Diagonal dominance for the pure Laplacian with boundary.
  for (int i = 0; i < a.n_rows; ++i) {
    double off = 0.0;
    const double d = a.at(i, i);
    const auto lo = a.row_ptr[static_cast<std::size_t>(i)];
    const auto hi = a.row_ptr[static_cast<std::size_t>(i) + 1];
    for (auto k = lo; k < hi; ++k) {
      if (a.col_idx[static_cast<std::size_t>(k)] != i) {
        off += std::fabs(a.vals[static_cast<std::size_t>(k)]);
      }
    }
    EXPECT_GE(d, off);
  }
}

TEST(Generators, ConvectionBreaksSymmetryOfValuesNotPattern) {
  CsrMatrix a = make_laplace3d(4, 4, 4, 0.5);
  const MatrixStats st = compute_stats(a);
  EXPECT_TRUE(st.structurally_symmetric);
  // Values differ across the diagonal.
  EXPECT_NE(a.at(0, 1), a.at(1, 0));
}

TEST(Generators, CantLikeIsBandedStencil) {
  CsrMatrix a = make_cant_like(0.35);
  a.validate();
  const MatrixStats st = compute_stats(a);
  EXPECT_GT(st.avg_row_nnz, 15.0);  // 27-pt stencil, thin beam boundary
  EXPECT_LE(st.max_row_nnz, 27);
  // Banded: bandwidth much smaller than n (the beam's long axis is the
  // fastest-varying index, so the band is ~ 2 * nx * ny).
  EXPECT_LT(st.bandwidth, st.n / 2);
}

TEST(Generators, CircuitLikeScrambledHasNoLocality) {
  CsrMatrix scr = make_circuit_like(0.06, true, 11);
  CsrMatrix nat = make_circuit_like(0.06, false, 11);
  const MatrixStats s1 = compute_stats(scr);
  const MatrixStats s2 = compute_stats(nat);
  EXPECT_EQ(s1.nnz, s2.nnz);
  // Scrambling should blow up the average bandwidth.
  EXPECT_GT(s1.avg_bandwidth, 5.0 * s2.avg_bandwidth);
  EXPECT_LT(s1.avg_row_nnz, 8.0);  // low-degree circuit graph
}

TEST(Generators, KktLikeIsSymmetricSaddle) {
  CsrMatrix a = make_kkt_like(0.12);
  a.validate();
  const MatrixStats st = compute_stats(a);
  EXPECT_TRUE(st.structurally_symmetric);
  // The (2,2) block has negative diagonal (saddle point).
  EXPECT_LT(a.at(a.n_rows - 1, a.n_rows - 1), 0.0);
  EXPECT_GT(a.at(0, 0), 0.0);
}

TEST(Generators, PaperLookupAndUnknownName) {
  EXPECT_GT(make_paper_matrix("cant", 0.1).n_rows, 0);
  EXPECT_GT(make_paper_matrix("g3", 0.05).n_rows, 0);
  EXPECT_THROW(make_paper_matrix("nope", 1.0), Error);
}

TEST(Generators, DeterministicForFixedSeed) {
  const CsrMatrix a1 = make_circuit_like(0.05, true, 99);
  const CsrMatrix a2 = make_circuit_like(0.05, true, 99);
  EXPECT_EQ(a1.col_idx, a2.col_idx);
  EXPECT_EQ(a1.vals, a2.vals);
  const CsrMatrix b1 = make_circuit_like(0.05, true, 100);
  EXPECT_NE(a1.vals, b1.vals);  // different seed, different wires
}

TEST(Generators, ScaleGrowsEveryAnalog) {
  for (const char* name : {"cant", "g3_circuit", "dielfilter", "nlpkkt"}) {
    const int small = make_paper_matrix(name, 0.25).n_rows;
    const int big = make_paper_matrix(name, 0.5).n_rows;
    EXPECT_GT(big, 2 * small) << name;
  }
}

TEST(Balance, UnitRowAndColumnNorms) {
  CsrMatrix a = make_laplace2d(6, 6, 0.2);
  // Skew the scales.
  for (std::size_t k = 0; k < a.vals.size(); ++k) a.vals[k] *= 1e3;
  const BalanceScaling s = balance(a);

  // Column norms are exactly 1 after the final pass.
  std::vector<double> colsq(static_cast<std::size_t>(a.n_cols), 0.0);
  for (int i = 0; i < a.n_rows; ++i) {
    const auto lo = a.row_ptr[static_cast<std::size_t>(i)];
    const auto hi = a.row_ptr[static_cast<std::size_t>(i) + 1];
    for (auto k = lo; k < hi; ++k) {
      colsq[static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(k)])] +=
          a.vals[static_cast<std::size_t>(k)] * a.vals[static_cast<std::size_t>(k)];
    }
  }
  for (int j = 0; j < a.n_cols; ++j) {
    EXPECT_NEAR(std::sqrt(colsq[static_cast<std::size_t>(j)]), 1.0, 1e-12);
  }
  // Row norms are bounded (row pass ran before the column pass).
  for (int i = 0; i < a.n_rows; ++i) {
    double acc = 0.0;
    const auto lo = a.row_ptr[static_cast<std::size_t>(i)];
    const auto hi = a.row_ptr[static_cast<std::size_t>(i) + 1];
    for (auto k = lo; k < hi; ++k) {
      acc += a.vals[static_cast<std::size_t>(k)] * a.vals[static_cast<std::size_t>(k)];
    }
    EXPECT_LE(std::sqrt(acc), 2.0);
  }
  EXPECT_EQ(static_cast<int>(s.row.size()), a.n_rows);
}

TEST(Balance, ScaledSystemIsEquivalent) {
  // Solve consistency: (Dr A Dc) y = Dr b with x = Dc y reproduces A x = b.
  CsrMatrix a = make_laplace2d(5, 4, 0.1);
  CsrMatrix ab = a;
  const BalanceScaling s = balance(ab);
  const int n = a.n_rows;
  Rng rng(23);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) x[static_cast<std::size_t>(i)] = rng.normal();
  std::vector<double> b(static_cast<std::size_t>(n));
  spmv(a, x.data(), b.data());
  // y = Dc^{-1} x must satisfy the balanced system with rhs Dr b.
  std::vector<double> y(static_cast<std::size_t>(n)), rhs = b;
  for (int i = 0; i < n; ++i) y[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)] / s.col[static_cast<std::size_t>(i)];
  scale_rhs(s, rhs);
  std::vector<double> lhs(static_cast<std::size_t>(n));
  spmv(ab, y.data(), lhs.data());
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(lhs[static_cast<std::size_t>(i)], rhs[static_cast<std::size_t>(i)], 1e-11);
  }
  // And unscale_solution maps y back to x.
  unscale_solution(s, y);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)], 1e-11);
  }
}

TEST(Stats, BandwidthAndSymmetry) {
  CsrMatrix a = small_matrix();
  const MatrixStats st = compute_stats(a);
  EXPECT_EQ(st.n, 3);
  EXPECT_EQ(st.nnz, 6);
  EXPECT_EQ(st.bandwidth, 2);
  EXPECT_FALSE(st.structurally_symmetric);
  EXPECT_FALSE(to_string(st).empty());
}

}  // namespace
}  // namespace cagmres::sparse
