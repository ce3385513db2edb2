// Unit tests for the dense BLAS / LAPACK-lite substrate.
#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "blas/blas2.hpp"
#include "blas/blas3.hpp"
#include "blas/eig.hpp"
#include "blas/lapack.hpp"
#include "blas/least_squares.hpp"
#include "blas/matrix.hpp"
#include "blas/svd.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace cagmres::blas {
namespace {

DMat random_matrix(int rows, int cols, Rng& rng) {
  DMat a(rows, cols);
  for (int j = 0; j < cols; ++j) {
    for (int i = 0; i < rows; ++i) a(i, j) = rng.normal();
  }
  return a;
}

double frob_diff(const DMat& a, const DMat& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double acc = 0.0;
  for (int j = 0; j < a.cols(); ++j) {
    for (int i = 0; i < a.rows(); ++i) {
      const double d = a(i, j) - b(i, j);
      acc += d * d;
    }
  }
  return std::sqrt(acc);
}

/// A rows x cols column-major panel whose leading dimension exceeds rows.
/// The gap rows hold NaN, so a kernel that reads past a column poisons its
/// result.
struct Panel {
  int ld;
  std::vector<double> v;
  Panel(int r, int c, Rng& rng)
      : ld(r + 3),
        v(static_cast<std::size_t>(ld) * c,
          std::numeric_limits<double>::quiet_NaN()) {
    for (int j = 0; j < c; ++j) {
      for (int i = 0; i < r; ++i) (*this)(i, j) = rng.normal();
    }
  }
  double& operator()(int i, int j) {
    return v[static_cast<std::size_t>(j) * ld + i];
  }
  double* data() { return v.data(); }
};

/// Shapes of the bitwise kernel tests: skinny counts 1, 3, 5, 17 hit every
/// register-tile tail; 3900 rows cross kLongBlock three times, and with 17
/// columns pass the kernels' OpenMP thresholds.
constexpr int kSkinny[] = {1, 3, 5, 17};
constexpr int kLong = 3900;

TEST(Blas1, DotAxpyScalCopy) {
  const int n = 257;
  Rng rng(1);
  std::vector<double> x(n), y(n), y0(n);
  for (int i = 0; i < n; ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
    y0[i] = y[i];
  }
  double expected = 0.0;
  for (int i = 0; i < n; ++i) expected += x[i] * y[i];
  EXPECT_NEAR(dot(n, x.data(), y.data()), expected, 1e-12 * n);

  axpy(n, 2.5, x.data(), y.data());
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(y[i], y0[i] + 2.5 * x[i]);

  scal(n, 0.5, y.data());
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(y[i], 0.5 * (y0[i] + 2.5 * x[i]));

  copy(n, x.data(), y.data());
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(Blas1, Nrm2MatchesDotAndResistsOverflow) {
  const int n = 100;
  Rng rng(2);
  std::vector<double> x(n);
  for (int i = 0; i < n; ++i) x[i] = rng.normal();
  EXPECT_NEAR(nrm2(n, x.data()), std::sqrt(dot(n, x.data(), x.data())),
              1e-12);
  // Entries near DBL_MAX's sqrt would overflow a naive sum of squares.
  std::vector<double> big(4, 1e200);
  EXPECT_NEAR(nrm2(4, big.data()), 2e200, 1e186);
  std::vector<double> zero(4, 0.0);
  EXPECT_EQ(nrm2(4, zero.data()), 0.0);
}

TEST(Blas1, Amax) {
  std::vector<double> x = {1.0, -7.5, 3.0};
  EXPECT_DOUBLE_EQ(amax(3, x.data()), 7.5);
  EXPECT_DOUBLE_EQ(amax(0, x.data()), 0.0);
}

TEST(Blas2, GemvAgainstReference) {
  const int m = 37, n = 11;
  Rng rng(3);
  DMat a = random_matrix(m, n, rng);
  std::vector<double> x(n), y(m, 1.0);
  for (int j = 0; j < n; ++j) x[j] = rng.normal();

  std::vector<double> y_ref(m);
  for (int i = 0; i < m; ++i) {
    double acc = 0.0;
    for (int j = 0; j < n; ++j) acc += a(i, j) * x[j];
    y_ref[i] = 1.5 * acc + 0.5 * 1.0;
  }
  gemv_n(m, n, 1.5, a.data(), a.ld(), x.data(), 0.5, y.data());
  for (int i = 0; i < m; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-12);

  // gemv_t is exact: each y[j] adds its terms in row order, as the naive
  // dot does.
  for (const int n_cols : kSkinny) {
    for (const double beta : {0.0, -0.5}) {
      Panel at(kLong, n_cols, rng);
      std::vector<double> xt(kLong), yt(n_cols), yt0(n_cols);
      for (auto& e : xt) e = rng.normal();
      for (auto& e : yt0) e = rng.normal();
      yt = yt0;
      const double alpha = -1.25;
      gemv_t(kLong, n_cols, alpha, at.data(), at.ld, xt.data(), beta,
             yt.data());
      for (int j = 0; j < n_cols; ++j) {
        double acc = 0.0;
        for (int i = 0; i < kLong; ++i) acc += at(i, j) * xt[i];
        const double ref = alpha * acc + (beta == 0.0 ? 0.0 : beta * yt0[j]);
        EXPECT_EQ(yt[j], ref) << "cols=" << n_cols << " beta=" << beta
                              << " j=" << j;
      }
    }
  }
}

TEST(Blas2, GerRank1Update) {
  const int m = 8, n = 5;
  Rng rng(4);
  DMat a = random_matrix(m, n, rng);
  DMat a0 = a;
  std::vector<double> x(m), y(n);
  for (int i = 0; i < m; ++i) x[i] = rng.normal();
  for (int j = 0; j < n; ++j) y[j] = rng.normal();
  ger(m, n, -2.0, x.data(), y.data(), a.data(), a.ld());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(a(i, j), a0(i, j) - 2.0 * x[i] * y[j], 1e-13);
    }
  }
}

TEST(Blas3, GemmAllTransposeCombos) {
  const int m = 9, n = 7, k = 5;
  Rng rng(5);
  DMat an = random_matrix(m, k, rng);
  DMat at = random_matrix(k, m, rng);
  DMat bn = random_matrix(k, n, rng);
  DMat bt = random_matrix(n, k, rng);

  auto reference = [&](const DMat& aa, bool tra, const DMat& bb, bool trb) {
    DMat c(m, n);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < m; ++i) {
        double acc = 0.0;
        for (int p = 0; p < k; ++p) {
          const double av = tra ? aa(p, i) : aa(i, p);
          const double bv = trb ? bb(j, p) : bb(p, j);
          acc += av * bv;
        }
        c(i, j) = acc;
      }
    }
    return c;
  };

  struct Case {
    Trans ta, tb;
    const DMat *a, *b;
    bool ra, rb;
  };
  const Case cases[] = {
      {Trans::N, Trans::N, &an, &bn, false, false},
      {Trans::T, Trans::N, &at, &bn, true, false},
      {Trans::N, Trans::T, &an, &bt, false, true},
      {Trans::T, Trans::T, &at, &bt, true, true},
  };
  for (const auto& cs : cases) {
    DMat c(m, n);
    gemm(cs.ta, cs.tb, m, n, k, 1.0, cs.a->data(), cs.a->ld(), cs.b->data(),
         cs.b->ld(), 0.0, c.data(), c.ld());
    const DMat ref = reference(*cs.a, cs.ra, *cs.b, cs.rb);
    EXPECT_LT(frob_diff(c, ref), 1e-12) << "ta=" << (cs.ta == Trans::T)
                                        << " tb=" << (cs.tb == Trans::T);
  }
}

TEST(Blas3, GemmAlphaBeta) {
  const int m = 4, n = 3, k = 2;
  Rng rng(6);
  DMat a = random_matrix(m, k, rng);
  DMat b = random_matrix(k, n, rng);
  DMat c = random_matrix(m, n, rng);
  DMat c0 = c;
  gemm(Trans::N, Trans::N, m, n, k, 2.0, a.data(), a.ld(), b.data(), b.ld(),
       -1.0, c.data(), c.ld());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) acc += a(i, p) * b(p, j);
      EXPECT_NEAR(c(i, j), 2.0 * acc - c0(i, j), 1e-12);
    }
  }
}

TEST(Blas3, GemmTransTransWithAlphaBeta) {
  const int m = 11, n = 6, k = 8;
  Rng rng(55);
  DMat a = random_matrix(k, m, rng);  // op(A) = A^T is m x k
  DMat b = random_matrix(n, k, rng);  // op(B) = B^T is k x n
  DMat c = random_matrix(m, n, rng);
  DMat c0 = c;
  gemm(Trans::T, Trans::T, m, n, k, 1.5, a.data(), a.ld(), b.data(), b.ld(),
       -0.5, c.data(), c.ld());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) acc += a(p, i) * b(j, p);
      EXPECT_NEAR(c(i, j), 1.5 * acc - 0.5 * c0(i, j), 1e-12)
          << "i=" << i << " j=" << j;
    }
  }
}

// The cache-blocked tall-skinny paths (N,N panel update, T,N Gram product,
// syrk) kick in past the 1024-row long-dimension block; check them against
// the reference triple loop on shapes that straddle the block boundary and
// the OpenMP-enable thresholds.
TEST(Blas3, BlockedTallSkinnyPathsMatchReference) {
  // T,N gemm, syrk_tn and trsm_right_upper interleave the sums of different
  // outputs but keep each output's term order, so they equal the naive
  // loops bitwise.
  Rng rng(56);
  for (const int ka : kSkinny) {
    for (const int kb : kSkinny) {
      for (const double beta : {0.0, -0.5}) {
        Panel v(kLong, ka, rng);
        Panel w(kLong, kb, rng);
        const DMat c0 = random_matrix(ka, kb, rng);
        DMat g = c0;
        const double alpha = 1.5;
        gemm(Trans::T, Trans::N, ka, kb, kLong, alpha, v.data(), v.ld,
             w.data(), w.ld, beta, g.data(), g.ld());
        for (int j = 0; j < kb; ++j) {
          for (int i = 0; i < ka; ++i) {
            double acc = 0.0;
            for (int p = 0; p < kLong; ++p) acc += v(p, i) * w(p, j);
            const double ref =
                (beta == 0.0 ? 0.0 : beta * c0(i, j)) + alpha * acc;
            EXPECT_EQ(g(i, j), ref) << "T,N " << ka << "x" << kb
                                    << " beta=" << beta << " (" << i << ","
                                    << j << ")";
          }
        }
        // Panel update W <- W - V G (N,N path, the BOrth projection shape).
        Panel upd = w;
        gemm(Trans::N, Trans::N, kLong, kb, ka, -1.0, v.data(), v.ld,
             g.data(), g.ld(), 1.0, upd.data(), upd.ld);
        for (int j = 0; j < kb; ++j) {
          for (int i = 0; i < kLong; ++i) {
            double acc = w(i, j);
            for (int p = 0; p < ka; ++p) acc += (-1.0 * g(p, j)) * v(i, p);
            EXPECT_EQ(upd(i, j), acc) << "N,N " << ka << "x" << kb << " ("
                                      << i << "," << j << ")";
          }
        }
      }
    }
  }

  for (const int k : kSkinny) {
    Panel v(kLong, k, rng);
    DMat s(k, k);
    syrk_tn(kLong, k, v.data(), v.ld, s.data(), s.ld());
    for (int j = 0; j < k; ++j) {
      for (int i = 0; i <= j; ++i) {
        double acc = 0.0;
        for (int p = 0; p < kLong; ++p) acc += v(p, i) * v(p, j);
        EXPECT_EQ(s(i, j), acc) << "syrk k=" << k << " (" << i << "," << j
                                << ")";
        EXPECT_EQ(s(j, i), acc);
      }
    }
  }

  for (const int k : kSkinny) {
    // Some zero entries above the diagonal: the solve skips them, which
    // matters for signed zeros and non-finite B.
    DMat r(k, k);
    for (int j = 0; j < k; ++j) {
      for (int i = 0; i < j; ++i) r(i, j) = (i + j) % 3 == 0 ? 0.0 : rng.normal();
      r(j, j) = 2.0 + rng.uniform();
    }
    Panel b(kLong, k, rng);
    Panel ref = b;
    trsm_right_upper(kLong, k, r.data(), r.ld(), b.data(), b.ld);
    for (int j = 0; j < k; ++j) {
      for (int p = 0; p < j; ++p) {
        if (r(p, j) == 0.0) continue;
        for (int i = 0; i < kLong; ++i) ref(i, j) -= r(p, j) * ref(i, p);
      }
      const double inv = 1.0 / r(j, j);
      for (int i = 0; i < kLong; ++i) ref(i, j) *= inv;
    }
    for (int j = 0; j < k; ++j) {
      for (int i = 0; i < kLong; ++i) {
        EXPECT_EQ(b(i, j), ref(i, j)) << "trsm k=" << k << " (" << i << ","
                                      << j << ")";
      }
    }
  }
}

// The transposed-B branches (N,T and T,T) share the blocking schemes above
// (ISSUE 4 satellite). Their determinism contract is exact — the per-element
// term order matches the naive loops they replaced — so compare with ==, on
// shapes that straddle kLongBlock, the OpenMP thresholds, and a k with a
// 4-fuse remainder.
TEST(Blas3, BlockedTransposedBPathsAreBitIdenticalToNaive) {
  Rng rng(57);
  {
    // N,T: long dimension kept; m crosses the block twice, k % 4 == 2, and
    // m*n*k exceeds the parallel threshold.
    const int m = 2500, n = 8, k = 14;
    DMat a = random_matrix(m, k, rng);
    DMat b = random_matrix(n, k, rng);
    const DMat c0 = random_matrix(m, n, rng);
    DMat c = c0, ref = c0;
    const double alpha = 1.5, beta = -0.5;
    gemm(Trans::N, Trans::T, m, n, k, alpha, a.data(), a.ld(), b.data(),
         b.ld(), beta, c.data(), c.ld());
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < m; ++i) ref(i, j) *= beta;
      for (int p = 0; p < k; ++p) {
        const double t = alpha * b(j, p);
        for (int i = 0; i < m; ++i) ref(i, j) += t * a(i, p);
      }
    }
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < m; ++i) {
        EXPECT_EQ(c(i, j), ref(i, j)) << "N,T i=" << i << " j=" << j;
      }
    }
  }
  {
    // T,T: contracted dimension crosses the block twice and m*k exceeds
    // the parallel threshold; alpha applied once after the blocked sum.
    const int m = 30, n = 5, k = 2300;
    DMat a = random_matrix(k, m, rng);
    DMat b = random_matrix(n, k, rng);
    const DMat c0 = random_matrix(m, n, rng);
    DMat c = c0, ref = c0;
    const double alpha = 2.0;
    gemm(Trans::T, Trans::T, m, n, k, alpha, a.data(), a.ld(), b.data(),
         b.ld(), 1.0, c.data(), c.ld());
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < m; ++i) {
        double s = 0.0;
        for (int p = 0; p < k; ++p) s += a(p, i) * b(j, p);
        ref(i, j) += alpha * s;
        EXPECT_EQ(c(i, j), ref(i, j)) << "T,T i=" << i << " j=" << j;
      }
    }
  }
}

TEST(Blas3, SyrkMatchesGemm) {
  const int m = 50, n = 6;
  Rng rng(7);
  DMat a = random_matrix(m, n, rng);
  DMat c(n, n), ref(n, n);
  syrk_tn(m, n, a.data(), a.ld(), c.data(), c.ld());
  gemm(Trans::T, Trans::N, n, n, m, 1.0, a.data(), a.ld(), a.data(), a.ld(),
       0.0, ref.data(), ref.ld());
  EXPECT_LT(frob_diff(c, ref), 1e-11);
  // Exact symmetry by construction.
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) EXPECT_EQ(c(i, j), c(j, i));
  }
}

TEST(Blas3, TrsmThenTrmmRoundTrips) {
  const int m = 20, n = 5;
  Rng rng(8);
  DMat r(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) r(i, j) = rng.normal();
    r(j, j) += 4.0;  // well conditioned
  }
  DMat b = random_matrix(m, n, rng);
  DMat b0 = b;
  trsm_right_upper(m, n, r.data(), r.ld(), b.data(), b.ld());
  trmm_right_upper(m, n, r.data(), r.ld(), b.data(), b.ld());
  EXPECT_LT(frob_diff(b, b0), 1e-12);
}

TEST(Blas3, TrsmSingularThrows) {
  // The zero pivot is checked before B is touched, so B comes back
  // unchanged — including the columns ahead of the pivot.
  DMat r(3, 3);
  r(0, 0) = 2.0;
  r(0, 1) = 0.5;
  r(1, 1) = 4.0;
  r(0, 2) = 1.0;
  r(2, 2) = 0.0;
  Rng rng(10);
  const DMat b0 = random_matrix(5, 3, rng);
  DMat b = b0;
  EXPECT_THROW(trsm_right_upper(5, 3, r.data(), r.ld(), b.data(), b.ld()),
               Error);
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i < 5; ++i) EXPECT_EQ(b(i, j), b0(i, j));
  }
}

TEST(Lapack, CholeskyFactorizesSpd) {
  const int n = 8;
  Rng rng(9);
  DMat g = random_matrix(20, n, rng);
  DMat b(n, n);
  syrk_tn(20, n, g.data(), g.ld(), b.data(), b.ld());
  for (int j = 0; j < n; ++j) b(j, j) += 1.0;

  DMat r = b;
  ASSERT_EQ(potrf_upper(r), -1);
  // R^T R == B.
  DMat rtr(n, n);
  gemm(Trans::T, Trans::N, n, n, n, 1.0, r.data(), r.ld(), r.data(), r.ld(),
       0.0, rtr.data(), rtr.ld());
  EXPECT_LT(frob_diff(rtr, b), 1e-10);
  // Strict lower triangle zeroed.
  for (int j = 0; j < n; ++j) {
    for (int i = j + 1; i < n; ++i) EXPECT_EQ(r(i, j), 0.0);
  }
}

TEST(Lapack, CholeskyReportsBreakdownColumn) {
  DMat b(3, 3);
  b(0, 0) = 4.0;
  b(1, 1) = 1.0;
  b(2, 2) = -1.0;  // indefinite
  EXPECT_EQ(potrf_upper(b), 2);

  DMat nan_mat(2, 2);
  nan_mat(0, 0) = std::nan("");
  EXPECT_EQ(potrf_upper(nan_mat), 0);
}

TEST(Lapack, QrExplicitReconstructs) {
  const int m = 40, n = 7;
  Rng rng(10);
  DMat v = random_matrix(m, n, rng);
  DMat q, r;
  qr_explicit(v, q, r);

  // Q^T Q == I.
  DMat qtq(n, n);
  gemm(Trans::T, Trans::N, n, n, m, 1.0, q.data(), q.ld(), q.data(), q.ld(),
       0.0, qtq.data(), qtq.ld());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(qtq(i, j), i == j ? 1.0 : 0.0, 1e-12);
    }
  }
  // Q R == V.
  DMat qr = q;
  trmm_right_upper(m, n, r.data(), r.ld(), qr.data(), qr.ld());
  EXPECT_LT(frob_diff(qr, v), 1e-11);
  // Positive diagonal and upper triangularity of R.
  for (int j = 0; j < n; ++j) {
    EXPECT_GT(r(j, j), 0.0);
    for (int i = j + 1; i < n; ++i) EXPECT_EQ(r(i, j), 0.0);
  }
}

TEST(Lapack, QrHandlesSquareAndSingleColumn) {
  Rng rng(11);
  DMat v = random_matrix(5, 5, rng);
  DMat q, r;
  qr_explicit(v, q, r);
  DMat qr = q;
  trmm_right_upper(5, 5, r.data(), r.ld(), qr.data(), qr.ld());
  EXPECT_LT(frob_diff(qr, v), 1e-11);

  DMat col = random_matrix(9, 1, rng);
  qr_explicit(col, q, r);
  EXPECT_NEAR(r(0, 0), nrm2(9, col.col(0)), 1e-12);
}

TEST(Lapack, TrsvAndTrtri) {
  const int n = 6;
  Rng rng(12);
  DMat r(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) r(i, j) = rng.normal();
    r(j, j) += 3.0;
  }
  std::vector<double> b(n), x(n);
  for (int i = 0; i < n; ++i) b[i] = rng.normal();
  x = b;
  trsv_upper(r, x.data());
  // R x == b.
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j = i; j < n; ++j) acc += r(i, j) * x[j];
    EXPECT_NEAR(acc, b[i], 1e-11);
  }

  DMat rinv = r;
  trtri_upper(rinv);
  DMat prod(n, n);
  gemm(Trans::N, Trans::N, n, n, n, 1.0, r.data(), r.ld(), rinv.data(),
       rinv.ld(), 0.0, prod.data(), prod.ld());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-11);
    }
  }
}

TEST(JacobiEigh, DiagonalizesSymmetricMatrix) {
  const int n = 10;
  Rng rng(13);
  DMat g = random_matrix(30, n, rng);
  DMat b(n, n);
  syrk_tn(30, n, g.data(), g.ld(), b.data(), b.ld());

  const EighResult e = jacobi_eigh(b);
  // Eigenvalues descending and non-negative (B is a Gram matrix).
  for (int i = 1; i < n; ++i) EXPECT_LE(e.w[i], e.w[i - 1]);
  EXPECT_GE(e.w.back(), -1e-10);

  // U diag(w) U^T == B.
  DMat usqrt = e.u;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) usqrt(i, j) *= e.w[static_cast<std::size_t>(j)];
  }
  DMat recon(n, n);
  gemm(Trans::N, Trans::T, n, n, n, 1.0, usqrt.data(), usqrt.ld(),
       e.u.data(), e.u.ld(), 0.0, recon.data(), recon.ld());
  EXPECT_LT(frob_diff(recon, b), 1e-9 * (1.0 + e.w.front()));

  // U orthonormal.
  DMat utu(n, n);
  gemm(Trans::T, Trans::N, n, n, n, 1.0, e.u.data(), e.u.ld(), e.u.data(),
       e.u.ld(), 0.0, utu.data(), utu.ld());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(utu(i, j), i == j ? 1.0 : 0.0, 1e-11);
    }
  }
}

TEST(JacobiEigh, KnownEigenvalues) {
  DMat a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 2.0;
  const EighResult e = jacobi_eigh(a);
  EXPECT_NEAR(e.w[0], 3.0, 1e-13);
  EXPECT_NEAR(e.w[1], 1.0, 1e-13);
}

TEST(HessenbergEig, UpperTriangularGivesDiagonal) {
  const int n = 5;
  DMat h(n, n);
  for (int i = 0; i < n; ++i) h(i, i) = i + 1.0;
  h(0, 4) = 3.0;
  auto eig = hessenberg_eig(h);
  std::vector<double> re;
  for (const auto& e : eig) {
    EXPECT_NEAR(e.imag(), 0.0, 1e-12);
    re.push_back(e.real());
  }
  std::sort(re.begin(), re.end());
  for (int i = 0; i < n; ++i) EXPECT_NEAR(re[i], i + 1.0, 1e-10);
}

TEST(HessenbergEig, RotationBlockGivesComplexPair) {
  // [[cos, -sin], [sin, cos]] scaled by rho has eigenvalues rho*e^{+-i t}.
  const double rho = 2.0, t = 0.7;
  DMat h(2, 2);
  h(0, 0) = rho * std::cos(t);
  h(0, 1) = -rho * std::sin(t);
  h(1, 0) = rho * std::sin(t);
  h(1, 1) = rho * std::cos(t);
  auto eig = hessenberg_eig(h);
  ASSERT_EQ(eig.size(), 2u);
  EXPECT_NEAR(std::abs(eig[0]), rho, 1e-12);
  EXPECT_NEAR(std::abs(eig[0].imag()), rho * std::sin(t), 1e-12);
  EXPECT_NEAR(eig[0].real(), rho * std::cos(t), 1e-12);
  EXPECT_NEAR(eig[0].imag() + eig[1].imag(), 0.0, 1e-12);
}

TEST(HessenbergEig, RandomHessenbergTraceAndProduct) {
  // Eigenvalue sum equals the trace; their product equals the determinant
  // (checked via |det| from the eigenvalue moduli of a small matrix).
  const int n = 8;
  Rng rng(14);
  DMat h(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= std::min(j + 1, n - 1); ++i) h(i, j) = rng.normal();
  }
  auto eig = hessenberg_eig(h);
  std::complex<double> sum = 0.0;
  for (const auto& e : eig) sum += e;
  double trace = 0.0;
  for (int i = 0; i < n; ++i) trace += h(i, i);
  EXPECT_NEAR(sum.real(), trace, 1e-9);
  EXPECT_NEAR(sum.imag(), 0.0, 1e-9);
}

TEST(GivensLS, MatchesNormalEquationsOnHessenberg) {
  const int m = 6;
  Rng rng(15);
  DMat h(m + 1, m);
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i <= j + 1; ++i) h(i, j) = rng.normal();
  }
  const double beta = 3.0;
  double res = 0.0;
  const std::vector<double> y = solve_hessenberg_ls(h, beta, &res);

  // Residual vector r = beta*e1 - H y must be orthogonal to range(H).
  std::vector<double> r(static_cast<std::size_t>(m) + 1, 0.0);
  r[0] = beta;
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i <= j + 1; ++i) r[static_cast<std::size_t>(i)] -= h(i, j) * y[static_cast<std::size_t>(j)];
  }
  for (int j = 0; j < m; ++j) {
    double acc = 0.0;
    for (int i = 0; i <= j + 1; ++i) acc += h(i, j) * r[static_cast<std::size_t>(i)];
    EXPECT_NEAR(acc, 0.0, 1e-10);
  }
  EXPECT_NEAR(res, nrm2(m + 1, r.data()), 1e-10);
}

TEST(GivensLS, ProgressiveResidualIsMonotone) {
  const int m = 10;
  Rng rng(16);
  GivensLS ls(m, 1.0);
  double prev = 1.0;
  std::vector<double> col(static_cast<std::size_t>(m) + 1);
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i <= j + 1; ++i) col[static_cast<std::size_t>(i)] = rng.normal();
    const double res = ls.append_column(col.data());
    EXPECT_LE(res, prev + 1e-12);
    prev = res;
  }
  EXPECT_EQ(ls.size(), m);
}

TEST(GivensLS, ExactSystemGivesZeroResidual) {
  // H y = beta*e1 solvable exactly when H is square-ish with last row 0.
  DMat h(3, 2);
  h(0, 0) = 2.0;
  h(1, 0) = 1.0;
  h(0, 1) = 0.0;
  h(1, 1) = 1.0;
  h(2, 1) = 0.0;
  // With h(2,1)=0 the 3rd equation is trivially satisfiable.
  double res = 0.0;
  const auto y = solve_hessenberg_ls(h, 4.0, &res);
  EXPECT_NEAR(res, 0.0, 1e-12);
  EXPECT_NEAR(2.0 * y[0] + 0.0 * y[1], 4.0, 1e-12);
  EXPECT_NEAR(1.0 * y[0] + 1.0 * y[1], 0.0, 1e-12);
}

TEST(MatrixClass, BoundsAndFill) {
  DMat a(3, 2);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 2);
  a.fill(7.0);
  for (int j = 0; j < 2; ++j) {
    for (int i = 0; i < 3; ++i) EXPECT_EQ(a(i, j), 7.0);
  }
  EXPECT_EQ(a.col(1), a.data() + 3);
}

}  // namespace
}  // namespace cagmres::blas
