#include "blas/blas3.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/error.hpp"

// Blocking and multi-chain contract: DESIGN.md §9 "Cache-blocked
// tall-skinny BLAS". Every output element adds its inner-dimension terms
// one at a time in the naive loop's order; blocking and register tiling only
// interleave the chains of different outputs, so results are bit-identical
// to the naive loops for any block size or OpenMP thread count.

namespace cagmres::blas {

namespace {

inline const double* elem(const double* a, int lda, int i, int j) {
  return a + static_cast<std::size_t>(j) * lda + i;
}

/// Rows of the long dimension per cache block: with n <= 32 skinny columns
/// the working set is n * 1024 * 8B <= 256 KiB, L2-resident.
constexpr int kLongBlock = 1024;

/// Register tile of the dot-product kernels: kTileI x kTileJ running sums
/// advance together over p.
constexpr int kTileI = 4;
constexpr int kTileJ = 2;

/// acc(i, j) += sum_{p0 <= p < p1} A(p, i) * B(p, j) for an MI x NJ tile,
/// with A(p, i) = a[i * lda + p] and B(p, j) = b[p * bp + j * bj].
template <int MI, int NJ>
void dot_tile(const double* a, int lda, const double* b, std::ptrdiff_t bp,
              std::ptrdiff_t bj, int p0, int p1, double* acc, int ldacc) {
  double s[MI][NJ];
#pragma GCC unroll 4
  for (int i = 0; i < MI; ++i) {
#pragma GCC unroll 4
    for (int j = 0; j < NJ; ++j) {
      s[i][j] = acc[static_cast<std::size_t>(j) * ldacc + i];
    }
  }
  for (int p = p0; p < p1; ++p) {
    double bv[NJ];
#pragma GCC unroll 4
    for (int j = 0; j < NJ; ++j) bv[j] = b[p * bp + j * bj];
#pragma GCC unroll 4
    for (int i = 0; i < MI; ++i) {
      const double av = a[static_cast<std::size_t>(i) * lda + p];
#pragma GCC unroll 4
      for (int j = 0; j < NJ; ++j) s[i][j] += av * bv[j];
    }
  }
#pragma GCC unroll 4
  for (int i = 0; i < MI; ++i) {
#pragma GCC unroll 4
    for (int j = 0; j < NJ; ++j) {
      acc[static_cast<std::size_t>(j) * ldacc + i] = s[i][j];
    }
  }
}

/// dot_tile over `rows` <= kTileI consecutive outputs i of NJ columns.
template <int NJ>
void dot_rows(int rows, const double* a, int lda, const double* b,
              std::ptrdiff_t bp, std::ptrdiff_t bj, int p0, int p1,
              double* acc, int ldacc) {
  if (rows == kTileI) {
    dot_tile<kTileI, NJ>(a, lda, b, bp, bj, p0, p1, acc, ldacc);
    return;
  }
  for (int i = 0; i < rows; ++i) {
    dot_tile<1, NJ>(a + static_cast<std::size_t>(i) * lda, lda, b, bp, bj,
                    p0, p1, acc + i, ldacc);
  }
}

/// acc(i, j) += dot(A(:, i), B(:, j)) over k rows for i < m, j < n — or,
/// when `upper`, over at least the tiles holding i <= j. The long dimension
/// is blocked so the m + n column blocks stay cache-resident, with the
/// running sums spilled through acc between blocks. One parallel region
/// covers every block: the static schedule hands each thread the same
/// tiles in every block, so no barrier is needed between them.
void dot_block(int m, int n, int k, const double* a, int lda, const double* b,
               std::ptrdiff_t bp, std::ptrdiff_t bj, double* acc, int ldacc,
               bool upper) {
  const int ti = (m + kTileI - 1) / kTileI;
  const int tiles = ti * ((n + kTileJ - 1) / kTileJ);
#pragma omp parallel if (static_cast<long long>(m) * k > 1 << 16)
  for (int p0 = 0; p0 < k; p0 += kLongBlock) {
    const int p1 = std::min(k, p0 + kLongBlock);
#pragma omp for schedule(static, 1) nowait
    for (int t = 0; t < tiles; ++t) {
      const int i0 = t % ti * kTileI;
      const int j0 = t / ti * kTileJ;
      if (upper && i0 >= j0 + kTileJ) continue;  // below the diagonal
      const int rows = std::min(kTileI, m - i0);
      const double* ai = a + static_cast<std::size_t>(i0) * lda;
      if (j0 + kTileJ <= n) {
        dot_rows<kTileJ>(rows, ai, lda, b + j0 * bj, bp, bj, p0, p1,
                         acc + static_cast<std::size_t>(j0) * ldacc + i0,
                         ldacc);
        continue;
      }
      for (int j = j0; j < n; ++j) {
        dot_rows<1>(rows, ai, lda, b + j * bj, bp, bj, p0, p1,
                    acc + static_cast<std::size_t>(j) * ldacc + i0, ldacc);
      }
    }
  }
}

}  // namespace

void gemm(Trans ta, Trans tb, int m, int n, int k, double alpha,
          const double* a, int lda, const double* b, int ldb, double beta,
          double* c, int ldc) {
#pragma omp parallel for schedule(static) if (static_cast<long long>(m) * n > 1 << 16)
  for (int j = 0; j < n; ++j) {
    double* cj = c + static_cast<std::size_t>(j) * ldc;
    if (beta == 0.0) {
      for (int i = 0; i < m; ++i) cj[i] = 0.0;
    } else if (beta != 1.0) {
      for (int i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
  if (alpha == 0.0 || k == 0) return;

  if (ta == Trans::T) {
    // C(i,j) += alpha * dot(A(:,i), op(B)(:,j)) — the V^T W Gram/projection
    // shape (k large; m, n skinny). The dots accumulate in an m x n scratch
    // and alpha is applied once at the end.
    std::vector<double> acc(static_cast<std::size_t>(m) * n, 0.0);
    const std::ptrdiff_t bp = tb == Trans::N ? 1 : ldb;
    const std::ptrdiff_t bj = tb == Trans::N ? ldb : 1;
    dot_block(m, n, k, a, lda, b, bp, bj, acc.data(), m, false);
    for (int j = 0; j < n; ++j) {
      double* cj = c + static_cast<std::size_t>(j) * ldc;
      const double* accj = acc.data() + static_cast<std::size_t>(j) * m;
      for (int i = 0; i < m; ++i) cj[i] += alpha * accj[i];
    }
    return;
  }
  if (tb == Trans::N) {
    // C += alpha * A * B — the V * R panel-update shape (m large; n, k
    // skinny). Row-blocked so an i-block of A (all k columns of it) stays
    // cache-resident across the n output columns: A streams from DRAM
    // once instead of n times. Four p terms are fused per pass over the
    // block, added to the running sum one at a time in p order.
#pragma omp parallel for schedule(static) if (static_cast<long long>(m) * n * k > 1 << 18)
    for (int i0 = 0; i0 < m; i0 += kLongBlock) {
      const int i1 = std::min(m, i0 + kLongBlock);
      for (int j = 0; j < n; ++j) {
        double* cj = c + static_cast<std::size_t>(j) * ldc;
        int p = 0;
        for (; p + 4 <= k; p += 4) {
          const double t0 = alpha * *elem(b, ldb, p, j);
          const double t1 = alpha * *elem(b, ldb, p + 1, j);
          const double t2 = alpha * *elem(b, ldb, p + 2, j);
          const double t3 = alpha * *elem(b, ldb, p + 3, j);
          const double* a0 = a + static_cast<std::size_t>(p) * lda;
          const double* a1 = a + static_cast<std::size_t>(p + 1) * lda;
          const double* a2 = a + static_cast<std::size_t>(p + 2) * lda;
          const double* a3 = a + static_cast<std::size_t>(p + 3) * lda;
          for (int i = i0; i < i1; ++i) {
            double x = cj[i];
            x += t0 * a0[i];
            x += t1 * a1[i];
            x += t2 * a2[i];
            x += t3 * a3[i];
            cj[i] = x;
          }
        }
        for (; p < k; ++p) {
          const double t = alpha * *elem(b, ldb, p, j);
          const double* ap = a + static_cast<std::size_t>(p) * lda;
          for (int i = i0; i < i1; ++i) cj[i] += t * ap[i];
        }
      }
    }
  } else {
    // C += alpha * A * B^T — long dimension kept, like N,N but with B read
    // across a row. Row-blocked the same way: an i-block of A's k columns
    // stays cache-resident across the n output columns, with four p terms
    // fused per pass and added one at a time in p order (bit-identical to
    // the naive j/p/i loop this replaces).
#pragma omp parallel for schedule(static) if (static_cast<long long>(m) * n * k > 1 << 18)
    for (int i0 = 0; i0 < m; i0 += kLongBlock) {
      const int i1 = std::min(m, i0 + kLongBlock);
      for (int j = 0; j < n; ++j) {
        double* cj = c + static_cast<std::size_t>(j) * ldc;
        int p = 0;
        for (; p + 4 <= k; p += 4) {
          const double t0 = alpha * *elem(b, ldb, j, p);
          const double t1 = alpha * *elem(b, ldb, j, p + 1);
          const double t2 = alpha * *elem(b, ldb, j, p + 2);
          const double t3 = alpha * *elem(b, ldb, j, p + 3);
          const double* a0 = a + static_cast<std::size_t>(p) * lda;
          const double* a1 = a + static_cast<std::size_t>(p + 1) * lda;
          const double* a2 = a + static_cast<std::size_t>(p + 2) * lda;
          const double* a3 = a + static_cast<std::size_t>(p + 3) * lda;
          for (int i = i0; i < i1; ++i) {
            double x = cj[i];
            x += t0 * a0[i];
            x += t1 * a1[i];
            x += t2 * a2[i];
            x += t3 * a3[i];
            cj[i] = x;
          }
        }
        for (; p < k; ++p) {
          const double t = alpha * *elem(b, ldb, j, p);
          const double* ap = a + static_cast<std::size_t>(p) * lda;
          for (int i = i0; i < i1; ++i) cj[i] += t * ap[i];
        }
      }
    }
  }
}

void syrk_tn(int m, int n, const double* a, int lda, double* c, int ldc) {
  // One cache-blocked pass over the tall panel accumulates the upper
  // triangle in place; the diagonal tiles also cover a few lower entries,
  // which hold the same sums and are overwritten by the mirror below.
  for (int j = 0; j < n; ++j) {
    std::fill_n(c + static_cast<std::size_t>(j) * ldc, n, 0.0);
  }
  dot_block(n, n, m, a, lda, a, 1, lda, c, ldc, true);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < j; ++i) {
      c[static_cast<std::size_t>(i) * ldc + j] =
          c[static_cast<std::size_t>(j) * ldc + i];
    }
  }
}

void trsm_right_upper(int m, int n, const double* r, int ldr, double* b,
                      int ldb) {
  // Checked before B is touched: a singular R throws with B unchanged, and
  // no throw has to leave the parallel region below.
  for (int j = 0; j < n; ++j) {
    CAGMRES_REQUIRE(*elem(r, ldr, j, j) != 0.0, "trsm: zero diagonal in R");
  }
  // Column j of B*R^{-1} depends only on columns 0..j of B: solve left to
  // right, subtracting the already-finished columns (zero R entries are
  // skipped), then scale. Row-blocked like the N,N gemm so a block of all
  // n columns stays cache-resident; four nonzero terms are fused per pass
  // over the block and subtracted one at a time in p order.
#pragma omp parallel for schedule(static) if (static_cast<long long>(m) * n * n > 1 << 18)
  for (int i0 = 0; i0 < m; i0 += kLongBlock) {
    const int i1 = std::min(m, i0 + kLongBlock);
    for (int j = 0; j < n; ++j) {
      double* bj = b + static_cast<std::size_t>(j) * ldb;
      double t[4];
      const double* bp[4];
      int cnt = 0;
      for (int p = 0; p < j; ++p) {
        t[cnt] = *elem(r, ldr, p, j);
        if (t[cnt] == 0.0) continue;
        bp[cnt] = b + static_cast<std::size_t>(p) * ldb;
        if (++cnt < 4) continue;
        for (int i = i0; i < i1; ++i) {
          double x = bj[i];
          x -= t[0] * bp[0][i];
          x -= t[1] * bp[1][i];
          x -= t[2] * bp[2][i];
          x -= t[3] * bp[3][i];
          bj[i] = x;
        }
        cnt = 0;
      }
      for (int u = 0; u < cnt; ++u) {
        for (int i = i0; i < i1; ++i) bj[i] -= t[u] * bp[u][i];
      }
      const double inv = 1.0 / *elem(r, ldr, j, j);
      for (int i = i0; i < i1; ++i) bj[i] *= inv;
    }
  }
}

void trmm_right_upper(int m, int n, const double* r, int ldr, double* b,
                      int ldb) {
  // Process right to left so untouched columns of B remain available.
  for (int j = n - 1; j >= 0; --j) {
    double* bj = b + static_cast<std::size_t>(j) * ldb;
    const double d = *elem(r, ldr, j, j);
    for (int i = 0; i < m; ++i) bj[i] *= d;
    for (int p = 0; p < j; ++p) {
      const double t = *elem(r, ldr, p, j);
      if (t == 0.0) continue;
      const double* bp = b + static_cast<std::size_t>(p) * ldb;
      for (int i = 0; i < m; ++i) bj[i] += t * bp[i];
    }
  }
}

}  // namespace cagmres::blas
