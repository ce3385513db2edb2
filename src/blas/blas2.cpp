#include "blas/blas2.hpp"

#include <cstddef>

#include "blas/blas3.hpp"

namespace cagmres::blas {

void gemv_n(int m, int n, double alpha, const double* a, int lda,
            const double* x, double beta, double* y) {
  if (beta == 0.0) {
    for (int i = 0; i < m; ++i) y[i] = 0.0;
  } else if (beta != 1.0) {
    for (int i = 0; i < m; ++i) y[i] *= beta;
  }
  // Column-sweep order keeps the inner loop unit-stride over A.
  for (int j = 0; j < n; ++j) {
    const double t = alpha * x[j];
    const double* col = a + static_cast<std::size_t>(j) * lda;
    for (int i = 0; i < m; ++i) y[i] += t * col[i];
  }
}

void gemv_t(int m, int n, double alpha, const double* a, int lda,
            const double* x, double beta, double* y) {
  // The n x 1 product A^T x of the multi-chain T,N gemm.
  gemm(Trans::T, Trans::N, n, 1, m, alpha, a, lda, x, m, beta, y, n);
}

void ger(int m, int n, double alpha, const double* x, const double* y,
         double* a, int lda) {
  for (int j = 0; j < n; ++j) {
    const double t = alpha * y[j];
    double* col = a + static_cast<std::size_t>(j) * lda;
    for (int i = 0; i < m; ++i) col[i] += t * x[i];
  }
}

}  // namespace cagmres::blas
