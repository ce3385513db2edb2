#include "ortho/metrics.hpp"

#include <cmath>
#include <limits>

#include "blas/blas1.hpp"
#include "blas/blas3.hpp"
#include "blas/svd.hpp"
#include "common/error.hpp"

namespace cagmres::ortho {

namespace {

/// Gram matrix of columns [c0, c1) accumulated across device blocks.
blas::DMat block_gram(const sim::DistMultiVec& v, int c0, int c1) {
  const int k = c1 - c0;
  blas::DMat g(k, k);
  blas::DMat local(k, k);
  for (int d = 0; d < v.n_parts(); ++d) {
    blas::syrk_tn(v.local_rows(d), k, v.col(d, c0), v.local(d).ld(),
                  local.data(), local.ld());
    for (int j = 0; j < k; ++j) {
      for (int i = 0; i < k; ++i) g(i, j) += local(i, j);
    }
  }
  return g;
}

}  // namespace

double orthogonality_error(const sim::DistMultiVec& q, int c0, int c1) {
  blas::DMat g = block_gram(q, c0, c1);
  double acc = 0.0;
  for (int j = 0; j < g.cols(); ++j) {
    for (int i = 0; i < g.rows(); ++i) {
      const double e = g(i, j) - (i == j ? 1.0 : 0.0);
      acc += e * e;
    }
  }
  return std::sqrt(acc);
}

double condition_number(const sim::DistMultiVec& v, int c0, int c1) {
  const blas::DMat g = block_gram(v, c0, c1);
  const blas::EighResult eig = blas::jacobi_eigh(g);
  // Roundoff pushes the small eigenvalues of a near-singular Gram matrix
  // slightly negative (and a poisoned block makes them NaN); scan and clamp
  // before the sqrt so callers always see inf/huge kappa, never NaN.
  double lmax = 0.0;
  double lmin = std::numeric_limits<double>::infinity();
  for (const double w : eig.w) {
    if (!std::isfinite(w)) return std::numeric_limits<double>::infinity();
    lmax = std::max(lmax, w);
    lmin = std::min(lmin, w);
  }
  lmin = std::max(lmin, 0.0);
  if (lmin == 0.0 || lmax <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return std::sqrt(lmax / lmin);
}

double condition_number_charged(sim::Machine& m, const sim::DistMultiVec& v,
                                int c0, int c1) {
  const int k = c1 - c0;
  // Priced like the CholQR Gram step it duplicates: one SYRK per device
  // over the panel, the k x k reduction to the host, and the host-side
  // Jacobi sweeps.
  std::vector<sim::Event> ev;
  for (int d = 0; d < v.n_parts(); ++d) {
    const double rows = static_cast<double>(v.local_rows(d));
    m.charge_device(d, sim::Kernel::kGemm, rows * k * k,
                    8.0 * (rows * k + static_cast<double>(k) * k));
    m.d2h(d, 8.0 * static_cast<double>(k) * k);
    ev.push_back(m.record_event(d));
  }
  // The waits come after every message is in flight (waiting inside the
  // posting loop would serialize the device kernels through the host).
  for (const sim::Event& e : ev) m.host_wait_event(e);
  m.charge_host(sim::Kernel::kSmall, 30.0 * static_cast<double>(k) * k * k,
                0.0);
  return condition_number(v, c0, c1);
}

OrthoErrors measure_errors(const sim::DistMultiVec& q,
                           const sim::DistMultiVec& v_orig, int c0, int c1,
                           const blas::DMat& r) {
  CAGMRES_REQUIRE(q.n_parts() == v_orig.n_parts(), "layout mismatch");
  const int k = c1 - c0;
  CAGMRES_REQUIRE(r.rows() == k && r.cols() == k, "R dimension mismatch");
  OrthoErrors e;
  e.orthogonality = orthogonality_error(q, c0, c1);

  double resid_sq = 0.0;
  double v_sq = 0.0;
  double elem_sq = 0.0;
  blas::DMat qr_block;
  for (int d = 0; d < q.n_parts(); ++d) {
    const int rows = q.local_rows(d);
    CAGMRES_REQUIRE(rows == v_orig.local_rows(d), "block size mismatch");
    // QR product for this device block.
    qr_block = blas::DMat(rows, k);
    for (int j = 0; j < k; ++j) {
      blas::copy(rows, q.col(d, c0 + j), qr_block.col(j));
    }
    blas::trmm_right_upper(rows, k, r.data(), r.ld(), qr_block.data(),
                           qr_block.ld());
    for (int j = 0; j < k; ++j) {
      const double* v0 = v_orig.col(d, c0 + j);
      const double* qr = qr_block.col(j);
      for (int i = 0; i < rows; ++i) {
        const double diff = v0[i] - qr[i];
        resid_sq += diff * diff;
        v_sq += v0[i] * v0[i];
        if (v0[i] != 0.0) {
          const double rel = diff / v0[i];
          elem_sq += rel * rel;
        }
      }
    }
  }
  e.factorization = (v_sq > 0.0) ? std::sqrt(resid_sq / v_sq) : 0.0;
  e.elementwise = std::sqrt(elem_sq);
  return e;
}

}  // namespace cagmres::ortho
