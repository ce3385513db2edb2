#include "precond/trisolve.hpp"

#include <limits>
#include <utility>
#include <vector>

namespace cagmres::precond {

namespace {

/// Charges one kernel per level of `s`, in level order, and returns the
/// levels an injected transient kernel fault hit (ascending).
std::vector<int> charge_levels(sim::Machine& m, int d, const LevelSchedule& s,
                               double row_flops, double row_bytes) {
  std::vector<int> hits;
  for (int l = 0; l < s.levels(); ++l) {
    const int rows = s.level_rows(l);
    const double nnz = s.level_nnz[static_cast<std::size_t>(l)];
    m.charge_device(d, sim::Kernel::kSpmvCsr, 2.0 * nnz + row_flops * rows,
                    nnz * 20.0 + row_bytes * rows);
    if (m.consume_kernel_fault(d)) hits.push_back(l);
  }
  return hits;
}

/// Runs every level of `s` in order, level l's rows in parallel through
/// `row(i)`. A hit level NaN-poisons the rows it produced before the next
/// level reads them, mirroring mpk/exec.cpp.
template <class Row>
void sweep(const LevelSchedule& s, const std::vector<int>& hits, double* out,
           Row row) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto hit = hits.begin();
  for (int l = 0; l < s.levels(); ++l) {
    const int* ord = s.order.data() + s.level_ptr[static_cast<std::size_t>(l)];
    const int rows = s.level_rows(l);
#pragma omp parallel for schedule(static) if (rows > 1 << 10)
    for (int r = 0; r < rows; ++r) row(ord[r]);
    if (hit != hits.end() && *hit == l) {
      for (int r = 0; r < rows; ++r) out[ord[r]] = nan;
      ++hit;
    }
  }
}

}  // namespace

void level_trisolve(sim::Machine& m, int d, const DeviceFactor& f,
                    const double* in, double* out) {
  const DeviceFactor* fp = &f;

  // Forward sweep: L y = in, unit diagonal. out[i] = in[i] - sum l_ij y[j]
  // with every j in an earlier level, so the whole level is one parallel
  // kernel. Charged per level like the boundary SpMV in mpk/exec.cpp; the
  // sweep's levels run in one closure on the device's stream.
  std::vector<int> hits = charge_levels(m, d, f.l_sched, 0.0, 16.0);
  m.run_on_device(d, [=, hits = std::move(hits)] {
    sweep(fp->l_sched, hits, out, [=](int i) {
      double acc = in[i];
      const auto plo = fp->l_ptr[static_cast<std::size_t>(i)];
      const auto phi = fp->l_ptr[static_cast<std::size_t>(i) + 1];
      for (auto p = plo; p < phi; ++p) {
        acc -= fp->l_val[static_cast<std::size_t>(p)] *
               out[fp->l_idx[static_cast<std::size_t>(p)]];
      }
      out[i] = acc;
    });
  });
  // Backward sweep, in place: U x = y with the diagonal held inverted.
  // out[i] = (out[i] - sum u_ij out[j]) * inv_diag[i], dependencies in
  // earlier (higher-row) levels.
  hits = charge_levels(m, d, f.u_sched, 1.0, 24.0);
  m.run_on_device(d, [=, hits = std::move(hits)] {
    sweep(fp->u_sched, hits, out, [=](int i) {
      double acc = out[i];
      const auto plo = fp->u_ptr[static_cast<std::size_t>(i)];
      const auto phi = fp->u_ptr[static_cast<std::size_t>(i) + 1];
      for (auto p = plo; p < phi; ++p) {
        acc -= fp->u_val[static_cast<std::size_t>(p)] *
               out[fp->u_idx[static_cast<std::size_t>(p)]];
      }
      out[i] = acc * fp->inv_diag[static_cast<std::size_t>(i)];
    });
  });
}

}  // namespace cagmres::precond
