// Real wall-clock microbenchmarks (google-benchmark) of the host kernels
// that execute the simulated device's numerics: BLAS-1/2/3, the panel QR,
// and SpMV in both formats (CSR and sliced ELLPACK). These measure THIS machine, not the paper's —
// they exist to keep the reference kernels honest (vectorization, layout)
// and to catch performance regressions in the library itself.
#include <benchmark/benchmark.h>

#include "blas/blas1.hpp"
#include "blas/blas2.hpp"
#include "blas/blas3.hpp"
#include "blas/lapack.hpp"
#include "common/rng.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "sparse/sell.hpp"

using namespace cagmres;

namespace {

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Rng rng(seed);
  for (auto& e : v) e = rng.normal();
  return v;
}

void BM_Dot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto x = random_vec(static_cast<std::size_t>(n), 1);
  const auto y = random_vec(static_cast<std::size_t>(n), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(blas::dot(n, x.data(), y.data()));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Dot)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_Axpy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto x = random_vec(static_cast<std::size_t>(n), 1);
  auto y = random_vec(static_cast<std::size_t>(n), 2);
  for (auto _ : state) {
    blas::axpy(n, 1.000001, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Axpy)->Arg(1 << 16)->Arg(1 << 20);

void BM_GemvT_TallSkinny(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = 30;
  const auto a = random_vec(static_cast<std::size_t>(n) * k, 3);
  const auto x = random_vec(static_cast<std::size_t>(n), 4);
  std::vector<double> y(static_cast<std::size_t>(k));
  for (auto _ : state) {
    blas::gemv_t(n, k, 1.0, a.data(), n, x.data(), 0.0, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * 2);
}
BENCHMARK(BM_GemvT_TallSkinny)->Arg(1 << 14)->Arg(1 << 18);

void BM_Gram_TallSkinny(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = 30;
  const auto a = random_vec(static_cast<std::size_t>(n) * k, 5);
  std::vector<double> c(static_cast<std::size_t>(k) * k);
  for (auto _ : state) {
    blas::syrk_tn(n, k, a.data(), n, c.data(), k);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * k);
}
BENCHMARK(BM_Gram_TallSkinny)->Arg(1 << 14)->Arg(1 << 18);

// The BOrth projection Q^T V: 45 earlier basis columns against a 16-column
// block (s = 15 plus the overlap column), k rows per device.
void BM_GemmTN_Projection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int kq = 45, kv = 16;
  const auto q = random_vec(static_cast<std::size_t>(n) * kq, 9);
  const auto v = random_vec(static_cast<std::size_t>(n) * kv, 10);
  std::vector<double> c(static_cast<std::size_t>(kq) * kv);
  for (auto _ : state) {
    blas::gemm(blas::Trans::T, blas::Trans::N, kq, kv, n, 1.0, q.data(), n,
               v.data(), n, 0.0, c.data(), kq);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * kq * kv);
}
BENCHMARK(BM_GemmTN_Projection)->Arg(1 << 14)->Arg(1 << 17);

// The CholQR panel solve B := B R^{-1} on a 16-column block. R is unit
// upper triangular with tiny off-diagonals, so repeated solves in place
// keep B's scale.
void BM_TrsmPanel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = 16;
  auto b = random_vec(static_cast<std::size_t>(n) * k, 11);
  auto r = random_vec(static_cast<std::size_t>(k) * k, 12);
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < k; ++i) {
      auto& e = r[static_cast<std::size_t>(j) * k + i];
      e = i == j ? 1.0 : i < j ? 1e-8 * e : 0.0;
    }
  }
  for (auto _ : state) {
    blas::trsm_right_upper(n, k, r.data(), k, b.data(), n);
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * k * k);
}
BENCHMARK(BM_TrsmPanel)->Arg(1 << 14)->Arg(1 << 17);

void BM_PanelQr(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = 30;
  Rng rng(6);
  blas::DMat v(n, k);
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < n; ++i) v(i, j) = rng.normal();
  }
  blas::DMat q, r;
  for (auto _ : state) {
    blas::qr_explicit(v, q, r);
    benchmark::DoNotOptimize(q.data());
  }
  state.SetItemsProcessed(state.iterations() * 4ll * n * k * k);
}
BENCHMARK(BM_PanelQr)->Arg(1 << 12)->Arg(1 << 15);

void BM_SpmvCsr(benchmark::State& state) {
  const auto a = sparse::make_laplace3d(40, 40, static_cast<int>(state.range(0)));
  const auto x = random_vec(static_cast<std::size_t>(a.n_rows), 7);
  std::vector<double> y(static_cast<std::size_t>(a.n_rows));
  for (auto _ : state) {
    sparse::spmv(a, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpmvCsr)->Arg(10)->Arg(40);

void BM_SpmvSell(benchmark::State& state) {
  const auto a = sparse::make_laplace3d(40, 40, static_cast<int>(state.range(0)));
  const auto e = sparse::to_sell(a);
  const auto x = random_vec(static_cast<std::size_t>(a.n_rows), 8);
  std::vector<double> y(static_cast<std::size_t>(a.n_rows));
  for (auto _ : state) {
    sparse::spmv(e, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpmvSell)->Arg(10)->Arg(40);

// One fused MPK step on the cant analog: SpMV, real Newton shift, and the
// store into the basis column.
void BM_SpmvSell_CantShiftStore(benchmark::State& state) {
  const auto a = sparse::make_cant_like();
  const auto e = sparse::to_sell(a);
  const auto x = random_vec(static_cast<std::size_t>(a.n_rows), 13);
  std::vector<double> y(static_cast<std::size_t>(a.n_rows));
  std::vector<double> store(static_cast<std::size_t>(a.n_rows));
  sparse::SellEpilogue ep;
  ep.theta = 0.5;
  ep.store = store.data();
  for (auto _ : state) {
    sparse::spmv(e, a.n_rows, x.data(), y.data(), ep);
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(store.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpmvSell_CantShiftStore);

}  // namespace

BENCHMARK_MAIN();
