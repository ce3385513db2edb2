#include "sparse/sell.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace cagmres::sparse {

static_assert(SellMatrix::kSortWindow % SellMatrix::kSliceHeight == 0,
              "sigma must be a multiple of C");

int SellMatrix::slices_of_prefix(int rows) const {
  const auto it = std::lower_bound(slice_row.begin(), slice_row.end(), rows);
  CAGMRES_REQUIRE(it != slice_row.end() && *it == rows,
                  "row prefix does not end a slice");
  return static_cast<int>(it - slice_row.begin());
}

SellMatrix to_sell(const CsrMatrix& a, const std::vector<int>& group_ends) {
  constexpr int kC = SellMatrix::kSliceHeight;
  constexpr int kSigma = SellMatrix::kSortWindow;
  std::vector<int> ends = group_ends;
  if (ends.empty()) ends.push_back(a.n_rows);
  CAGMRES_REQUIRE(ends.back() == a.n_rows, "groups must cover every row");

  SellMatrix out;
  out.n_rows = a.n_rows;
  out.n_cols = a.n_cols;
  out.row.resize(static_cast<std::size_t>(a.n_rows));
  std::iota(out.row.begin(), out.row.end(), 0);
  out.slice_row.push_back(0);
  out.slice_slot.push_back(0);

  std::vector<int> len(static_cast<std::size_t>(a.n_rows));
  for (int i = 0; i < a.n_rows; ++i) {
    len[static_cast<std::size_t>(i)] = a.row_nnz(i);
  }
  const auto length = [&len](int i) {
    return len[static_cast<std::size_t>(i)];
  };
  const auto longer = [&length](int i, int j) { return length(i) > length(j); };

  // Sort windows and slices restart at every group start.
  int begin = 0;
  for (const int end : ends) {
    CAGMRES_REQUIRE(begin <= end, "group ends must ascend");
    for (int w = begin; w < end; w += kSigma) {
      const auto first = out.row.begin() + w;
      std::stable_sort(first, first + std::min(kSigma, end - w), longer);
    }
    for (int r0 = begin; r0 < end; r0 += kC) {
      const int h = std::min(kC, end - r0);
      int width = 0;
      for (int r = r0; r < r0 + h; ++r) {
        width = std::max(width, length(out.row[static_cast<std::size_t>(r)]));
      }
      out.slice_row.push_back(r0 + h);
      out.slice_slot.push_back(out.slice_slot.back() +
                               static_cast<std::int64_t>(h) * width);
    }
    begin = end;
  }

  const auto slots = static_cast<std::size_t>(out.stored_slots());
  out.col_idx.resize(slots);
  out.vals.assign(slots, 0.0);
  for (int j = 0; j < out.n_slices(); ++j) {
    const int r0 = out.slice_row[static_cast<std::size_t>(j)];
    const int h = out.slice_row[static_cast<std::size_t>(j) + 1] - r0;
    const std::int64_t s0 = out.slice_slot[static_cast<std::size_t>(j)];
    const auto width =
        (out.slice_slot[static_cast<std::size_t>(j) + 1] - s0) / h;
    for (int r = 0; r < h; ++r) {
      const int i = out.row[static_cast<std::size_t>(r0 + r)];
      const auto lo = a.row_ptr[static_cast<std::size_t>(i)];
      const int nnz = length(i);
      // Padding repeats a column the row already reads: always in range,
      // and a non-finite x there poisons the row exactly as in CSR.
      const int pad_col =
          nnz > 0 ? a.col_idx[static_cast<std::size_t>(lo + nnz - 1)]
                  : std::min(i, a.n_cols - 1);
      for (std::int64_t k = 0; k < width; ++k) {
        const auto dst = static_cast<std::size_t>(s0 + k * h + r);
        if (k < nnz) {
          out.col_idx[dst] = a.col_idx[static_cast<std::size_t>(lo + k)];
          out.vals[dst] = a.vals[static_cast<std::size_t>(lo + k)];
        } else {
          out.col_idx[dst] = pad_col;
        }
      }
    }
  }
  return out;
}

void spmv(const SellMatrix& a, int rows, const double* x, double* y,
          const SellEpilogue& ep) {
  const int slices = a.slices_of_prefix(rows);
  const bool shifted = ep.shifted();
#pragma omp parallel for schedule(static) if (rows > 1 << 13)
  for (int j = 0; j < slices; ++j) {
    const int r0 = a.slice_row[static_cast<std::size_t>(j)];
    const int h = a.slice_row[static_cast<std::size_t>(j) + 1] - r0;
    const std::int64_t s0 = a.slice_slot[static_cast<std::size_t>(j)];
    const auto width = (a.slice_slot[static_cast<std::size_t>(j) + 1] - s0) / h;
    const double* v = a.vals.data() + s0;
    const int* c = a.col_idx.data() + s0;
    // Slot-major sweep: the slice's h rows are h independent chains, each
    // still adding its slots in order (DESIGN.md §9).
    double acc[SellMatrix::kSliceHeight] = {};
    for (std::int64_t k = 0; k < width; ++k) {
      const double* vk = v + k * h;
      const int* ck = c + k * h;
      for (int r = 0; r < h; ++r) acc[r] += vk[r] * x[ck[r]];
    }
    for (int r = 0; r < h; ++r) {
      const int out = a.row[static_cast<std::size_t>(r0 + r)];
      double t = acc[r];
      if (shifted) {
        t -= ep.theta * x[out];
        if (ep.x2 != nullptr) t += ep.beta2 * ep.x2[out];
      }
      y[out] = t;
      if (ep.store != nullptr) ep.store[out] = t;
    }
  }
}

}  // namespace cagmres::sparse
