// Sliced ELLPACK (SELL-C-sigma, Kreutzer et al., SISC 2014) — the device
// SpMV format.
//
// Plain ELLPACK (the paper's Fig. 3 format) pads every row to the widest
// row of the whole matrix. SELL-C-sigma cuts the rows into slices of C
// consecutive stored rows and pads each slice only to its own widest row.
// Before slicing, rows are sorted by length (longest first, stable) within
// fixed windows of sigma rows, so rows of similar length share a slice;
// `row` records where each stored row's result goes. Within a slice the
// storage is slot-major — entry (row r of the slice, slot k) lives at
// slice_slot[j] + k * h + r, h the slice height — so consecutive GPU
// threads (one per row) read consecutive memory, exactly as in ELLPACK.
//
// Each stored row holds its CSR entries in CSR order followed by padding
// (value 0, column = the row's last column, or min(i, n_cols - 1) for an
// empty row i), so a row accumulates in CSR order and, for finite x, the
// result equals the CSR SpMV bitwise.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"

namespace cagmres::sparse {

/// SELL-C-sigma matrix. C and sigma are fixed (DESIGN.md §5.1 records the
/// measurements behind them).
struct SellMatrix {
  static constexpr int kSliceHeight = 32;  ///< C
  static constexpr int kSortWindow = 4096;  ///< sigma (a multiple of C)

  int n_rows = 0;
  int n_cols = 0;
  /// First stored row of each slice, size n_slices + 1. Slices are C rows
  /// tall except the last one of each group (see to_sell).
  std::vector<int> slice_row;
  /// First slot of each slice, size n_slices + 1.
  std::vector<std::int64_t> slice_slot;
  /// Output index of each stored row (size n_rows): y[row[p]] receives
  /// stored row p. The identity up to the length sort for a plain matrix.
  std::vector<int> row;
  std::vector<int> col_idx;  ///< size stored_slots()
  std::vector<double> vals;  ///< size stored_slots(); padding is 0.0

  int n_slices() const { return static_cast<int>(slice_row.size()) - 1; }
  std::int64_t stored_slots() const {
    return slice_slot.empty() ? 0 : slice_slot.back();
  }
  /// Number of leading slices holding exactly the first `rows` stored
  /// rows; throws unless `rows` ends a slice.
  int slices_of_prefix(int rows) const;
  /// Slots of the first `rows` stored rows; `rows` must end a slice.
  std::int64_t slots_of_prefix(int rows) const {
    return slice_slot[static_cast<std::size_t>(slices_of_prefix(rows))];
  }
};

/// Converts CSR to SELL-C-sigma. `group_ends` (ascending, last ==
/// a.n_rows; empty = one group) splits the rows into consecutive groups
/// that slices and sort windows never cross, so the first group_ends[g]
/// rows are always a whole number of slices.
SellMatrix to_sell(const CsrMatrix& a, const std::vector<int>& group_ends = {});

/// Shift and second output folded into one sliced SpMV pass: with
/// r = row[p], stored row p produces
///   t = (A x)_p - theta * x[r] + beta2 * x2[r],
/// writes y[r] = t and, when `store` is set, store[r] = t. The theta term is
/// applied when theta != 0 or x2 is set, the beta2 term when x2 is set, so
/// the default epilogue is a plain SpMV.
struct SellEpilogue {
  double theta = 0.0;
  const double* x2 = nullptr;  ///< two back, for a complex pair's second member
  double beta2 = 0.0;
  double* store = nullptr;

  bool shifted() const { return theta != 0.0 || x2 != nullptr; }
};

/// Runs the first `rows` stored rows (a whole number of slices) with the
/// given epilogue. Each row adds its slots one at a time in slot order (the
/// multi-chain contract of DESIGN.md §9), so the result is bitwise
/// identical for any thread count.
void spmv(const SellMatrix& a, int rows, const double* x, double* y,
          const SellEpilogue& ep = {});

/// y := A x over every row.
inline void spmv(const SellMatrix& a, const double* x, double* y) {
  spmv(a, a.n_rows, x, y);
}

}  // namespace cagmres::sparse
