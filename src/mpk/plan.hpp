// Matrix powers kernel plan: everything the CPU precomputes before the
// iteration begins (paper §IV-A).
//
// For each device the plan holds (all in a device-local index space where
// owned rows come first, followed by external indices in hop order):
//  - the local block A^(d) (owned rows) in sliced ELLPACK (SELL-C-sigma)
//    for the device SpMV;
//  - the boundary submatrix (rows at hop 1..s-1) in the same format, its
//    rows grouped by hop and its slices never crossing a hop group, so the
//    rows step k must multiply are exactly a prefix of whole slices;
//  - the gather/scatter index lists for the one-shot halo exchange.
// The same plan with s=1 implements the baseline distributed SpMV.
#pragma once

#include <cstdint>
#include <vector>

#include "mpk/stats.hpp"
#include "sparse/csr.hpp"
#include "sparse/sell.hpp"

namespace cagmres::mpk {

/// Per-device slice of an MpkPlan.
struct MpkDevicePlan {
  int row0 = 0;   ///< first owned global row
  int owned = 0;  ///< number of owned rows

  /// External (non-owned) global indices the device ever needs, hop order.
  std::vector<int> ext_global;
  /// Owning device of each external index.
  std::vector<int> ext_owner;
  /// Row offset of each external index within its owner's block.
  std::vector<int> ext_owner_row;

  sparse::SellMatrix local;  ///< owned rows, device-local column indices

  /// Boundary rows (hops 1..s-1) grouped by hop, device-local columns; each
  /// stored row's output index (SellMatrix::row) is its z-buffer position.
  sparse::SellMatrix boundary;
  /// boundary_rows_at_step[k-1]: how many leading boundary rows step k
  /// multiplies (rows of hop <= s-k; always a whole number of slices).
  std::vector<int> boundary_rows_at_step;

  /// Owned-local row indices that any other device needs (the pack list for
  /// the gather-to-CPU side of the exchange).
  std::vector<int> send_local_rows;

  /// Size of the working vector: owned + external.
  int z_size() const {
    return owned + static_cast<int>(ext_global.size());
  }
};

/// A complete s-step matrix powers plan over all devices.
struct MpkPlan {
  int s = 1;
  std::vector<int> offsets;  ///< block-row offsets, size n_devices + 1
  std::vector<MpkDevicePlan> dev;
  MpkStats stats;

  int n_devices() const { return static_cast<int>(dev.size()); }
  /// Rows-per-device vector for constructing matching DistMultiVecs.
  std::vector<int> rows_per_device() const;
};

/// Builds the plan for matrix `a` distributed by `offsets` (size n_dev + 1)
/// with `s` powers per invocation. `a` must already be permuted so that the
/// device blocks are contiguous (see graph::make_partition).
MpkPlan build_mpk_plan(const sparse::CsrMatrix& a,
                       const std::vector<int>& offsets, int s);

}  // namespace cagmres::mpk
