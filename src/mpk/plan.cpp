#include "mpk/plan.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "mpk/boundary.hpp"

namespace cagmres::mpk {

std::vector<int> MpkPlan::rows_per_device() const {
  std::vector<int> rows;
  rows.reserve(dev.size());
  for (const auto& d : dev) rows.push_back(d.owned);
  return rows;
}

namespace {

/// Owner device of a global row under the block offsets.
int owner_of(const std::vector<int>& offsets, int row) {
  const auto it = std::upper_bound(offsets.begin(), offsets.end(), row);
  return static_cast<int>(it - offsets.begin()) - 1;
}

}  // namespace

MpkPlan build_mpk_plan(const sparse::CsrMatrix& a,
                       const std::vector<int>& offsets, int s) {
  CAGMRES_REQUIRE(a.n_rows == a.n_cols, "MPK needs a square matrix");
  CAGMRES_REQUIRE(offsets.size() >= 2 && offsets.front() == 0 &&
                      offsets.back() == a.n_rows,
                  "bad offsets");
  CAGMRES_REQUIRE(s >= 1, "s must be positive");
  const int ng = static_cast<int>(offsets.size()) - 1;
  const int n = a.n_rows;

  MpkPlan plan;
  plan.s = s;
  plan.offsets = offsets;
  plan.dev.resize(static_cast<std::size_t>(ng));
  plan.stats.s = s;
  plan.stats.n_devices = ng;
  plan.stats.local_nnz.assign(static_cast<std::size_t>(ng), 0);
  plan.stats.boundary_nnz.assign(static_cast<std::size_t>(ng), 0);
  plan.stats.ext_count.assign(static_cast<std::size_t>(ng), 0);
  plan.stats.send_count.assign(static_cast<std::size_t>(ng), 0);
  plan.stats.extra_flops.assign(static_cast<std::size_t>(ng), 0.0);

  // Global send sets: owned rows of each device needed elsewhere.
  std::vector<std::vector<int>> send_global(static_cast<std::size_t>(ng));

  // Scratch global -> local map, stamped per device.
  std::vector<int> loc(static_cast<std::size_t>(n), -1);
  std::vector<int> touched;

  for (int d = 0; d < ng; ++d) {
    MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    dp.row0 = offsets[static_cast<std::size_t>(d)];
    dp.owned = offsets[static_cast<std::size_t>(d) + 1] - dp.row0;

    const BoundarySets bs = compute_boundary_sets(a, dp.row0,
                                                  dp.row0 + dp.owned, s);
    // External indices in hop order; remember each one's hop for the
    // boundary prefix bookkeeping.
    std::vector<int> ext_hop;
    for (int t = 1; t <= s; ++t) {
      for (const int g : bs.hops[static_cast<std::size_t>(t) - 1]) {
        dp.ext_global.push_back(g);
        ext_hop.push_back(t);
      }
    }
    dp.ext_owner.reserve(dp.ext_global.size());
    dp.ext_owner_row.reserve(dp.ext_global.size());
    for (const int g : dp.ext_global) {
      const int o = owner_of(offsets, g);
      dp.ext_owner.push_back(o);
      dp.ext_owner_row.push_back(g - offsets[static_cast<std::size_t>(o)]);
      send_global[static_cast<std::size_t>(o)].push_back(g);
    }

    // Device-local index space: owned rows first, then externals.
    touched.clear();
    for (int i = 0; i < dp.owned; ++i) {
      loc[static_cast<std::size_t>(dp.row0 + i)] = i;
      touched.push_back(dp.row0 + i);
    }
    for (std::size_t e = 0; e < dp.ext_global.size(); ++e) {
      loc[static_cast<std::size_t>(dp.ext_global[e])] =
          dp.owned + static_cast<int>(e);
      touched.push_back(dp.ext_global[e]);
    }

    // Local block A^(d) with remapped columns.
    {
      sparse::CsrMatrix local;
      local.n_rows = dp.owned;
      local.n_cols = dp.z_size();
      local.row_ptr.resize(static_cast<std::size_t>(dp.owned) + 1);
      local.row_ptr[0] = 0;
      for (int i = 0; i < dp.owned; ++i) {
        local.row_ptr[static_cast<std::size_t>(i) + 1] =
            local.row_ptr[static_cast<std::size_t>(i)] +
            a.row_nnz(dp.row0 + i);
      }
      local.col_idx.resize(static_cast<std::size_t>(local.row_ptr.back()));
      local.vals.resize(static_cast<std::size_t>(local.row_ptr.back()));
      for (int i = 0; i < dp.owned; ++i) {
        const auto lo = a.row_ptr[static_cast<std::size_t>(dp.row0 + i)];
        const int len = a.row_nnz(dp.row0 + i);
        auto dst = local.row_ptr[static_cast<std::size_t>(i)];
        for (int k = 0; k < len; ++k) {
          const int g = a.col_idx[static_cast<std::size_t>(lo) + k];
          const int l = loc[static_cast<std::size_t>(g)];
          CAGMRES_ASSERT(l >= 0, "owned row references unclassified column");
          local.col_idx[static_cast<std::size_t>(dst)] = l;
          local.vals[static_cast<std::size_t>(dst)] =
              a.vals[static_cast<std::size_t>(lo) + k];
          ++dst;
        }
      }
      plan.stats.local_nnz[static_cast<std::size_t>(d)] = local.nnz();
      dp.local = sparse::to_sell(local);
    }

    // Boundary submatrix: rows at hops 1..s-1, hop order. Step k multiplies
    // the prefix of rows with hop <= s-k; each hop is one slicing group.
    {
      std::vector<int> brow_global;
      std::vector<int> rows_with_hop_le(static_cast<std::size_t>(s), 0);
      for (int t = 1; t <= s - 1; ++t) {
        for (const int g : bs.hops[static_cast<std::size_t>(t) - 1]) {
          brow_global.push_back(g);
        }
        rows_with_hop_le[static_cast<std::size_t>(t)] =
            static_cast<int>(brow_global.size());
      }
      dp.boundary_rows_at_step.resize(static_cast<std::size_t>(s));
      for (int k = 1; k <= s; ++k) {
        const int max_hop = s - k;
        dp.boundary_rows_at_step[static_cast<std::size_t>(k) - 1] =
            (max_hop >= 1) ? rows_with_hop_le[static_cast<std::size_t>(max_hop)]
                           : 0;
      }

      sparse::CsrMatrix b;
      b.n_rows = static_cast<int>(brow_global.size());
      b.n_cols = dp.z_size();
      b.row_ptr.resize(brow_global.size() + 1);
      b.row_ptr[0] = 0;
      for (std::size_t i = 0; i < brow_global.size(); ++i) {
        b.row_ptr[i + 1] = b.row_ptr[i] + a.row_nnz(brow_global[i]);
      }
      b.col_idx.resize(static_cast<std::size_t>(b.row_ptr.back()));
      b.vals.resize(static_cast<std::size_t>(b.row_ptr.back()));
      for (std::size_t i = 0; i < brow_global.size(); ++i) {
        const int g = brow_global[i];
        const auto lo = a.row_ptr[static_cast<std::size_t>(g)];
        const int len = a.row_nnz(g);
        auto dst = b.row_ptr[i];
        for (int k = 0; k < len; ++k) {
          const int gc = a.col_idx[static_cast<std::size_t>(lo) + k];
          const int l = loc[static_cast<std::size_t>(gc)];
          CAGMRES_ASSERT(l >= 0, "boundary row references unclassified column");
          b.col_idx[static_cast<std::size_t>(dst)] = l;
          b.vals[static_cast<std::size_t>(dst)] =
              a.vals[static_cast<std::size_t>(lo) + k];
          ++dst;
        }
      }
      plan.stats.boundary_nnz[static_cast<std::size_t>(d)] = b.nnz();
      // Extra flops per MPK call: 2 * sum over steps of the boundary nnz
      // multiplied at that step.
      double w = 0.0;
      for (int k = 1; k <= s; ++k) {
        const int rows =
            dp.boundary_rows_at_step[static_cast<std::size_t>(k) - 1];
        w += 2.0 * static_cast<double>(b.row_ptr[static_cast<std::size_t>(rows)]);
      }
      plan.stats.extra_flops[static_cast<std::size_t>(d)] = w;
      dp.boundary = sparse::to_sell(
          b, {rows_with_hop_le.begin() + 1, rows_with_hop_le.end()});
      // Scatter each result straight to its row's z-buffer position.
      for (int& r : dp.boundary.row) {
        const int g = brow_global[static_cast<std::size_t>(r)];
        r = loc[static_cast<std::size_t>(g)];
      }
    }

    plan.stats.ext_count[static_cast<std::size_t>(d)] =
        static_cast<std::int64_t>(dp.ext_global.size());

    // Un-stamp the scratch map.
    for (const int g : touched) loc[static_cast<std::size_t>(g)] = -1;
  }

  // Dedupe send sets and convert to owned-local indices.
  for (int d = 0; d < ng; ++d) {
    auto& sg = send_global[static_cast<std::size_t>(d)];
    std::sort(sg.begin(), sg.end());
    sg.erase(std::unique(sg.begin(), sg.end()), sg.end());
    MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    dp.send_local_rows.reserve(sg.size());
    for (const int g : sg) dp.send_local_rows.push_back(g - dp.row0);
    plan.stats.send_count[static_cast<std::size_t>(d)] =
        static_cast<std::int64_t>(sg.size());
  }
  return plan;
}

}  // namespace cagmres::mpk
