#include "mpk/exec.hpp"

#include <limits>

#include "common/error.hpp"
#include "sim/device_blas.hpp"

namespace cagmres::mpk {

namespace {

/// Injected transient kernel fault on the halo expand (an inline charged
/// loop of the exchange): NaN-poison the slice it produced, mirroring
/// sim/device_blas.cpp.
void poison(double* p, int n) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < n; ++i) p[i] = nan;
}

}  // namespace

MpkExecutor::MpkExecutor(const MpkPlan& plan) : plan_(&plan) {
  const int ng = plan.n_devices();
  z_.resize(static_cast<std::size_t>(ng));
  pack_buf_.resize(static_cast<std::size_t>(ng));
  ext_owners_.resize(static_cast<std::size_t>(ng));
  for (int d = 0; d < ng; ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    z_[static_cast<std::size_t>(d)].assign(
        3, std::vector<double>(static_cast<std::size_t>(dp.z_size()), 0.0));
    pack_buf_[static_cast<std::size_t>(d)].assign(dp.send_local_rows.size(),
                                                  0.0);
    // ext_owner lists one owner per external index in hop order; reduce it
    // to the set of distinct senders this device depends on.
    std::vector<char> seen(static_cast<std::size_t>(ng), 0);
    for (const int o : dp.ext_owner) seen[static_cast<std::size_t>(o)] = 1;
    auto& owners = ext_owners_[static_cast<std::size_t>(d)];
    for (int o = 0; o < ng; ++o) {
      if (seen[static_cast<std::size_t>(o)] != 0) owners.push_back(o);
    }
  }
}

void MpkExecutor::build_node_split(const sim::Machine& m) {
  const sim::Topology& topo = m.topology();
  if (split_nodes_ == topo.n_nodes && split_gpn_ == topo.gpus_per_node) {
    return;
  }
  split_nodes_ = topo.n_nodes;
  split_gpn_ = topo.gpus_per_node;
  const MpkPlan& plan = *plan_;
  const int ng = plan.n_devices();
  send_local_bytes_.assign(static_cast<std::size_t>(ng), 0.0);
  send_cross_bytes_.assign(static_cast<std::size_t>(ng), 0.0);
  ext_local_bytes_.assign(static_cast<std::size_t>(ng), 0.0);
  // Distinct owned rows each sender ships to same-node vs off-node readers
  // (2-bit marks per owned row; a row read from both sides goes in both
  // messages). Walking every consumer's ext list once is O(plan size).
  std::vector<std::vector<char>> mark(static_cast<std::size_t>(ng));
  for (int o = 0; o < ng; ++o) {
    mark[static_cast<std::size_t>(o)].assign(
        static_cast<std::size_t>(plan.dev[static_cast<std::size_t>(o)].owned),
        0);
  }
  for (int d = 0; d < ng; ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    const int myn = m.node_of(d);
    for (std::size_t e = 0; e < dp.ext_owner.size(); ++e) {
      const int o = dp.ext_owner[e];
      const auto r = static_cast<std::size_t>(dp.ext_owner_row[e]);
      const char side = (m.node_of(o) == myn) ? 1 : 2;
      if (side == 1) ext_local_bytes_[static_cast<std::size_t>(d)] += 8.0;
      char& mk = mark[static_cast<std::size_t>(o)][r];
      if ((mk & side) == 0) {
        mk = static_cast<char>(mk | side);
        if (side == 1) {
          send_local_bytes_[static_cast<std::size_t>(o)] += 8.0;
        } else {
          send_cross_bytes_[static_cast<std::size_t>(o)] += 8.0;
        }
      }
    }
  }
}

void MpkExecutor::exchange(sim::Machine& m, const sim::DistMultiVec& v,
                           int c0, int slot) {
  // The dependency structure is per-buffer: consumer d waits only on the
  // pack messages of the senders it actually reads (ext_owners_[d]), never
  // on the rest of the machine. With >= 3 devices in a 1D partition that
  // makes the exchange a neighbor-wise pipeline rather than a global
  // barrier.
  const MpkPlan& plan = *plan_;
  const int ng = plan.n_devices();
  const bool hier = m.topology().n_nodes > 1;
  if (hier) build_node_split(m);

  // Gather (Fig. 4 "Setup", first loop), recording one event per sender
  // message. On a multi-node topology each sender ships a split pair —
  // same-node rows over the peer link, off-node rows through the
  // coordinating host — with an event after each, so a same-node consumer
  // chains off the cheap intra-node message and never waits behind the
  // sender's network hop. The intra-node message goes first: the stream is
  // in-order, so the opposite order would price the hop into the peer
  // event anyway.
  const sim::CodecSpec& cd = m.codec(sim::TrafficClass::kHalo);
  std::vector<sim::Event> pk_local(static_cast<std::size_t>(ng));
  std::vector<sim::Event> pk_cross(static_cast<std::size_t>(ng));
  for (int d = 0; d < ng; ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    if (dp.send_local_rows.empty()) continue;
    sim::dev_pack(m, d, dp.send_local_rows, v.col(d, c0),
                  pack_buf_[static_cast<std::size_t>(d)].data());
    if (hier) {
      const double lb = send_local_bytes_[static_cast<std::size_t>(d)];
      const double cb = send_cross_bytes_[static_cast<std::size_t>(d)];
      m.charge_codec(d, cd, (lb + cb) / 8.0);
      if (lb > 0.0) m.d2h_node(d, cd.wire_bytes(lb / 8.0), lb);
      pk_local[static_cast<std::size_t>(d)] = m.record_event(d);
      if (cb > 0.0) m.d2h(d, cd.wire_bytes(cb / 8.0), cb);
      pk_cross[static_cast<std::size_t>(d)] = m.record_event(d);
    } else {
      const double rows = static_cast<double>(dp.send_local_rows.size());
      m.charge_codec(d, cd, rows);
      m.d2h(d, cd.wire_bytes(rows), 8.0 * rows);
      pk_local[static_cast<std::size_t>(d)] = m.record_event(d);
      pk_cross[static_cast<std::size_t>(d)] =
          pk_local[static_cast<std::size_t>(d)];
    }
  }
  // Event a consumer on device d waits on for sender o's packed rows.
  const auto pack_event = [&](int d, int o) -> const sim::Event& {
    const bool same = !hier || m.node_of(o) == m.node_of(d);
    return same ? pk_local[static_cast<std::size_t>(o)]
                : pk_cross[static_cast<std::size_t>(o)];
  };

  // Owned rows never leave their device: assemble them before the host
  // blocks on anyone, so the copy overlaps every in-flight message.
  for (int d = 0; d < ng; ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    std::vector<double>& zd =
        z_[static_cast<std::size_t>(d)][static_cast<std::size_t>(slot)];
    sim::dev_copy(m, d, dp.owned, v.col(d, c0), zd.data());
  }

  // Scatter (Fig. 4 "Setup", third loop): per consumer, wait for its
  // senders, expand its slice of the received data on the host, and
  // forward it. The host-side expand is charged per consumer, so a sender
  // shared by several readers counts once per reader.
  //
  // Consumers are served in device order. Measured against the
  // alternatives (earliest-ready, latest-ready, reversed), device order
  // ties for best on the bench partitions: the host has slack between
  // exchanges, so serving device 0 — the most heavily charged timeline in
  // a 1D partition, hence the machine's critical chain — first is what
  // matters, and device order does exactly that.
  for (int d = 0; d < ng; ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    if (dp.ext_global.empty()) continue;
    std::vector<double>& zd =
        z_[static_cast<std::size_t>(d)][static_cast<std::size_t>(slot)];
    const int next = static_cast<int>(dp.ext_global.size());
    const auto& owners = ext_owners_[static_cast<std::size_t>(d)];
    for (const int o : owners) {
      m.host_wait_event(pack_event(d, o));
    }
    m.charge_host(sim::Kernel::kCopy, 0.0, 16.0 * next);
    if (hier) {
      const double local = ext_local_bytes_[static_cast<std::size_t>(d)];
      if (local > 0.0) m.h2d_node(d, cd.wire_bytes(local / 8.0), local);
      if (8.0 * next > local) {
        m.h2d(d, cd.wire_bytes(next - local / 8.0), 8.0 * next - local);
      }
    } else {
      m.h2d(d, cd.wire_bytes(next), 8.0 * next);
    }
    m.charge_codec(d, cd, next);
    // Wall-clock guard for the closure below: it reads the owners' basis
    // blocks, which their pack closures read too, but a late kernel on an
    // owner stream could already be overwriting by then in a future layout;
    // the stream waits pin the closure behind the recorded prefix. Charged,
    // they are free: the h2d above already starts at >= every event time.
    for (const int o : owners) {
      m.stream_wait_event(d, pack_event(d, o));
    }
    m.charge_device(d, sim::Kernel::kPack, 0.0, 20.0 * next);
    const bool hit = m.consume_kernel_fault(d);
    const MpkDevicePlan* dpp = &dp;
    double* zp = zd.data();
    const sim::DistMultiVec* vp = &v;
    const sim::CodecSpec cdv = cd;
    m.run_on_device(d, [=] {
      for (int e = 0; e < next; ++e) {
        zp[static_cast<std::size_t>(dpp->owned + e)] =
            vp->col(dpp->ext_owner[static_cast<std::size_t>(e)],
                    c0)[dpp->ext_owner_row[static_cast<std::size_t>(e)]];
      }
      // The coded wire image is modeled on the consumer's assembled
      // external slice (identical on either side of the hier/flat split,
      // so the halo numerics stay topology-invariant).
      if (cdv.active()) cdv.roundtrip(zp + dpp->owned, next);
      if (hit) poison(zp + dpp->owned, next);
    });
  }
}

void MpkExecutor::apply(sim::Machine& m, sim::DistMultiVec& v, int c0,
                        int steps, ShiftSeq shifts) {
  const MpkPlan& plan = *plan_;
  CAGMRES_REQUIRE(1 <= steps && steps <= plan.s,
                  "steps must be in [1, plan.s]");
  CAGMRES_REQUIRE(c0 >= 0 && c0 + steps < v.cols(), "column range overflow");
  CAGMRES_REQUIRE(v.n_parts() == plan.n_devices(), "layout mismatch");
  const int ng = plan.n_devices();
  for (int d = 0; d < ng; ++d) {
    CAGMRES_REQUIRE(
        v.local_rows(d) == plan.dev[static_cast<std::size_t>(d)].owned,
        "multivector rows do not match the plan");
  }
  // Validate the whole shift sequence before anything is charged or
  // enqueued: a rejected call leaves the clock and every column untouched.
  for (int k = 1; shifts.im != nullptr && k <= steps; ++k) {
    CAGMRES_REQUIRE(!(shifts.im[k - 1] < 0.0) ||
                        (k >= 2 && shifts.im[k - 2] > 0.0),
                    "complex pair straddles the MPK call boundary");
  }
  sim::PhaseScope phase(m, "mpk");
  // A charge can still throw below (device kill, watchdog) with closures
  // parked on the streams reading z_ and v; drain on unwind so the caller's
  // fault handler never races a stale kernel during rollback.
  sim::UnwindDrainGuard unwind_guard(m);

  // Slot 0 holds the starting vector (z^(d,1) of Fig. 4).
  exchange(m, v, c0, /*slot=*/0);

  for (int k = 1; k <= steps; ++k) {
    const bool pair_second =
        (shifts.im != nullptr) && (shifts.im[k - 1] < 0.0);
    sparse::SellEpilogue ep;
    ep.theta = (shifts.re != nullptr) ? shifts.re[k - 1] : 0.0;
    ep.beta2 = pair_second ? shifts.im[k - 2] * shifts.im[k - 2] : 0.0;

    for (int d = 0; d < ng; ++d) {
      const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
      auto& bufs = z_[static_cast<std::size_t>(d)];
      const double* zin = bufs[static_cast<std::size_t>((k - 1) % 3)].data();
      double* zout = bufs[static_cast<std::size_t>(k % 3)].data();
      // Two steps back: the complex pair's second member reads it.
      ep.x2 = pair_second ? bufs[static_cast<std::size_t>((k + 1) % 3)].data()
                          : nullptr;

      // One fused kernel for the owned rows: the local block multiply (the
      // reused A^(d)), the Newton shift, and the store of the result as the
      // next basis column (Fig. 4 last line).
      ep.store = v.col(d, c0 + k);
      sim::dev_spmv_sell(m, d, dp.local, dp.owned, zin, zout, ep);

      // Boundary rows this step still has to produce (the hop <= s-k
      // prefix), shifted in the same pass; they live only in z, at
      // positions disjoint from the owned rows the kernel ahead wrote.
      const int brows =
          dp.boundary_rows_at_step[static_cast<std::size_t>(k) - 1];
      if (brows > 0) {
        ep.store = nullptr;
        sim::dev_spmv_sell(m, d, dp.boundary, brows, zin, zout, ep);
      }
    }
  }
}

void MpkExecutor::spmv(sim::Machine& m, sim::DistMultiVec& v, int xcol,
                       int ycol) {
  spmv(m, v, xcol, v, ycol);
}

void MpkExecutor::spmv(sim::Machine& m, const sim::DistMultiVec& x, int xcol,
                       sim::DistMultiVec& y, int ycol) {
  const MpkPlan& plan = *plan_;
  CAGMRES_REQUIRE(plan.s == 1, "spmv requires an s=1 plan");
  CAGMRES_REQUIRE(&x != &y || xcol != ycol, "in-place SpMV not supported");
  sim::PhaseScope phase(m, "spmv");
  const int ng = plan.n_devices();

  exchange(m, x, xcol, /*slot=*/0);
  for (int d = 0; d < ng; ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    const double* zin = z_[static_cast<std::size_t>(d)][0].data();
    sim::dev_spmv_sell(m, d, dp.local, dp.owned, zin, y.col(d, ycol));
  }
}

sim::DistMultiVec& MpkExecutor::stage(int cols) {
  if (stage_.cols() < cols || stage_.n_parts() != plan_->n_devices()) {
    stage_ = sim::DistMultiVec(plan_->rows_per_device(), cols);
  }
  return stage_;
}

}  // namespace cagmres::mpk
