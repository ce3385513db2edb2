// Matrix powers kernel execution (paper §IV-A, Fig. 4).
//
// MpkExecutor::apply generates steps new basis vectors from one starting
// column with a single halo exchange:
//   v_{c0+k} = (A - theta_k I) v_{c0+k-1}  (+ beta_k^2 v_{c0+k-2} for the
//   second member of a complex conjugate shift pair — Hoemmen §7.3.2's
//   real-arithmetic Newton basis).
// theta = 0 everywhere gives the monomial basis. MpkExecutor::spmv runs the
// plain one-hop distributed SpMV on an s=1 plan (the GMRES baseline).
#pragma once

#include <vector>

#include "mpk/plan.hpp"
#include "sim/machine.hpp"

namespace cagmres::mpk {

/// Newton-basis shift sequence; null pointers mean the monomial basis.
/// re/im must hold at least `steps` entries; a complex conjugate pair
/// occupies two adjacent slots (im > 0 then im < 0) and must not straddle
/// an apply() boundary (core::prepare_block_shifts enforces this; apply()
/// rejects a straddling sequence before charging anything).
struct ShiftSeq {
  const double* re = nullptr;
  const double* im = nullptr;
};

/// Executes MPK invocations against a fixed plan, reusing its z-buffers.
class MpkExecutor {
 public:
  explicit MpkExecutor(const MpkPlan& plan);

  const MpkPlan& plan() const { return *plan_; }

  /// Generates v(:, c0+1 .. c0+steps) from v(:, c0). Requires
  /// steps <= plan.s and c0 + steps < v.cols(). Charges the exchange and
  /// one fused kernel per step and device (plus one per step with boundary
  /// rows) to `machine` under phase "mpk".
  void apply(sim::Machine& machine, sim::DistMultiVec& v, int c0, int steps,
             ShiftSeq shifts = {});

  /// y(:, ycol) := A x(:, xcol) with the standard one-hop halo exchange.
  /// Requires a plan built with s == 1. Charged under phase "spmv".
  void spmv(sim::Machine& machine, sim::DistMultiVec& v, int xcol, int ycol);

  /// Cross-multivector variant: y(:, ycol) := A x(:, xcol). Used by
  /// pipelined GMRES, whose lookahead products live in a second basis.
  void spmv(sim::Machine& machine, const sim::DistMultiVec& x, int xcol,
            sim::DistMultiVec& y, int ycol);

  /// Lazily-allocated device-resident scratch multivector split like the
  /// plan (at least `cols` columns). The right-preconditioned solvers stage
  /// M^{-1} v here between the preconditioner apply and the SpMV, so they
  /// need no extra distributed state of their own.
  sim::DistMultiVec& stage(int cols);

 private:
  /// Halo exchange of column c0 into z-buffer `slot` of every device:
  /// gather / host expand / scatter, with each consumer waiting (per-buffer
  /// events) only on the senders it reads.
  void exchange(sim::Machine& machine, const sim::DistMultiVec& v, int c0,
                int slot);

  /// Rebuilds the node split (send_local_bytes_, send_cross_bytes_,
  /// ext_local_bytes_) if the machine's topology changed since the last
  /// exchange. Only called on a multi-node machine.
  void build_node_split(const sim::Machine& machine);

  const MpkPlan* plan_;
  sim::DistMultiVec stage_;  ///< see stage(); empty until first use
  // Triple-buffered working vectors per device (pair shifts read two back).
  std::vector<std::vector<std::vector<double>>> z_;
  std::vector<std::vector<double>> pack_buf_;
  // Distinct sending devices whose packed entries device d consumes, in
  // ascending order (derived once from ext_owner; the events each consumer
  // of the exchange waits on).
  std::vector<std::vector<int>> ext_owners_;
  // Multi-node sender split (build_node_split): bytes of each sender's
  // packed rows read by same-node consumers (shipped d2h_node, peer tier)
  // vs off-node consumers (shipped d2h, which prices the network hop).
  // A row read from both sides counts in both — two honest messages.
  std::vector<double> send_local_bytes_;
  std::vector<double> send_cross_bytes_;
  // Consumer side of the split: bytes of each device's external slice owned
  // by devices on its own node. Those arrive over the intra-node link; the
  // rest keeps the host (+network) route.
  std::vector<double> ext_local_bytes_;
  int split_nodes_ = 0;  ///< topology key the split was built for
  int split_gpn_ = 0;
};

}  // namespace cagmres::mpk
