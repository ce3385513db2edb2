// Host-side worker pool that executes the functional bodies of charged
// device kernels concurrently, one in-order stream per simulated device.
//
// The simulated clock is charged on the *calling* host thread at enqueue
// time, in program order, exactly as before this engine existed; only the
// numerical work (the closure) is deferred to a worker. Per-device data
// blocks live in disjoint allocations and every task on one stream runs in
// FIFO order on a single worker, so results are byte-identical for any
// worker count — including zero, where enqueue() degenerates to an inline
// call on the host thread.
//
// Dispatch fast path (DESIGN §10): posting a closure costs one in-place
// construction into a fixed 128-byte slot of the stream's ring buffer plus
// one atomic release — no heap allocation, no mutex, and no condition-
// variable signal unless a worker is actually asleep. That keeps the
// workers>0 configurations from losing wall-clock to the inline path on
// dispatch overhead alone: the mutex/notify slow path is paid only at the
// sleep/wake edges, amortized across whole bursts of enqueues.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace cagmres::sim {

/// Fixed-size worker pool with per-stream FIFO ordering.
///
/// Streams are dense ids (one per physical device). A stream is pinned to
/// worker `stream % n_workers`, which preserves in-order execution within a
/// stream without any per-task dependency tracking. Exceptions thrown by a
/// task are latched per stream; later tasks on a broken stream are skipped
/// (their inputs may be garbage) and the exception rethrows at the next
/// drain of that stream.
///
/// Each stream is a single-producer / single-consumer ring of small-buffer
/// slots: the (single) posting thread constructs the closure directly into
/// the slot and publishes it with one atomic store; the owning worker
/// invokes and destroys it in place. Closures larger than a slot fall back
/// to one heap allocation, but every closure the simulator posts fits.
///
/// Tickets are the wall-clock half of the cudaEvent analogue: ticket(s)
/// snapshots the number of tasks enqueued to stream s so far, and
/// wait_ticket / enqueue_wait block on only that prefix having *completed*
/// (skipped tasks on a latched stream still count as completed, so a waiter
/// never deadlocks on a broken producer). This is strictly finer than
/// drain(): tasks enqueued after the ticket are not waited on.
///
/// enqueue_wait cannot deadlock: the wait is a *gate* slot in the ring, not
/// a blocking closure. A worker that finds an unsatisfied gate at the front
/// of one stream simply moves on to its other streams (and sleeps only when
/// none has runnable work), so no worker thread ever blocks on another
/// stream's progress. Tickets are snapshotted on the (single) posting
/// thread before the gate is enqueued, so a gate only ever waits on tasks
/// already published ahead of it; inductively the oldest incomplete slot in
/// the pool is always passable, so progress is always possible — even when
/// both streams of a gate are pinned to the same worker.
class HostPool {
 public:
  HostPool(int n_streams, int n_workers);
  ~HostPool();

  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  int n_workers() const { return n_workers_; }
  int n_streams() const { return n_streams_; }

  /// Drains, joins the current workers, and respawns `n_workers` of them
  /// (0 = run everything inline on the calling thread). Like the
  /// constructor, a respawn re-reads the calling thread's OpenMP team and
  /// gives each worker an even share of it (at least one thread).
  void resize(int n_workers);

  /// Appends a task to `stream`. With zero workers the task runs inline and
  /// any exception propagates directly to the caller. The closure is
  /// constructed in place in the stream's ring (no allocation, no lock);
  /// when the ring is full the calling thread blocks until the worker
  /// retires a slot.
  template <typename F>
  void enqueue(int stream, F&& fn) {
    const auto s = check_stream(stream);
    if (n_workers_ == 0) {
      // Serial mode: byte-identical to the pre-engine behaviour, exceptions
      // propagate straight to the caller. The counters still move so that a
      // ticket taken in serial mode is complete by construction.
      bump_serial(s);
      fn();
      return;
    }
    construct_task(producer_slot(s), std::forward<F>(fn));
    publish(s);
  }

  /// Wall-clock barrier on one stream: returns when every task enqueued to
  /// it so far has finished. Rethrows (and clears) the stream's latched
  /// exception, if any.
  void drain(int stream);

  /// Wall-clock barrier on every stream. Rethrows the latched exception of
  /// the lowest-numbered broken stream; all latches are cleared either way.
  void drain_all();

  /// drain_all() that swallows latched exceptions — for unwind paths and
  /// the destructor, where a second throw would terminate.
  void drain_all_nothrow() noexcept;

  /// Snapshot of `stream`'s enqueue counter: a wall-clock event marking
  /// every task posted to the stream so far. With zero workers tasks run
  /// inline, so any returned ticket is already complete.
  std::int64_t ticket(int stream);

  /// Calling-thread block until `stream` has completed (run or skipped) at
  /// least `ticket` tasks. Rethrows (and clears) the stream's latched
  /// exception afterwards, like drain(), so a host-side event wait is also
  /// an error-collection point for that stream.
  void wait_ticket(int stream, std::int64_t ticket);

  /// Appends a gate to `stream` that holds back its later tasks until
  /// `on_stream` has completed at least `ticket` tasks — the
  /// cudaStreamWaitEvent analogue. Never rethrows `on_stream`'s latch (the
  /// producing stream keeps it for its own next drain). No-op with zero
  /// workers or when waiting on itself.
  void enqueue_wait(int stream, int on_stream, std::int64_t ticket);

 private:
  // One ring slot: two dispatch pointers plus inline closure storage.
  // invoke == nullptr marks a gate slot (GateData lives in buf).
  static constexpr std::size_t kSlotBytes = 128;
  static constexpr std::size_t kInlineBytes = kSlotBytes - 2 * sizeof(void*);
  static constexpr std::uint64_t kRingSlots = 512;  // power of two, per stream
  static constexpr std::uint64_t kRingMask = kRingSlots - 1;

  struct Slot {
    void (*invoke)(void*) = nullptr;
    void (*destroy)(void*) = nullptr;
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
  };
  static_assert(sizeof(Slot) == kSlotBytes, "slot layout");

  struct GateData {
    std::int64_t ticket;
    std::int32_t on_stream;
  };
  static_assert(sizeof(GateData) <= kInlineBytes, "gate fits a slot");

  template <typename F>
  static void construct_task(Slot& slot, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(slot.buf)) Fn(std::forward<F>(fn));
      slot.invoke = [](void* p) { (*static_cast<Fn*>(p))(); };
      slot.destroy = std::is_trivially_destructible_v<Fn>
                         ? nullptr
                         : +[](void* p) { static_cast<Fn*>(p)->~Fn(); };
    } else {
      // Oversized closure: one heap allocation, slot stores the pointer.
      auto* heap = new Fn(std::forward<F>(fn));
      ::new (static_cast<void*>(slot.buf)) Fn*(heap);
      slot.invoke = [](void* p) { (**static_cast<Fn**>(p))(); };
      slot.destroy = [](void* p) { delete *static_cast<Fn**>(p); };
    }
  }

  std::size_t check_stream(int stream) const {
    const auto s = static_cast<std::size_t>(stream);
    CAGMRES_REQUIRE(s < static_cast<std::size_t>(n_streams_),
                    "host pool: bad stream");
    return s;
  }

  void bump_serial(std::size_t s);
  /// Waits for ring space and returns the slot at the producer's cursor.
  Slot& producer_slot(std::size_t s);
  /// Publishes the just-constructed slot and wakes the owning worker if it
  /// is asleep and not already notified.
  void publish(std::size_t s);
  void maybe_wake(std::size_t w);
  void wake_sleeping_workers();
  /// Runs every currently-runnable task at the front of stream s; returns
  /// whether anything ran (or a gate was passed).
  bool run_ready(std::size_t s);
  bool runnable_front(std::size_t s) const;
  bool any_runnable(std::size_t w) const;
  void complete_one(std::size_t s);
  void latch_exception(std::size_t s, std::exception_ptr err);
  void rethrow_latch(std::size_t s);
  /// Calling-thread block until completed_[s] >= target (no latch handling).
  void wait_completed(std::size_t s, std::int64_t target);
  void worker_main(std::size_t w);
  void stop_and_join();
  void spawn(int n_workers);

  int n_streams_ = 0;
  int n_workers_ = 0;
  int spin_ = 0;  ///< pre-sleep rescan budget (0 on single-core hosts)
  std::vector<std::unique_ptr<Slot[]>> rings_;  ///< one ring per stream
  // enqueued_ doubles as the ring head, completed_ as the ring tail: every
  // pop retires exactly one slot. Both are monotonic per stream.
  std::unique_ptr<std::atomic<std::int64_t>[]> enqueued_;
  std::unique_ptr<std::atomic<std::int64_t>[]> completed_;
  std::unique_ptr<std::atomic<bool>[]> broken_;  ///< latch hint for skips
  // Wakeup amortization. Each worker advertises kAwake / kSleeping /
  // kNotified; a publisher pays the mutex + notify only on the kSleeping ->
  // kNotified transition, so a burst of enqueues onto a descheduled worker
  // costs exactly one wake. The (single) host thread registers the stream
  // and completion count it is waiting for, so workers signal cv_done_ only
  // on the completion that actually crosses the target.
  static constexpr int kAwake = 0, kSleeping = 1, kNotified = 2;
  std::unique_ptr<std::atomic<int>[]> wstate_;  ///< one per worker
  std::atomic<int> host_wait_stream_{-1};       ///< -1: no host waiter
  std::atomic<std::int64_t> host_wait_target_{0};
  std::atomic<int> gates_pending_{0};  ///< published, not-yet-passed gates
  std::mutex mu_;                      ///< guards latched_, stop_, the cvs
  std::condition_variable cv_work_;   ///< workers wait for runnable fronts
  std::condition_variable cv_done_;   ///< host waits for completions
  std::vector<std::exception_ptr> latched_;  ///< one per stream, under mu_
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace cagmres::sim
