// dispatcher.hpp — the decentralized dispatch layer shared by both runtimes.
//
// PR 1 batched the executive handoff and PR 2 multiplexed jobs over it, but
// dispatch itself stayed centralized: every assignment and retirement funnels
// through one executive mutex, so during rundown the tail workers contend on
// exactly the serial resource the paper warns about. This layer pushes
// dispatch out of the executive into per-worker structures and demotes the
// executive to an enablement oracle:
//
//   * each worker owns a bounded LocalRunQueue (run_queue.hpp);
//   * the Dispatcher is the only component that touches the ExecutiveCore —
//     refill() retires the worker's finished tickets and refills its local
//     queue in one executive critical section (the caller holds whatever
//     lock guards the core, exactly as with the old retire_and_refill);
//   * when a worker's local queue and the executive's waiting queue are both
//     dry — the rundown signal — try_steal() takes a FIFO range from the
//     most-loaded peer queue without touching the executive at all;
//   * a steal-rate signal adaptively halves the effective grain (via
//     ExecutiveCore::set_grain_limit, i.e. the executive's existing split
//     machinery carves finer pieces) so rundown tails stay fine-grained
//     while steady state stays coarse.
//
// With stealing enabled the local queue lets a worker over-refill beyond the
// retire batch (capacity defaults to 2x batch): fat refills are safe because
// peers steal the excess back during the tail — the over-decomposition-
// absorbed-by-local-scheduling move of the virtual-processors SPMD line.
// With stealing disabled the capacity defaults to exactly `batch`, which
// reproduces the PR 1 batched protocol on the same machinery (how bench_t8
// baselines the layer). Under kAutoBatch the queue has a fixed
// kAutoRefillMax slots and each sharded refill asks for refill_target()
// assignments, worked out from the measured control-section and body cost
// (DESIGN.md §6).
//
// rt::ThreadedRuntime drives one dispatcher for its one core; each
// pool::PoolRuntime job owns one dispatcher for its own core, so stealing
// stays within a job (tickets are per-core) while the pool's cross-job
// rotation handles the rest. The worker-side body-execution half of the old
// runtime/worker_loop.hpp (BodyLoopStats, execute/drain) lives here too:
// the dispatcher is its new home.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/executive.hpp"
#include "core/sharded_executive.hpp"
#include "runtime/body_table.hpp"
#include "sched/run_queue.hpp"

namespace pax::sched {

/// Local run-queue capacity and refill ceiling under kAutoBatch.
inline constexpr std::uint32_t kAutoRefillMax = 64;

/// The kAutoBatch refill rule: ask for ceil(workers * S / b) assignments,
/// clamped to [1, kAutoRefillMax], where `control_ns` (S) is the mean
/// control-section time and `body_ns` (b) the mean body time per assignment.
/// A refill that big keeps the control plane's serial share of each
/// worker's time below its body share even when every worker queues at the
/// control mutex. 1 until both means have a sample (a non-positive mean).
[[nodiscard]] std::size_t refill_target(std::uint32_t workers, double control_ns,
                                        double body_ns);

struct DispatchConfig {
  std::uint32_t workers = 4;
  /// Finished tickets retired per executive critical section (and the refill
  /// floor — see effective_capacity()). kAutoBatch: each sharded refill asks
  /// for refill_target() assignments, measured per call, out of a fixed
  /// kAutoRefillMax-slot local queue.
  std::uint32_t batch = 1;
  /// Per-worker local run-queue slots. 0 = auto: 2x batch with stealing
  /// (over-refill absorbed by steals), exactly batch without (the PR 1
  /// batched protocol), kAutoRefillMax under kAutoBatch.
  std::uint32_t queue_capacity = 0;
  /// Rundown work stealing between peer local queues.
  bool steal = true;
  /// Steal-rate signal halves the effective grain during rundown.
  bool adaptive_grain = true;
  /// Optional trace buffer (non-owning; null = off). drain_local stamps its
  /// exec begin/end records from the SAME two clock reads that feed
  /// BodyLoopStats::busy — tracing adds no clock call to the body loop and
  /// the trace-vs-result busy sums match exactly (DESIGN.md §12).
  obs::TraceBuffer* trace = nullptr;
  /// Job lane tag on emitted records (the pool sets its job id here).
  std::uint64_t trace_job = obs::kNoTraceJob;

  [[nodiscard]] bool auto_batch() const { return batch == kAutoBatch; }
  [[nodiscard]] std::size_t effective_capacity() const {
    if (queue_capacity != 0) return queue_capacity;
    if (auto_batch()) return kAutoRefillMax;
    return steal ? std::size_t{2} * batch : std::size_t{batch};
  }
};

/// Per-worker (or per-job) execution accounting accumulated by drain_local.
struct BodyLoopStats {
  std::chrono::nanoseconds busy{0};  ///< wall time inside phase bodies
  std::uint64_t tasks = 0;
  std::uint64_t granules = 0;  ///< granules completed (faulted ones excluded)
  std::uint64_t faulted = 0;   ///< bodies that threw (caught by the barrier)

  BodyLoopStats& operator+=(const BodyLoopStats& o) {
    busy += o.busy;
    tasks += o.tasks;
    granules += o.granules;
    faulted += o.faulted;
    return *this;
  }
};

/// What one refill() critical section did.
struct RefillOutcome {
  CompletionResult completion{};  ///< of the retire (ORed ticket outcomes)
  std::size_t refilled = 0;       ///< assignments pulled into the local queue
};

class Dispatcher {
 public:
  explicit Dispatcher(DispatchConfig config);

  [[nodiscard]] std::uint32_t workers() const { return config_.workers; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const DispatchConfig& config() const { return config_; }

  /// One executive critical section: retire `done` (cleared on return), then
  /// refill worker `w`'s local queue up to capacity, applying the adaptive
  /// grain limit first. The caller must hold whatever lock guards `core`.
  RefillOutcome refill(ExecutiveCore& core, WorkerId w, std::vector<Ticket>& done);

  /// Sharded refill: deposit `done` and pull from the sharded executive's
  /// home/sibling shard buffers (control-plane sweep only as a fallback —
  /// see ShardedExecutive::acquire). Under the default lock-free engine
  /// (DESIGN.md §13) the warm case of this call takes no mutex anywhere:
  /// ring pops and pushes only. Any locking that does happen is internal
  /// to `ex`; the caller holds nothing. The adaptive grain limit is
  /// published through the core's atomic before the pull, which is exactly
  /// why the limit had to stop being a plain field: this store races with
  /// a sweeping peer's request path. Under kAutoBatch the pull is capped at
  /// refill_target(workers, ex.mean_control_ns(), `body`'s ns per task);
  /// `body` is worker `w`'s own accumulated body-loop stats.
  RefillOutcome refill(ShardedExecutive& ex, WorkerId w, std::vector<Ticket>& done,
                       const BodyLoopStats& body = {});

  /// Owner pop from `w`'s local queue (LIFO end; executive handout order).
  bool pop_local(WorkerId w, Assignment& out) {
    return queues_[w]->pop(out);
  }

  /// Execute everything currently in `w`'s local queue — outside any
  /// executive lock — timing each body and queueing tickets on `done` for
  /// the next refill's retire. Stops early once `done` reaches the queue
  /// capacity so retirement (and the enablements it fires) is never deferred
  /// past one queue's worth of work.
  ///
  /// Exception barrier (DESIGN.md §15): a throwing phase body does not kill
  /// the process. The barrier catches, diverts the ticket into `w`'s fault
  /// buffer (never onto `done` — a faulted ticket must go through
  /// ExecutiveCore::fail, not complete), and keeps draining. The no-fault
  /// path pays only the untaken try: no allocation, no extra clock read.
  void drain_local(const rt::BodyTable& bodies, WorkerId w,
                   std::vector<Ticket>& done, BodyLoopStats& stats);

  /// `w`'s pending fault records (filled by drain_local's barrier).
  /// Owner-only, like the local queue: the worker reports them via
  /// ExecutiveCore::fail / ShardedExecutive::fail_batch and clears. The
  /// buffer is preallocated to queue capacity, and drain_local bounds
  /// done+faults by that capacity, so appending never reallocates.
  [[nodiscard]] std::vector<GranuleFault>& fault_buffer(WorkerId w) {
    return faults_[w];
  }

  /// Steady-clock ns at which worker `w` entered the phase body it is
  /// currently executing, or 0 when it is not inside one. Relaxed sampling
  /// cell for the stuck-granule watchdog; each worker owns its own cache
  /// line, so the two stores per task cost the body loop nothing.
  [[nodiscard]] std::uint64_t exec_begin_ns(WorkerId w) const {
    return exec_cells_[w].begin_ns.load(std::memory_order_relaxed);
  }

  /// Rundown stealing: move a FIFO range from the most-loaded peer queue
  /// into `w`'s queue. Returns the number of assignments stolen (0 = every
  /// peer was dry or raced dry). Never touches the executive.
  std::size_t try_steal(WorkerId w);

  [[nodiscard]] std::size_t occupancy(WorkerId w) const {
    return queues_[w]->size();
  }
  /// Any queue non-empty (job-level probe for the pool's rotation pick).
  [[nodiscard]] bool any_local_work() const;
  /// Any queue other than `w`'s non-empty (sleep predicate for stealers).
  [[nodiscard]] bool stealable_by(WorkerId w) const;

  /// High-water mark of local-queue occupancy across all workers.
  [[nodiscard]] std::size_t peak_occupancy() const;

  /// Current adaptive-grain halvings (0 = full configured grain).
  [[nodiscard]] std::uint32_t grain_shift() const {
    return grain_shift_.load(std::memory_order_relaxed);
  }

 private:
  void note_event(bool was_steal);
  /// Emit a worker-track instant record (no-op when tracing is off).
  void trace_event(WorkerId w, obs::TraceKind kind, std::uint32_t aux);
  /// Cold half of the exception barrier: record the fault into `w`'s
  /// preallocated buffer and emit the kGranuleFault instant.
  void record_fault(WorkerId w, const Assignment& a, const char* what);

  /// One watchdog sampling cell per worker; alignas keeps each worker's
  /// relaxed stores on a private cache line.
  struct alignas(64) ExecCell {
    std::atomic<std::uint64_t> begin_ns{0};
  };

  DispatchConfig config_;
  std::size_t capacity_;
  /// The queues lock internally (LocalRunQueue's own ranked mutex); the
  /// Dispatcher itself holds no lock — its remaining shared state is the
  /// relaxed steal-rate window below.
  std::vector<std::unique_ptr<LocalRunQueue>> queues_;
  /// Worker-private refill/steal staging buffers: scratch_[w] is touched
  /// only by worker w's thread (refill and try_steal are called by the
  /// owner), so it needs no guard by construction.
  std::vector<std::vector<Assignment>> scratch_;
  /// Worker-private fault buffers (same ownership rule as scratch_).
  std::vector<std::vector<GranuleFault>> faults_;
  /// Watchdog sampling cells (see exec_begin_ns).
  std::unique_ptr<ExecCell[]> exec_cells_;

  // Steal-rate signal: over a window of productive acquisitions (refills
  // that returned work, successful steals), a steal share >= 1/4 halves the
  // effective grain (up to kMaxGrainShift times); a window below that
  // threshold doubles it back. Relaxed atomics — the signal is a heuristic,
  // racy resets only blur the window edges.
  static constexpr std::uint32_t kMaxGrainShift = 6;
  void push_reversed(WorkerId w, const std::vector<Assignment>& buf);
  std::uint64_t window_size_;
  std::atomic<std::uint64_t> window_events_{0};
  std::atomic<std::uint64_t> window_steals_{0};
  std::atomic<std::uint32_t> grain_shift_{0};
};

}  // namespace pax::sched
