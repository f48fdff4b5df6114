// threaded_runtime.hpp — execute a PhaseProgram on real std::jthread workers.
//
// The executive is wrapped in a core::ShardedExecutive (DESIGN.md §9): the
// granule handout is partitioned across RtConfig::shards independently-
// locked shard buffers, so two workers refilling different shards never
// contend, and the single-threaded ExecutiveCore is entered only for control
// sweeps (coalesced retire + re-scatter). With shards = 1 the layer
// short-circuits to the PR 3 protocol — one mutex section per refill — which
// is the baseline bench_t9_shard gates against. Setting
// ExecConfig::overlap = false yields the strict-barrier baseline on
// identical machinery, which is how the speedup benches isolate the effect
// of phase overlap.
//
// Dispatch stays decentralized through the shared sched::Dispatcher
// (DESIGN.md §8): each worker owns a bounded local run-queue refilled from
// its home shard, and when shards, executive and local queue all run dry —
// the rundown signal — the worker steals a FIFO range from the most-loaded
// peer. A steal-rate signal adaptively halves the effective grain (published
// through the core's *atomic* grain limit, since the publisher holds no
// executive lock). Condition-variable notifications pass through the sleep
// mutex after work is made visible, closing the lost-wakeup window the
// census atomics would otherwise open.
//
// Concurrency follows the C++ Core Guidelines CP rules: jthread-only (no
// detach), RAII locks, condition waits with predicates, data passed by
// value across threads. Note one documented exception to CP.22: inter-phase
// serial actions registered in the program run on the completing worker's
// thread while the executive control mutex is held — keep them short.
//
// Concurrency discipline (DESIGN.md §11): the per-worker accounting is
// PAX_GUARDED_BY the sleep mutex (rank: sleep — held alone, never nested
// under an executive or queue lock), and the condition variable is a
// condition_variable_any so waits release/reacquire through the ranked
// mutex's annotated methods.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/lock_rank.hpp"
#include "common/thread_annotations.hpp"
#include "core/executive.hpp"
#include "core/sharded_executive.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "runtime/body_table.hpp"
#include "sched/dispatcher.hpp"

namespace pax::rt {

struct RtConfig {
  std::uint32_t workers = 4;
  /// Refill size. kAutoBatch (default): every refill asks for
  /// ceil(workers * S / b) assignments clamped to [1, 64] — S the mean
  /// control-section ns the executive measures, b this worker's body ns per
  /// assignment, 1 until both have a sample (sched::refill_target) — out of
  /// a fixed 64-slot local queue, over shard rings of depth 32 and flush 64.
  /// An explicit count keeps the fixed geometry: refill floor and no-steal
  /// queue capacity; with stealing on, one refill may pull up to the queue
  /// capacity (2x batch — over-refill absorbed by steals); shard depth =
  /// batch, flush = 2x batch. batch 1 with steal off = the classic
  /// single-item handoff. 0 is invalid and fails at construction.
  std::uint32_t batch = kAutoBatch;
  /// Per-worker local run-queue capacity; 0 = auto (64 under kAutoBatch;
  /// otherwise 2x batch with stealing — over-refill absorbed by steals — or
  /// exactly batch without, which reproduces the original batched protocol).
  std::uint32_t queue_capacity = 0;
  /// Executive shards (independently-locked granule-handout partitions).
  /// kAutoShards = 2x workers clamped to the largest phase (1 for a single
  /// worker); 1 = the PR 3 single-mutex protocol; 0 is invalid and fails at
  /// construction.
  std::uint32_t shards = kAutoShards;
  /// Warm-path shard engine: true (default) = lock-free MPMC rings — no
  /// mutex anywhere on a warm acquire (DESIGN.md §13); false = the PR 4
  /// mutex-guarded shard buffers, kept as the measurable baseline
  /// (bench_t9_shard pins it, bench_t12_lockfree gates against it).
  bool lockfree = true;
  /// Rundown work stealing between workers' local queues.
  bool steal = true;
  /// Steal-rate signal halves the effective grain during rundown.
  bool adaptive_grain = true;
  /// Fault containment (DESIGN.md §15): how many times a faulted granule
  /// range is re-enqueued before its granules are poisoned and the program
  /// ends in the faulted terminal. Mirrored into ExecConfig at construction
  /// — the runtime knob is authoritative for threaded runs.
  std::uint32_t max_granule_retries = 2;
  /// Base of the exponential retry backoff, in executive completion ticks
  /// (see ExecConfig::retry_backoff_ticks). Mirrored like the retry budget.
  std::uint32_t retry_backoff_ticks = 1;
  /// Optional trace buffer (non-owning; must outlive the runtime and be
  /// sized for >= `workers`). Null = tracing off: every emit site in the
  /// executive, dispatcher and worker loop is one untaken branch. When set,
  /// workers write exec/refill/steal/sleep records into their own rings and
  /// the run installs a control-track sink for structural events
  /// (DESIGN.md §12); read the rings after run() returns.
  obs::TraceBuffer* trace = nullptr;
};

/// Wall-clock results of a threaded run.
struct RtResult {
  std::chrono::nanoseconds wall{0};  ///< run() span, incl. spawn/join
  std::vector<std::chrono::nanoseconds> worker_busy;  // per worker, in-body time
  /// Per-worker lifetime measured *inside* worker_main (first instruction to
  /// last), so thread spawn/join overhead does not dilute utilization().
  std::vector<std::chrono::nanoseconds> worker_wall;
  std::uint64_t tasks_executed = 0;
  std::uint64_t granules_executed = 0;
  /// Executive contention metric: control-mutex sections plus condition-wait
  /// returns — the sum of the two fields below (kept as a total because the
  /// t6/t8/t9 gates compare it).
  std::uint64_t exec_lock_acquisitions = 0;
  /// Control-plane mutex sections on the sharded executive (start, sweeps,
  /// single-shard refills, idle work, conflicting submissions). Shard-buffer
  /// hits never appear here — that is the decontention t9 measures.
  std::uint64_t refill_lock_acquisitions = 0;
  /// Condition-wait returns — counted separately so contention on the
  /// handoff is not conflated with sleeping through genuine work droughts.
  std::uint64_t wait_lock_acquisitions = 0;
  /// Total nanoseconds workers spent at the control plane, acquire-to-
  /// release (mutex acquisition wait + hold, sweep bodies included) — the
  /// serialization a worker actually experiences there. Divided by granules
  /// it is the t9 lock-hold gate metric.
  std::uint64_t exec_lock_hold_ns = 0;
  /// Shard traffic: acquires served lock-locally by the worker's home shard
  /// buffer / by a sibling shard's buffer, and assignments scattered into
  /// shard buffers by control sweeps.
  std::uint64_t shard_hits = 0;
  std::uint64_t shard_sibling_hits = 0;
  std::uint64_t shard_scattered = 0;
  /// Resolved shard count of the run (after kAutoShards resolution).
  std::uint32_t shards_used = 0;
  /// Lock-free engine split (zero when RtConfig::lockfree was false):
  /// assignments popped lock-free from shard rings, probes that found a
  /// hinted ring dry, pushes a full ring refused (each one a forced control
  /// sweep or a spill), and CAS cursor-claim retries — the ring's contention
  /// signal. Together with the control counters these show the warm/slow
  /// split bench_t12 and quickstart print.
  std::uint64_t shard_ring_pops = 0;
  std::uint64_t shard_ring_pop_empty = 0;
  std::uint64_t shard_ring_push_full = 0;
  std::uint64_t shard_ring_cas_retries = 0;
  /// Mutex engine split (zero when lockfree): warm-path shard-mutex sections
  /// and their acquire-to-release ns — the traffic the rings retire. Added
  /// to the control totals this is bench_t12's total-scheduler-lock metric.
  std::uint64_t shard_lock_acquisitions = 0;
  std::uint64_t shard_lock_hold_ns = 0;
  /// Assignments obtained by stealing from a peer's local queue (no
  /// executive round-trip involved).
  std::uint64_t steals = 0;
  /// Steal attempts that found every peer queue dry.
  std::uint64_t steal_fail_spins = 0;
  /// Fault containment (DESIGN.md §15): bodies that threw (caught by the
  /// dispatcher's exception barrier), retry re-enqueues, granules poisoned
  /// after the retry budget, and GranuleMapFn faults (edge degraded to
  /// wholesale release at completion).
  std::uint64_t granule_faults = 0;
  std::uint64_t granule_retries = 0;
  std::uint64_t granules_poisoned = 0;
  std::uint64_t map_faults = 0;
  /// True when the program ended in the faulted terminal: a poisoned granule
  /// made the dataflow unsatisfiable and the remaining work was recalled
  /// (granules_executed < the program total on this path).
  bool faulted = false;
  /// First fault site, human-readable (empty when no fault occurred).
  std::string fault_summary;
  /// High-water mark of local run-queue occupancy across workers.
  std::uint64_t peak_local_queue = 0;
  /// Process-wide heap traffic during run() (all threads), measured when the
  /// binary links the alloc_stats hooks (common/alloc_stats.hpp) — zero
  /// otherwise. Divided by granules it is the t10 allocs/granule metric.
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_bytes = 0;
  pax::MgmtLedger ledger;
  std::vector<std::string> diagnostics;
  /// The unified metrics snapshot (obs/metrics.hpp): every counter above
  /// plus per-worker accumulations under stable dotted names, so benches
  /// and JSON reports read one uniform surface. The legacy fields stay for
  /// source compatibility; test_obs pins the two views equal.
  obs::MetricsSnapshot metrics;

  /// Fraction of total worker wall-time spent inside phase bodies.
  [[nodiscard]] double utilization() const;
};

class ThreadedRuntime {
 public:
  ThreadedRuntime(const PhaseProgram& program, ExecConfig config, CostModel costs,
                  const BodyTable& bodies, RtConfig rt_config);

  /// Run the program to completion. May be called once.
  RtResult run();

  /// Dynamically submit a computation conflicting with `blocker`'s run; it
  /// is released at elevated priority when that run completes (immediately
  /// when it already has). Thread-safe; callable from inside a phase body
  /// (bodies execute with no executive lock held).
  void submit_conflicting(RunId blocker, PhaseId phase, GranuleRange range);

  /// Optional: install a raw sink (non-owning; must outlive run()), called
  /// under the executive control mutex — keep it cheap. Must be set before
  /// run(). Chained with tracing: when RtConfig::trace is set, the trace
  /// sink runs first and forwards every event here.
  void install_event_sink(ExecEventSink* sink) { user_sink_ = sink; }

 private:
  void worker_main(WorkerId id);
  /// Pass through the sleep mutex, then notify: orders census flips (done
  /// under shard/control locks only) against sleepers' predicate checks.
  void wake_all() PAX_EXCLUDES(mu_);

  const PhaseProgram& program_;
  const BodyTable& bodies_;
  RtConfig rt_config_;

  ShardedExecutive exec_;
  sched::Dispatcher dispatcher_;

  /// The unified metrics registry (obs/metrics.hpp): worker-side counters
  /// accumulate into per-worker cells (each worker writes only its own, at
  /// worker exit — serialization by construction), and run() folds in the
  /// control-plane values before snapshotting into RtResult::metrics.
  obs::MetricsRegistry metrics_;
  struct MetricIds {
    obs::MetricId tasks, granules, busy_ns, wall_ns, steals, steal_fails,
        wait_wakeups, faulted;
  } mid_{};

  /// Event-sink chain storage. The core holds raw pointers into these, so
  /// they live on the runtime, installed at run() entry: trace sink first
  /// (when RtConfig::trace is set), then the user sink.
  std::unique_ptr<obs::TraceEventSink> trace_sink_;
  ExecEventSink* user_sink_ = nullptr;

  /// Sleep/accounting mutex: guards nothing in the executive — only the
  /// condition variable hand-shake and the per-worker result publication.
  /// Rank: sleep (the innermost rank; a worker holds no other ranked lock
  /// when it sleeps or publishes).
  RankedMutex<LockRank::kSleep> mu_;
  /// _any variant: waits release/reacquire through RankedUniqueLock's
  /// annotated lock()/unlock(), keeping rank accounting coherent across
  /// the wait.
  std::condition_variable_any cv_;

  std::vector<std::chrono::nanoseconds> busy_ PAX_GUARDED_BY(mu_);
  std::vector<std::chrono::nanoseconds> worker_wall_ PAX_GUARDED_BY(mu_);
  std::uint64_t tasks_ PAX_GUARDED_BY(mu_) = 0;
  std::uint64_t granules_ PAX_GUARDED_BY(mu_) = 0;
  std::uint64_t wait_locks_ PAX_GUARDED_BY(mu_) = 0;
  std::uint64_t steals_ PAX_GUARDED_BY(mu_) = 0;
  std::uint64_t steal_fail_spins_ PAX_GUARDED_BY(mu_) = 0;
  std::uint64_t granule_faults_ PAX_GUARDED_BY(mu_) = 0;
  /// run-once latch; touched only by the (single) thread that calls run().
  bool ran_ = false;
};

}  // namespace pax::rt
