#include "runtime/threaded_runtime.hpp"

#include <algorithm>
#include <thread>

#include "common/alloc_stats.hpp"
#include "common/check.hpp"

namespace pax::rt {

namespace {

/// Constructor-time config validation, run before the sharded executive is
/// built so the death messages name the runtime knob, not the shard plumbing.
RtConfig validated(RtConfig c) {
  PAX_CHECK_MSG(c.workers > 0, "need at least one worker");
  PAX_CHECK_MSG(c.batch > 0, "batch must be at least 1");
  PAX_CHECK_MSG(c.shards != 0,
                "shards must be at least 1 (pass kAutoShards for the default)");
  return c;
}

/// The shard geometry's scaling unit. An explicit batch keeps depth = batch
/// and flush = 2x batch; kAutoBatch sizes the rings for its 64-slot local
/// queues: depth 32, flush 64, deposit rings holding every worker's full
/// queue of tickets (ShardConfig sizes them from 2x batch per worker).
std::uint32_t shard_batch(const RtConfig& c) {
  return c.batch == kAutoBatch ? sched::kAutoRefillMax / 2 : c.batch;
}

/// The runtime's fault knobs are authoritative: mirror them into the
/// executive config so callers tune retry policy in one place (RtConfig),
/// exactly like workers/batch/shards.
ExecConfig with_fault_knobs(ExecConfig c, const RtConfig& rt) {
  c.max_granule_retries = rt.max_granule_retries;
  c.retry_backoff_ticks = rt.retry_backoff_ticks;
  return c;
}

}  // namespace

double RtResult::utilization() const {
  std::chrono::nanoseconds total_busy{0};
  for (auto b : worker_busy) total_busy += b;
  std::chrono::nanoseconds denom{0};
  if (!worker_wall.empty()) {
    for (auto w : worker_wall) denom += w;
  } else {
    // Pre-measurement results (or hand-built ones): fall back to folding the
    // whole run() span into every worker.
    denom = wall * static_cast<std::int64_t>(worker_busy.size());
  }
  if (denom.count() == 0) return 0.0;
  return static_cast<double>(total_busy.count()) /
         static_cast<double>(denom.count());
}

ThreadedRuntime::ThreadedRuntime(const PhaseProgram& program, ExecConfig config,
                                 CostModel costs, const BodyTable& bodies,
                                 RtConfig rt_config)
    : program_(program),
      bodies_(bodies),
      rt_config_(validated(rt_config)),
      exec_(program, with_fault_knobs(config, rt_config_), costs,
            ShardConfig{.shards = rt_config_.shards,
                        .workers = rt_config_.workers,
                        .batch = shard_batch(rt_config_),
                        .lockfree = rt_config_.lockfree,
                        .trace = rt_config_.trace}),
      dispatcher_(sched::DispatchConfig{.workers = rt_config_.workers,
                                        .batch = rt_config_.batch,
                                        .queue_capacity = rt_config_.queue_capacity,
                                        .steal = rt_config_.steal,
                                        .adaptive_grain = rt_config_.adaptive_grain,
                                        .trace = rt_config_.trace}),
      busy_(rt_config_.workers, std::chrono::nanoseconds{0}),
      worker_wall_(rt_config_.workers, std::chrono::nanoseconds{0}) {
  mid_.tasks = metrics_.register_counter("worker.tasks");
  mid_.granules = metrics_.register_counter("worker.granules");
  mid_.busy_ns = metrics_.register_counter("worker.busy_ns");
  mid_.wall_ns = metrics_.register_counter("worker.wall_ns");
  mid_.steals = metrics_.register_counter("worker.steals");
  mid_.steal_fails = metrics_.register_counter("worker.steal_fail_spins");
  mid_.wait_wakeups = metrics_.register_counter("worker.wait_wakeups");
  mid_.faulted = metrics_.register_counter("worker.faulted");
  metrics_.bind(rt_config_.workers);
}

void ThreadedRuntime::wake_all() {
  // The census flip that turns a sleeper's predicate true happens under a
  // shard or control lock, not mu_. Passing through mu_ orders the flip
  // against any sleeper's predicate evaluation, closing the lost-wakeup
  // window (same discipline as pool::PoolRuntime::wake_pool).
  { RankedLock lock(mu_); }
  cv_.notify_all();
}

void ThreadedRuntime::submit_conflicting(RunId blocker, PhaseId phase,
                                         GranuleRange range) {
  exec_.submit_conflicting(blocker, phase, range);
  // Work enqueues immediately when the blocker already completed.
  if (exec_.work_available()) wake_all();
}

void ThreadedRuntime::worker_main(WorkerId id) {
  const auto enter = std::chrono::steady_clock::now();
  std::vector<Ticket> done;
  done.reserve(dispatcher_.capacity());
  sched::BodyLoopStats stats;
  std::uint64_t wait_locks = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_fail_spins = 0;

  // Sleep predicate over the lock-free census: computable work somewhere
  // (shard buffer, core queue, or sweepable deposits), program end, or a
  // stealable peer queue. Every path that can flip it true calls wake_all(),
  // which passes through mu_ — so checking under mu_ cannot miss the flip.
  auto wake_pred = [&] {
    return exec_.work_available() || exec_.finished() ||
           (rt_config_.steal && dispatcher_.stealable_by(id));
  };

  // Fault reporting: drain_local's exception barrier parks fault records in
  // the dispatcher's per-worker buffer; hand them to the executive's fail
  // path (one cold control section) before the next refill — a faulted
  // ticket must go through fail(), never through the completion retire.
  // Always announce afterwards: a fault batch can enqueue retries (new
  // work), poison the program (stop → finished), or recall shard buffers;
  // faults are cold, so the conservative wake costs nothing that matters.
  auto report_faults = [&] {
    std::vector<GranuleFault>& fb = dispatcher_.fault_buffer(id);
    if (fb.empty()) return;
    exec_.fail_batch(id, fb);
    fb.clear();
    wake_all();
  };

  while (true) {
    // Deposit the previous drain's tickets and refill the local run-queue:
    // home shard first, sibling shards next, control sweep as the fallback.
    // Under kAutoBatch this worker's body stats size the refill.
    const sched::RefillOutcome rr = dispatcher_.refill(exec_, id, done, stats);
    const bool announce =
        rr.completion.new_work || rr.completion.program_finished;

    if (rr.refilled == 0 && dispatcher_.occupancy(id) == 0) {
      if (announce) wake_all();
      if (exec_.finished()) break;
      // Donate idle time to the executive (presplitting, deferred
      // successor-splitting tasks, composite-map slices) before stealing.
      if (exec_.has_idle_work() && exec_.idle_work()) {
        // Idle work may have enabled work; peers must not sleep through it.
        if (exec_.work_available()) wake_all();
        continue;
      }
      // Shards, executive and local queue all dry: the rundown signal.
      // Steal from the most-loaded peer without touching the executive.
      if (rt_config_.steal) {
        const std::size_t got = dispatcher_.try_steal(id);
        if (got > 0) {
          steals += got;
          // Cascade: the loot may outlast this thief's drain, so wake a
          // peer to steal the surplus — otherwise a fat tail is ground
          // 2-wide (victim + one thief) while the rest sleep.
          if (got > 1) cv_.notify_one();
          dispatcher_.drain_local(bodies_, id, done, stats);
          report_faults();
          continue;
        }
        ++steal_fail_spins;
      }
      RankedUniqueLock lock(mu_);
      if (!wake_pred()) {
        // Trace the park/resume pair. Emitting under mu_ is harmless: mu_ is
        // the sleep rank, never contended with the executive, and the ring
        // write is a couple of stores.
        if (rt_config_.trace != nullptr) {
          obs::TraceRecord r;
          r.ts_ns = obs::trace_now_ns();
          r.worker = static_cast<std::uint16_t>(id);
          r.kind = obs::TraceKind::kSleep;
          rt_config_.trace->ring(id).emit(r);
        }
        cv_.wait(lock, wake_pred);
        ++wait_locks;
        if (rt_config_.trace != nullptr) {
          obs::TraceRecord r;
          r.ts_ns = obs::trace_now_ns();
          r.worker = static_cast<std::uint16_t>(id);
          r.kind = obs::TraceKind::kWake;
          rt_config_.trace->ring(id).emit(r);
        }
      }
      continue;
    }

    if (announce) {
      wake_all();
    } else if (exec_.work_available() ||
               (rt_config_.steal && dispatcher_.occupancy(id) > 1)) {
      // Leftover work at the executive, or a refill that out-pulled the
      // retire batch left steal-worthy slack in the local queue: wake one
      // peer. Best-effort (no mu_ pass-through): a miss costs parallelism
      // until this worker's next refill, never progress — this worker keeps
      // running and re-announces.
      cv_.notify_one();
    }

    dispatcher_.drain_local(bodies_, id, done, stats);
    report_faults();
  }

  // Publish per-worker accounting. The worker wall clock closes here, inside
  // worker_main, so thread spawn/join overhead never counts as idle time.
  const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - enter);
  // Unified metrics: each worker writes only its own cells (obs/metrics.hpp
  // per-worker sharding — no contention by construction, no lock needed).
  metrics_.add(mid_.tasks, id, stats.tasks);
  metrics_.add(mid_.granules, id, stats.granules);
  metrics_.add(mid_.busy_ns, id, static_cast<std::uint64_t>(stats.busy.count()));
  metrics_.add(mid_.wall_ns, id, static_cast<std::uint64_t>(wall.count()));
  metrics_.add(mid_.steals, id, steals);
  metrics_.add(mid_.steal_fails, id, steal_fail_spins);
  metrics_.add(mid_.wait_wakeups, id, wait_locks);
  metrics_.add(mid_.faulted, id, stats.faulted);
  RankedLock lock(mu_);
  busy_[id] += stats.busy;
  worker_wall_[id] = wall;
  tasks_ += stats.tasks;
  granules_ += stats.granules;
  wait_locks_ += wait_locks;
  steals_ += steals;
  steal_fail_spins_ += steal_fail_spins;
  granule_faults_ += stats.faulted;
}

RtResult ThreadedRuntime::run() {
  PAX_CHECK_MSG(!ran_, "run() called twice");
  ran_ = true;

  // Install the event-sink chain before the program starts: trace sink first
  // (structural events onto the control-track ring), forwarding to the user
  // sink. SAFETY: quiescent core access — no worker thread exists yet.
  if (rt_config_.trace != nullptr) {
    trace_sink_ = std::make_unique<obs::TraceEventSink>(
        rt_config_.trace->control_ring(), obs::kNoTraceJob, user_sink_);
    exec_.core_unsynchronized().set_event_sink(trace_sink_.get());
  } else if (user_sink_ != nullptr) {
    exec_.core_unsynchronized().set_event_sink(user_sink_);
  }

  const auto wall0 = std::chrono::steady_clock::now();
  const AllocTotals heap0 = alloc_stats::totals();
  exec_.start();
  {
    std::vector<std::jthread> workers;
    workers.reserve(rt_config_.workers);
    for (WorkerId w = 0; w < rt_config_.workers; ++w)
      workers.emplace_back([this, w] { worker_main(w); });
    // jthread destructors join: the block exits when every worker returns.
  }
  const auto wall1 = std::chrono::steady_clock::now();

  PAX_CHECK_MSG(exec_.finished(), "threaded run ended before program finish");
  PAX_CHECK_MSG(!exec_.work_available(), "work left in queue at program end");
  exec_.check_census();

  RtResult res;
  res.wall = std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 - wall0);
  {
    // Guard gap surfaced by the annotation pass: the accumulators are
    // guarded by mu_, and although every worker has joined by here (the
    // jthread block above), the read sites take the now-uncontended lock
    // instead of a suppression — the cost is nil and the proof is local.
    RankedLock lock(mu_);
    res.worker_busy = busy_;
    res.worker_wall = worker_wall_;
    res.tasks_executed = tasks_;
    res.granules_executed = granules_;
    res.wait_lock_acquisitions = wait_locks_;
    res.steals = steals_;
    res.steal_fail_spins = steal_fail_spins_;
    res.granule_faults = granule_faults_;
  }
  const ShardStatsView ss = exec_.stats();
  res.refill_lock_acquisitions = ss.control_acquisitions;
  res.exec_lock_acquisitions = ss.control_acquisitions + res.wait_lock_acquisitions;
  res.exec_lock_hold_ns = ss.control_hold_ns;
  res.shard_hits = ss.shard_hits;
  res.shard_sibling_hits = ss.sibling_hits;
  res.shard_scattered = ss.scattered;
  res.shard_ring_pops = ss.ring_pops;
  res.shard_ring_pop_empty = ss.ring_pop_empty;
  res.shard_ring_push_full = ss.ring_push_full;
  res.shard_ring_cas_retries = ss.ring_cas_retries;
  res.shard_lock_acquisitions = ss.shard_lock_acquisitions;
  res.shard_lock_hold_ns = ss.shard_lock_hold_ns;
  res.shards_used = exec_.shards();
  res.peak_local_queue = dispatcher_.peak_occupancy();
  const AllocTotals heap1 = alloc_stats::delta(heap0, alloc_stats::totals());
  res.heap_allocs = heap1.allocs;
  res.heap_bytes = heap1.bytes;
  // SAFETY: quiescent core access — every worker joined above and the
  // acquire load in exec_.finished() (checked before this point) ordered
  // the core's final writes before these reads.
  res.ledger = exec_.core_unsynchronized().ledger();
  res.diagnostics = exec_.core_unsynchronized().diagnostics();
  // Fault accounting (quiescent core — same ordering argument as above).
  const FaultStats& fs = exec_.core_unsynchronized().fault_stats();
  res.granule_retries = fs.retries;
  res.granules_poisoned = fs.poisoned;
  res.map_faults = fs.map_faults;
  res.faulted = exec_.faulted();
  if (fs.any()) {
    res.fault_summary = "phase " + std::to_string(fs.first_phase) + " [" +
                        std::to_string(fs.first_range.lo) + "," +
                        std::to_string(fs.first_range.hi) + "): " +
                        fs.first_what;
  }

  // Unified metrics surface: worker-cell sums first, then the control-plane
  // and derived values pushed as plain snapshot entries (single-writer here;
  // no cells needed).
  res.metrics = metrics_.snapshot();
  res.metrics.push("exec.control_acquisitions", ss.control_acquisitions);
  res.metrics.push("exec.control_hold_ns", ss.control_hold_ns);
  res.metrics.push("shard.hits", ss.shard_hits);
  res.metrics.push("shard.sibling_hits", ss.sibling_hits);
  res.metrics.push("shard.scattered", ss.scattered);
  res.metrics.push("shard.count", res.shards_used);
  res.metrics.push("shard.ring.pop", ss.ring_pops);
  res.metrics.push("shard.ring.pop_empty", ss.ring_pop_empty);
  res.metrics.push("shard.ring.push_full", ss.ring_push_full);
  res.metrics.push("shard.ring.cas_retries", ss.ring_cas_retries);
  res.metrics.push("shard.lock.acquisitions", ss.shard_lock_acquisitions);
  res.metrics.push("shard.lock.hold_ns", ss.shard_lock_hold_ns);
  res.metrics.push("queue.peak_occupancy", res.peak_local_queue);
  res.metrics.push("heap.allocs", res.heap_allocs);
  res.metrics.push("heap.bytes", res.heap_bytes);
  res.metrics.push("run.wall_ns", static_cast<std::uint64_t>(res.wall.count()));
  res.metrics.push("fault.bodies", res.granule_faults);
  res.metrics.push("fault.retries", res.granule_retries);
  res.metrics.push("fault.poisoned", res.granules_poisoned);
  res.metrics.push("fault.map", res.map_faults);
  res.metrics.push("fault.terminal", res.faulted ? 1 : 0);
  if (rt_config_.trace != nullptr) {
    res.metrics.push("trace.emitted", rt_config_.trace->total_emitted());
    res.metrics.push("trace.dropped", rt_config_.trace->total_dropped());
  }
  return res;
}

}  // namespace pax::rt
