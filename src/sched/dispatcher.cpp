#include "sched/dispatcher.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace pax::sched {

std::size_t refill_target(std::uint32_t workers, double control_ns,
                          double body_ns) {
  if (!(control_ns > 0.0) || !(body_ns > 0.0)) return 1;
  const double want = std::ceil(static_cast<double>(workers) * control_ns / body_ns);
  return static_cast<std::size_t>(
      std::clamp(want, 1.0, static_cast<double>(kAutoRefillMax)));
}

Dispatcher::Dispatcher(DispatchConfig config)
    : config_(config),
      capacity_(config.effective_capacity()),
      scratch_(config.workers),
      faults_(config.workers),
      exec_cells_(std::make_unique<ExecCell[]>(config.workers)),
      window_size_(std::max<std::uint64_t>(16, 4ull * config.workers)) {
  PAX_CHECK_MSG(config_.workers > 0, "need at least one worker");
  PAX_CHECK_MSG(config_.batch > 0, "batch must be at least 1");
  PAX_CHECK_MSG(config_.auto_batch() || capacity_ >= config_.batch,
                "local queue capacity below the retire batch");
  queues_.reserve(config_.workers);
  for (std::uint32_t w = 0; w < config_.workers; ++w) {
    queues_.push_back(std::make_unique<LocalRunQueue>(capacity_));
    scratch_[w].reserve(capacity_);
    // drain_local bounds done.size() + faults.size() by capacity_, so this
    // reserve makes the barrier's append allocation-free forever.
    faults_[w].reserve(capacity_);
  }
}

RefillOutcome Dispatcher::refill(ExecutiveCore& core, WorkerId w,
                                 std::vector<Ticket>& done) {
  RefillOutcome out;
  if (!done.empty()) {
    out.completion = core.complete_batch(done);
    done.clear();
  }

  if (config_.adaptive_grain) {
    const GranuleId base = core.configured_grain();
    const auto shift = grain_shift_.load(std::memory_order_relaxed);
    core.set_grain_limit(std::max<GranuleId>(1, base >> shift));
  }

  // Thieves only shrink the queue, so a room computed from a momentary size
  // can never over-fill; only the owner pushes.
  const std::size_t room = capacity_ - std::min(capacity_, queues_[w]->size());
  if (room == 0) return out;
  std::vector<Assignment>& buf = scratch_[w];
  buf.clear();
  core.request_work_batch(w, room, buf);
  push_reversed(w, buf);
  out.refilled = buf.size();
  if (out.refilled > 0) {
    note_event(/*was_steal=*/false);
    trace_event(w, obs::TraceKind::kRefill,
                static_cast<std::uint32_t>(out.refilled));
  }
  return out;
}

RefillOutcome Dispatcher::refill(ShardedExecutive& ex, WorkerId w,
                                 std::vector<Ticket>& done,
                                 const BodyLoopStats& body) {
  RefillOutcome out;
  if (config_.adaptive_grain) {
    // configured_grain() is constant after construction; the annotated
    // accessor keeps the hot path off core_unsynchronized(), whose contract
    // (quiescence) this call site cannot meet.
    const GranuleId base = ex.configured_grain();
    const auto shift = grain_shift_.load(std::memory_order_relaxed);
    ex.set_grain_limit(std::max<GranuleId>(1, base >> shift));
  }

  std::size_t room = capacity_ - std::min(capacity_, queues_[w]->size());
  if (config_.auto_batch()) {
    // Two relaxed loads and this worker's own counters: no clock read.
    const double body_ns =
        body.tasks == 0 ? 0.0
                        : static_cast<double>(body.busy.count()) /
                              static_cast<double>(body.tasks);
    room = std::min(room,
                    refill_target(config_.workers, ex.mean_control_ns(), body_ns));
  }
  if (room == 0 && done.empty()) return out;
  std::vector<Assignment>& buf = scratch_[w];
  buf.clear();
  const ShardAcquire ar = ex.acquire(w, room, done, buf);
  push_reversed(w, buf);
  out.refilled = ar.taken;
  out.completion.new_work = ar.new_work;
  out.completion.program_finished = ar.program_finished;
  if (out.refilled > 0) {
    note_event(/*was_steal=*/false);
    trace_event(w, obs::TraceKind::kRefill,
                static_cast<std::uint32_t>(out.refilled));
  }
  return out;
}

void Dispatcher::push_reversed(WorkerId w, const std::vector<Assignment>& buf) {
  // Push in reverse so the owner's LIFO pop order equals the order the
  // assignments arrived in (the executive's elevated-first handout order on
  // a refill; the victim's front-to-back order on a steal). One bulk lock
  // acquisition: refill callers hold the executive mutex.
  if (buf.empty()) return;
  const bool ok = queues_[w]->push_reversed(buf);
  PAX_CHECK_MSG(ok, "local run-queue overflow");
}

void Dispatcher::drain_local(const rt::BodyTable& bodies, WorkerId w,
                             std::vector<Ticket>& done, BodyLoopStats& stats) {
  Assignment a;
  std::vector<GranuleFault>& faults = faults_[w];
  while (done.size() + faults.size() < capacity_ && queues_[w]->pop(a)) {
    const auto t0 = std::chrono::steady_clock::now();
    // Watchdog cell: begin stamp before the body, cleared after. Relaxed —
    // the watchdog's sample is a heuristic staleness probe, and the cell is
    // this worker's own cache line.
    exec_cells_[w].begin_ns.store(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t0.time_since_epoch())
                .count()),
        std::memory_order_relaxed);
    bool ok = true;
    // The exception barrier (DESIGN.md §15). Only the body call is inside
    // the try: queue/stats manipulation must never be attributed to a user
    // fault. The no-throw path through a try block is free (table-driven
    // unwinding); the catch arms are the cold path and may do what they
    // like except allocate — record_fault appends into a preallocated
    // buffer and copies a bounded message.
    try {
      bodies.of(a.phase)(a.range, w);
    } catch (const std::exception& e) {
      ok = false;
      record_fault(w, a, e.what());
    } catch (...) {
      ok = false;
      record_fault(w, a, "unknown exception in phase body");
    }
    const auto t1 = std::chrono::steady_clock::now();
    exec_cells_[w].begin_ns.store(0, std::memory_order_relaxed);
    stats.busy += std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0);
    if (ok) {
      stats.granules += a.range.size();
      ++stats.tasks;
      done.push_back(a.ticket);
    } else {
      ++stats.faulted;
    }
    if (config_.trace != nullptr) {
      // Both records stamp from t0/t1 — the same reads that feed stats.busy
      // — and both are emitted after the body, so tracing perturbs neither
      // the busy measure nor the body itself. Exact consequence: with zero
      // ring drops, summing (end - begin) over a worker's ring reproduces
      // that worker's busy nanoseconds bit for bit (bench_t11 checks this).
      obs::TraceRecord r;
      r.job = config_.trace_job;
      r.range = a.range;
      r.phase = a.phase;
      r.aux = static_cast<std::uint32_t>(a.range.size());
      r.worker = static_cast<std::uint16_t>(w);
      r.ts_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              t0.time_since_epoch())
              .count());
      r.kind = obs::TraceKind::kExecBegin;
      obs::TraceRing& ring = config_.trace->ring(w);
      ring.emit(r);
      r.ts_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              t1.time_since_epoch())
              .count());
      r.kind = obs::TraceKind::kExecEnd;
      ring.emit(r);
    }
  }
}

std::size_t Dispatcher::try_steal(WorkerId w) {
  if (!config_.steal || config_.workers < 2) return 0;
  WorkerId victim = w;
  std::size_t most = 0;
  for (WorkerId peer = 0; peer < config_.workers; ++peer) {
    if (peer == w) continue;
    const std::size_t n = queues_[peer]->size();
    if (n > most) {
      most = n;
      victim = peer;
    }
  }
  if (most == 0) {
    trace_event(w, obs::TraceKind::kStealAttempt, 0);
    return 0;
  }

  const std::size_t room = capacity_ - std::min(capacity_, queues_[w]->size());
  if (room == 0) return 0;
  std::vector<Assignment>& buf = scratch_[w];
  buf.clear();
  const std::size_t got = queues_[victim]->steal(room, buf);
  if (got == 0) {
    trace_event(w, obs::TraceKind::kStealAttempt, 0);  // victim raced dry
    return 0;
  }
  push_reversed(w, buf);
  note_event(/*was_steal=*/true);
  trace_event(w, obs::TraceKind::kStealSuccess, static_cast<std::uint32_t>(got));
  return got;
}

void Dispatcher::record_fault(WorkerId w, const Assignment& a,
                              const char* what) {
  GranuleFault f;
  f.ticket = a.ticket;
  f.phase = a.phase;
  f.range = a.range;
  f.worker = w;
  f.set_what(what);
  faults_[w].push_back(f);  // reserved to capacity_; never reallocates
  trace_event(w, obs::TraceKind::kGranuleFault,
              static_cast<std::uint32_t>(a.range.size()));
}

void Dispatcher::trace_event(WorkerId w, obs::TraceKind kind, std::uint32_t aux) {
  if (config_.trace == nullptr) return;
  obs::TraceRecord r;
  r.ts_ns = obs::trace_now_ns();
  r.job = config_.trace_job;
  r.aux = aux;
  r.worker = static_cast<std::uint16_t>(w);
  r.kind = kind;
  config_.trace->ring(w).emit(r);
}

bool Dispatcher::any_local_work() const {
  for (const auto& q : queues_)
    if (q->size() > 0) return true;
  return false;
}

bool Dispatcher::stealable_by(WorkerId w) const {
  for (WorkerId peer = 0; peer < config_.workers; ++peer)
    if (peer != w && queues_[peer]->size() > 0) return true;
  return false;
}

std::size_t Dispatcher::peak_occupancy() const {
  std::size_t peak = 0;
  for (const auto& q : queues_) peak = std::max(peak, q->peak());
  return peak;
}

void Dispatcher::note_event(bool was_steal) {
  if (!config_.adaptive_grain) return;
  // Relaxed throughout: the window counters synchronize with nothing — they
  // feed a grain heuristic, and a racy window reset only blurs one window's
  // edges (two workers may both observe the rollover; the double-reset
  // drops at most one window of events, never corrupts the shift).
  if (was_steal) window_steals_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t ev = window_events_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (ev < window_size_) return;
  window_events_.store(0, std::memory_order_relaxed);
  const std::uint64_t steals = window_steals_.exchange(0, std::memory_order_relaxed);
  std::uint32_t shift = grain_shift_.load(std::memory_order_relaxed);
  if (steals * 4 >= window_size_) {
    if (shift < kMaxGrainShift) ++shift;  // rundown: carve finer
  } else if (shift > 0) {
    // Below the raise threshold: restore coarseness. Decaying on any
    // sub-threshold window (not only steal-free ones) keeps natural
    // scheduling jitter — a trickle of steals — from latching a halved
    // grain through a long steady-state phase.
    --shift;
  }
  grain_shift_.store(shift, std::memory_order_relaxed);
}

}  // namespace pax::sched
