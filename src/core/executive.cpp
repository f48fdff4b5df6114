#include "core/executive.hpp"

#include <algorithm>
#include <utility>

namespace pax {

// ---------------------------------------------------------------------------
// Internal structures

struct ExecutiveCore::Run {
  RunId id = kNoRun;
  PhaseId phase = kNoPhase;
  std::uint32_t node = kNoNode;
  RunState state = RunState::kPending;
  GranuleId total = 0;
  GranuleId completed_count = 0;
  RangeSet completed;
  /// Every live descriptor belonging to this run, regardless of state.
  std::vector<Descriptor*> live;
  /// Dynamically submitted computations that conflict with this run; the
  /// paper's original conflict-queue purpose. Released at run completion.
  IntrusiveRing<Descriptor, &Descriptor::conflict_hook> barrier;
  Edge* outgoing = nullptr;  ///< overlap edge where this run is current
  Edge* incoming = nullptr;  ///< overlap edge where this run is successor
  /// Most recent waiting descriptor of this run, for merge-on-enqueue.
  Descriptor* merge_tail = nullptr;

  static constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;
};

/// Overlap edge. Slab-recycled when its current run completes: setup_overlap
/// resets every field, and build_pairs keeps the capacity it grew during the
/// previous edge's incremental map construction.
struct ExecutiveCore::Edge {
  RunId cur = kNoRun;
  RunId succ = kNoRun;
  MappingKind kind = MappingKind::kNull;
  const EnableClause* clause = nullptr;  // for deferred map building
  CompositeGranuleMap* cmap = nullptr;   // indirect kinds only (cmap slab)
  bool dead = false;

  // Incremental map construction: pairs accumulated over idle-time slices.
  GranuleId build_cursor = 0;
  std::vector<std::pair<std::uint32_t, GranuleId>> build_pairs;
};

/// Cached composite map for a stable (static-relation) clause.
struct ExecutiveCore::CachedMap {
  const EnableClause* clause = nullptr;
  CompositeGranuleMap pristine;
  std::vector<GranuleId> initially_enabled;
  std::uint64_t entries = 0;
};

/// Successor granules of one overlap edge enabled during a completion batch,
/// keyed by the successor run (the edge may die mid-batch when its current
/// run completes; the run outlives it).
struct ExecutiveCore::DeferredEnable {
  RunId succ = kNoRun;
  std::vector<GranuleId> newly;
};

/// Deferred successor-splitting task: "The successor computation description
/// could be removed from the current computation description and included in
/// the successor-splitting task information."
struct ExecutiveCore::SplitTask {
  Descriptor* held = nullptr;       ///< detached successor descriptor (kHeld)
  Descriptor* chunk = nullptr;      ///< carved current chunk (prefix)
  Descriptor* remainder = nullptr;  ///< current remainder (still queued)
  bool done = false;
};

/// The cleared-not-freed scratch buffers behind the steady-state hot paths.
/// Each buffer grows to its working-set size once and is reused for the life
/// of the core; no function in the completion/request cycle materialises a
/// fresh std::vector. Buffers are grouped by the call tree that owns them —
/// the completion set is idle whenever the map-build set runs (map builds
/// happen at dispatch or in idle time, after the batch's deferred flush).
struct ExecutiveCore::Workspace {
  // complete_batch / flush_deferred
  std::vector<DeferredEnable> deferred;  ///< slot pool; active = [0, deferred_n)
  std::size_t deferred_n = 0;
  std::vector<GranuleId> newly;          ///< per-ticket indirect enablements
  std::vector<GranuleRange> ranges;      ///< coalesced-range scratch
  // extract_elevated
  std::vector<Descriptor*> hosts;
  std::vector<std::pair<Descriptor*, GranuleId>> grouped;
  std::vector<std::pair<GranuleId, Descriptor*>> carved;
  std::vector<std::uint8_t> used;
  // map building
  std::vector<GranuleId> map_out;    ///< indirection-callback out-buffer
  std::vector<GranuleId> map_newly;  ///< enablements fired by a map build

  /// The batch's accumulation slot for successor run `succ`. Slots recycle
  /// across batches with their `newly` capacity intact.
  DeferredEnable& slot_for(RunId succ) {
    for (std::size_t i = 0; i < deferred_n; ++i)
      if (deferred[i].succ == succ) return deferred[i];
    if (deferred_n == deferred.size()) deferred.emplace_back();
    DeferredEnable& de = deferred[deferred_n++];
    de.succ = succ;
    de.newly.clear();
    return de;
  }
};

namespace {
template <typename T>
SplitTaskTag* as_tag(T* t) {
  return reinterpret_cast<SplitTaskTag*>(t);
}
}  // namespace

// ---------------------------------------------------------------------------
// Construction / teardown

ExecutiveCore::ExecutiveCore(const PhaseProgram& program, ExecConfig config,
                             CostModel costs)
    : program_(program),
      config_(config),
      costs_(costs),
      ws_(std::make_unique<Workspace>()),
      serial_done_early_(program.size(), 0),
      branch_predecided_(program.size(), -1),
      node_pending_run_(program.size(), kNoRun),
      grain_limit_(config.grain) {
  PAX_CHECK_MSG(config_.grain > 0, "grain must be positive");
}

ExecutiveCore::~ExecutiveCore() {
  // Tear down any still-linked structures so intrusive-hook destructors
  // don't trip (a core may be destroyed mid-program by tests). Index
  // iteration, not a snapshot copy: nothing below mutates a live table, and
  // the old per-run std::vector copy was a heap round-trip per run.
  for (Run* r : runs_) {
    r->barrier.drain([](Descriptor&) {});
  }
  for (Run* r : runs_) {
    for (std::size_t i = 0; i < r->live.size(); ++i) {
      Descriptor* d = r->live[i];
      if (d->wait_hook.linked()) waiting_.remove(*d);
      if (d->conflict_hook.linked()) d->conflict_hook.unlink();
      d->conflict_queue.drain([](Descriptor&) {});
      d->pending_split = nullptr;
    }
  }
}

// ---------------------------------------------------------------------------
// Small plumbing

void ExecutiveCore::emit(const ExecEvent& ev) {
  if (sink_ != nullptr) sink_->on_event(ev);
}

void ExecutiveCore::diagnose(std::string msg) {
  diagnostics_.push_back(std::move(msg));
  emit({ExecEvent::Kind::kDiagnostic, kNoRun, kNoPhase, {}, diagnostics_.back()});
}

ExecutiveCore::Run& ExecutiveCore::run_of(RunId id) {
  PAX_CHECK(id < runs_.size());
  return *runs_[id];
}

const ExecutiveCore::Run& ExecutiveCore::run_of(RunId id) const {
  PAX_CHECK(id < runs_.size());
  return *runs_[id];
}

ExecutiveCore::Run& ExecutiveCore::create_run(PhaseId phase, std::uint32_t node,
                                              RunState state) {
  // Runs are immortal (RunId indexes runs_ for the core's lifetime), so the
  // slab slot is always freshly default-constructed — only the scalar fields
  // need setting.
  Run& r = run_slab_.acquire();
  r.id = static_cast<RunId>(runs_.size());
  r.phase = phase;
  r.node = node;
  r.state = state;
  r.total = phase == kNoPhase ? 0 : program_.phase(phase).granules;
  runs_.push_back(&r);
  emit({ExecEvent::Kind::kRunCreated, r.id, r.phase, {0, r.total}, {}});
  return r;
}

Descriptor& ExecutiveCore::make_desc(Run& r, GranuleRange range, Priority prio) {
  Descriptor& d = pool_.acquire(r.id, r.phase, range, prio);
  d.live_index = static_cast<std::uint32_t>(r.live.size());
  r.live.push_back(&d);
  return d;
}

void ExecutiveCore::retire_desc(Descriptor& d) {
  Run& r = run_of(d.run);
  if (r.merge_tail == &d) r.merge_tail = nullptr;
  const std::uint32_t i = d.live_index;
  PAX_DCHECK(i < r.live.size() && r.live[i] == &d);
  r.live[i] = r.live.back();
  r.live[i]->live_index = i;
  r.live.pop_back();
  pool_.release(d);
}

void ExecutiveCore::enqueue_enabled(Run& succ, GranuleRange range, Priority prio) {
  // Merge with the run's most recent still-waiting descriptor when the new
  // range extends it ("merged back into single descriptions"): scattered
  // enablements would otherwise fragment the queue into granule-sized
  // descriptors and defeat the grain.
  Descriptor* tail = succ.merge_tail;
  if (tail != nullptr && tail->state == DescState::kWaiting &&
      tail->run == succ.id && tail->priority == prio &&
      tail->range.hi == range.lo && tail->conflict_queue.empty() &&
      tail->pending_split == nullptr) {
    tail->range.hi = range.hi;
    emit({ExecEvent::Kind::kGranulesEnabled, succ.id, succ.phase, range, {}});
    return;
  }
  Descriptor& d = make_desc(succ, range, prio);
  waiting_.enqueue(d);
  succ.merge_tail = &d;
  emit({ExecEvent::Kind::kGranulesEnabled, succ.id, succ.phase, range, {}});
}

// ---------------------------------------------------------------------------
// Split propagation and deferred successor-splitting tasks

void ExecutiveCore::propagate_split(Descriptor& parent, Descriptor& piece) {
  // `piece` was carved as a prefix of `parent`'s former range. Any queued
  // successor description tracking `parent` must be split so that "each
  // queued description will accurately reflect the enablement relationship".
  if (parent.conflict_queue.empty()) return;

  if (config_.split_policy == SplitPolicy::kDeferred) {
    // Detach the tracked successor into a successor-splitting task.
    Descriptor* s = parent.conflict_queue.front();
    PAX_CHECK_MSG(parent.conflict_queue.size() == 1,
                  "deferred split supports one tracked successor per descriptor");
    PAX_CHECK(s->tracks_owner);
    decltype(parent.conflict_queue)::remove(*s);
    s->state = DescState::kHeld;
    SplitTask& task = split_slab_.acquire();  // recycled slot: reset all fields
    task.held = s;
    task.chunk = &piece;
    task.remainder = &parent;
    task.done = false;
    piece.pending_split = as_tag(&task);
    parent.pending_split = as_tag(&task);
    split_tasks_.push_back(&task);
    return;
  }

  // Inline (and the presplit fallback): split each tracked successor now.
  parent.conflict_queue.for_each([&](Descriptor& s) {
    if (!s.tracks_owner) return;
    PAX_CHECK(s.range.lo == piece.range.lo);
    PAX_CHECK(s.range.hi == parent.range.hi);
    Run& srun = run_of(s.run);
    Descriptor& sa = make_desc(srun, piece.range, s.priority);
    sa.tracks_owner = true;
    sa.state = DescState::kConflicted;
    piece.conflict_queue.push_back(sa);
    s.range.lo = piece.range.hi;
    ledger_.charge(MgmtOp::kSuccessorSplit, costs_);
  });
}

void ExecutiveCore::force_pending_split(Descriptor& d) {
  auto* task = reinterpret_cast<SplitTask*>(d.pending_split);
  if (task == nullptr || task->done) {
    d.pending_split = nullptr;
    return;
  }
  Descriptor* s = task->held;
  Descriptor* chunk = task->chunk;
  Descriptor* rem = task->remainder;
  PAX_CHECK(s && chunk && rem);
  PAX_CHECK(s->range.lo == chunk->range.lo);
  PAX_CHECK(chunk->range.hi == rem->range.lo);
  PAX_CHECK(s->range.hi == rem->range.hi);

  Run& srun = run_of(s->run);
  Descriptor& sa = make_desc(srun, chunk->range, s->priority);
  sa.tracks_owner = true;
  sa.state = DescState::kConflicted;
  chunk->conflict_queue.push_back(sa);

  s->range.lo = chunk->range.hi;
  s->state = DescState::kConflicted;
  rem->conflict_queue.push_back(*s);

  chunk->pending_split = nullptr;
  rem->pending_split = nullptr;
  task->done = true;
  ledger_.charge(MgmtOp::kSuccessorSplit, costs_);
}

// ---------------------------------------------------------------------------
// Carving

Descriptor& ExecutiveCore::carve(Descriptor& d, GranuleRange piece) {
  PAX_CHECK(piece.lo >= d.range.lo && piece.hi <= d.range.hi && !piece.empty());
  // Any deferred task touching this descriptor is resolved before its range
  // changes again.
  if (d.pending_split != nullptr) force_pending_split(d);

  Run& r = run_of(d.run);

  if (piece == d.range) {
    if (d.wait_hook.linked()) waiting_.remove(d);
    return d;
  }

  ledger_.charge(MgmtOp::kSplit, costs_);

  if (piece.lo == d.range.lo) {
    // Prefix carve: d keeps its queue position as the remainder.
    Descriptor& p = make_desc(r, piece, d.priority);
    d.range.lo = piece.hi;
    propagate_split(d, p);
    return p;
  }

  // Interior/suffix carves are only used on descriptors without tracked
  // successors (see executive.hpp commentary); checked here.
  PAX_CHECK_MSG(d.conflict_queue.empty(),
                "interior carve on a descriptor with tracked successors");

  if (piece.hi == d.range.hi) {
    Descriptor& p = make_desc(r, piece, d.priority);
    d.range.hi = piece.lo;
    return p;
  }

  // Interior: d keeps [lo, piece.lo); a new tail descriptor covers
  // [piece.hi, hi) and sits immediately after d so queue order is preserved.
  Descriptor& tail = make_desc(r, {piece.hi, d.range.hi}, d.priority);
  Descriptor& p = make_desc(r, piece, d.priority);
  d.range.hi = piece.lo;
  if (d.wait_hook.linked()) {
    waiting_.insert_after(d, tail);
  } else {
    waiting_.enqueue(tail);
  }
  ledger_.charge(MgmtOp::kSplit, costs_);
  return p;
}

// ---------------------------------------------------------------------------
// Worker protocol

void ExecutiveCore::start() {
  PAX_CHECK_MSG(!started_, "start() called twice");
  started_ = true;
  program_.verify();
  advance_program();
}

std::optional<Assignment> ExecutiveCore::request_work(WorkerId) {
  PAX_CHECK_MSG(started_, "request_work before start");
  if (stop_requested_) return std::nullopt;  // cancelled: no new handouts
  ledger_.charge(MgmtOp::kRequestWork, costs_);
  if (waiting_.empty() && !retry_queue_.empty()) {
    // Nothing else to do: fast-forward the backoff clock to the earliest
    // parked retry. Backoff defers retries relative to other progress; an
    // otherwise-idle machine retries immediately (and never deadlocks on a
    // backoff interval nobody is left to pump).
    std::uint64_t min_tick = retry_queue_.front().ready_tick;
    for (const RetryEntry& e : retry_queue_)
      min_tick = std::min(min_tick, e.ready_tick);
    fault_tick_ = std::max(fault_tick_, min_tick);
    flush_retries();
  }
  Descriptor* d = waiting_.peek();
  if (d == nullptr) return std::nullopt;
  if (d->pending_split != nullptr) force_pending_split(*d);

  // One relaxed load per request: the steal-rate signal may update the limit
  // concurrently (it is the only unlocked writer); a torn view across two
  // loads could carve a piece wider than the cap.
  const GranuleId limit = grain_limit_.load(std::memory_order_relaxed);
  Descriptor* task;
  if (d->range.size() <= limit) {
    waiting_.remove(*d);
    task = d;
  } else {
    task = &carve(*d, {d->range.lo, d->range.lo + limit});
  }
  task->state = DescState::kAssigned;

  Ticket t;
  if (!free_tickets_.empty()) {
    t = free_tickets_.back();
    free_tickets_.pop_back();
    assignments_[t] = task;
  } else {
    t = static_cast<Ticket>(assignments_.size());
    assignments_.push_back(task);
  }
  return Assignment{t, task->run, task->phase, task->range, task->priority};
}

std::size_t ExecutiveCore::request_work_batch(WorkerId worker, std::size_t max_n,
                                              std::vector<Assignment>& out) {
  std::size_t got = 0;
  while (got < max_n) {
    std::optional<Assignment> a = request_work(worker);
    if (!a.has_value()) break;
    out.push_back(*a);
    ++got;
  }
  return got;
}

void ExecutiveCore::release_conflicts(Descriptor& d) {
  d.conflict_queue.drain([&](Descriptor& s) {
    // Identity-successor pieces queue behind the remaining current-phase
    // work so they fill the rundown tail; dynamically submitted conflicting
    // computations take the elevated lane the paper gives them.
    const bool successor_piece = s.tracks_owner;
    s.tracks_owner = false;
    s.priority = (!successor_piece || config_.elevate_released)
                     ? Priority::kElevated
                     : Priority::kNormal;
    waiting_.enqueue(s);
    ledger_.charge(MgmtOp::kConflictRelease, costs_);
    emit({ExecEvent::Kind::kGranulesEnabled, s.run, s.phase, s.range, {}});
  });
}

void ExecutiveCore::complete_one(Ticket ticket, CompletionResult& res) {
  PAX_CHECK(ticket < assignments_.size() && assignments_[ticket] != nullptr);
  Descriptor* d = assignments_[ticket];
  assignments_[ticket] = nullptr;
  free_tickets_.push_back(ticket);
  PAX_CHECK(d->state == DescState::kAssigned);

  ledger_.charge(MgmtOp::kCompletion, costs_);
  if (d->pending_split != nullptr) force_pending_split(*d);

  Run& r = run_of(d->run);
  r.completed.insert(d->range);
  r.completed_count += d->range.size();

  // Release conflict-queued successors of this piece.
  release_conflicts(*d);

  // Indirect enablement: decrement counters for participating granules.
  if (r.outgoing != nullptr && !r.outgoing->dead && r.outgoing->cmap != nullptr) {
    CompositeGranuleMap& m = *r.outgoing->cmap;
    Workspace& ws = *ws_;
    ws.newly.clear();
    std::uint64_t updates = 0;
    for (GranuleId g = d->range.lo; g < d->range.hi; ++g)
      updates += m.on_complete(g, ws.newly);
    if (updates > 0) ledger_.charge(MgmtOp::kCounterUpdate, costs_, updates);
    if (!ws.newly.empty()) {
      DeferredEnable& slot = ws.slot_for(r.outgoing->succ);
      slot.newly.insert(slot.newly.end(), ws.newly.begin(), ws.newly.end());
    }
  }

  retire_desc(*d);

  if (r.completed_count == r.total) {
    // A run completion can advance the program counter, and dispatch-time
    // overlap setup assumes every enabled successor granule is materialised
    // as a descriptor — so flush the batch's pending enablements first.
    flush_deferred();
    on_run_complete(r);
    res.run_completed = true;
  }
}

void ExecutiveCore::flush_deferred() {
  Workspace& ws = *ws_;
  const Priority prio =
      config_.elevate_released ? Priority::kElevated : Priority::kNormal;
  for (std::size_t i = 0; i < ws.deferred_n; ++i) {
    DeferredEnable& de = ws.deferred[i];
    std::sort(de.newly.begin(), de.newly.end());
    de.newly.erase(std::unique(de.newly.begin(), de.newly.end()), de.newly.end());
    Run& succ = run_of(de.succ);
    coalesce_sorted_into(de.newly, ws.ranges);
    for (const GranuleRange& range : ws.ranges) enqueue_enabled(succ, range, prio);
  }
  ws.deferred_n = 0;
}

CompletionResult ExecutiveCore::complete(Ticket ticket) {
  return complete_batch({&ticket, 1});
}

CompletionResult ExecutiveCore::complete_batch(std::span<const Ticket> tickets) {
  CompletionResult res;
  const std::size_t waiting_before = waiting_.size();
  PAX_DCHECK(ws_->deferred_n == 0);
  for (const Ticket t : tickets) complete_one(t, res);
  flush_deferred();
  if (!retry_queue_.empty()) {
    ++fault_tick_;  // completion batches are the backoff clock
    flush_retries();
  }
  maybe_finish_stopped();
  res.new_work = waiting_.size() > waiting_before;
  res.program_finished = finished_;
  return res;
}

void ExecutiveCore::recycle_edge(Edge& e) {
  PAX_DCHECK(e.dead);
  // Drop any stale idle-time build reference before the slot can be reused
  // by a later overlap edge.
  std::erase(pending_map_builds_, &e);
  if (e.cmap != nullptr) {
    cmap_slab_.release(*e.cmap);  // next edge reuses its counter/CSR buffers
    e.cmap = nullptr;
  }
  edge_slab_.release(e);
}

void ExecutiveCore::on_run_complete(Run& r) {
  PAX_CHECK(r.state != RunState::kComplete);
  PAX_CHECK(r.completed.fragments() == 1 || r.total == 0);
  r.state = RunState::kComplete;
  emit({ExecEvent::Kind::kRunCompleted, r.id, r.phase, {0, r.total}, {}});

  // Release dynamically submitted conflicting computations: "placed ahead
  // of the normal computations in the queue and, thus, given higher
  // priority".
  r.barrier.drain([&](Descriptor& s) {
    s.priority = Priority::kElevated;
    waiting_.enqueue(s);
    ledger_.charge(MgmtOp::kConflictRelease, costs_);
    emit({ExecEvent::Kind::kGranulesEnabled, s.run, s.phase, s.range, {}});
  });

  // Finish off the outgoing overlap edge, if any.
  if (r.outgoing != nullptr && !r.outgoing->dead) {
    Edge& e = *r.outgoing;
    Run& succ = run_of(e.succ);
    if (e.cmap != nullptr) {
      PAX_CHECK_MSG(e.cmap->outstanding() == 0,
                    "counters outstanding after current phase completion");
      // Successor granules outside the solved subset become computable now.
      const auto& untracked = e.cmap->untracked_successors();
      if (!untracked.empty()) {
        coalesce_sorted_into(untracked, ws_->ranges);
        for (const GranuleRange& range : ws_->ranges)
          enqueue_enabled(succ, range, Priority::kNormal);
      }
    } else if (e.kind == MappingKind::kReverseIndirect ||
               e.kind == MappingKind::kForwardIndirect) {
      // The executive never found idle time to build the map; the successor
      // releases wholesale now (overlap simply did not materialise).
      if (succ.total > 0) enqueue_enabled(succ, {0, succ.total}, Priority::kNormal);
    }
    e.dead = true;
    succ.incoming = nullptr;
    r.outgoing = nullptr;
    recycle_edge(e);
  }

  if (waiting_run_ == r.id) {
    waiting_run_ = kNoRun;
    advance_program();
  }
}

bool ExecutiveCore::idle_work() {
  if (stop_requested_) return false;  // cancelled: no speculative work
  // 0. Composite granule maps awaiting construction — one bounded slice per
  //    call so worker requests interleave with the build.
  while (!pending_map_builds_.empty()) {
    Edge* e = pending_map_builds_.front();
    if (e->dead || e->cmap != nullptr) {
      pending_map_builds_.erase(pending_map_builds_.begin());
      continue;
    }
    if (map_build_step(*e)) pending_map_builds_.erase(pending_map_builds_.begin());
    return true;
  }

  // 1. Deferred successor-splitting tasks ("quickly queued for later
  //    attention when the executive would again be idle"). Retired slots go
  //    back to the slab for reuse.
  while (!split_tasks_.empty() && split_tasks_.front()->done) {
    split_slab_.release(*split_tasks_.front());
    split_tasks_.erase(split_tasks_.begin());
  }
  if (!split_tasks_.empty()) {
    SplitTask* t = split_tasks_.front();
    force_pending_split(*t->chunk);
    split_slab_.release(*t);
    split_tasks_.erase(split_tasks_.begin());
    return true;
  }

  // 2. Presplitting: carve grain-size pieces ahead of worker requests so the
  //    request path needs no split at all.
  if (config_.split_policy == SplitPolicy::kPresplit) {
    Descriptor* victim = nullptr;
    waiting_.for_each([&](Descriptor& d) {
      if (victim == nullptr && d.range.size() > config_.grain) victim = &d;
    });
    if (victim != nullptr) {
      Descriptor& piece =
          carve(*victim, {victim->range.lo, victim->range.lo + config_.grain});
      waiting_.insert_before(*victim, piece);
      return true;
    }
  }
  return false;
}

void ExecutiveCore::request_stop() {
  if (finished_ || stop_requested_) return;
  stop_requested_ = true;
  maybe_finish_stopped();
}

void ExecutiveCore::abandon(Ticket ticket) {
  PAX_CHECK(ticket < assignments_.size() && assignments_[ticket] != nullptr);
  PAX_CHECK_MSG(stop_requested_, "abandon outside a stop");
  Descriptor* d = assignments_[ticket];
  assignments_[ticket] = nullptr;
  free_tickets_.push_back(ticket);
  PAX_CHECK(d->state == DescState::kAssigned);
  // The granules were never executed: no run-completion accounting and no
  // enablement decrements. Split linkage and conflict queues still unwind so
  // no descriptor leaks — released successors land in waiting_, where the
  // stop gate keeps them from ever being handed out.
  if (d->pending_split != nullptr) force_pending_split(*d);
  release_conflicts(*d);
  retire_desc(*d);
  maybe_finish_stopped();
}

void ExecutiveCore::maybe_finish_stopped() {
  if (!stop_requested_ || finished_) return;
  if (assignments_.size() != free_tickets_.size()) return;  // tickets in flight
  finished_ = true;
  emit({ExecEvent::Kind::kProgramFinished, kNoRun, kNoPhase, {},
        faulted_ ? "faulted" : "cancelled"});
}

std::uint32_t ExecutiveCore::bump_fault_attempts(Run& r, GranuleRange range) {
  FaultAttempts* fa = nullptr;
  for (FaultAttempts& e : fault_attempts_)
    if (e.run == r.id) fa = &e;
  if (fa == nullptr) {
    fault_attempts_.push_back({r.id, {}});
    fa = &fault_attempts_.back();
  }
  // Anonymous conflicting runs carry ranges not based at 0, so size the
  // table to the range bound, not the run total.
  if (fa->per_granule.size() < range.hi) fa->per_granule.resize(range.hi, 0);
  std::uint32_t attempt = 0;
  for (GranuleId g = range.lo; g < range.hi; ++g)
    attempt = std::max(attempt, ++fa->per_granule[g]);
  return attempt;
}

void ExecutiveCore::note_first_fault(PhaseId phase, GranuleRange range,
                                     const char* what) {
  if (fault_stats_.first_what[0] != '\0' || fault_stats_.first_phase != kNoPhase)
    return;
  fault_stats_.first_phase = phase;
  fault_stats_.first_range = range;
  std::size_t i = 0;
  for (; what != nullptr && what[i] != '\0' &&
         i + 1 < sizeof(fault_stats_.first_what);
       ++i)
    fault_stats_.first_what[i] = what[i];
  fault_stats_.first_what[i] = '\0';
}

void ExecutiveCore::flush_retries() {
  if (retry_queue_.empty() || stop_requested_) return;
  std::size_t w = 0;
  for (std::size_t i = 0; i < retry_queue_.size(); ++i) {
    const RetryEntry e = retry_queue_[i];
    if (e.ready_tick <= fault_tick_) {
      waiting_.enqueue(*e.desc);
      emit({ExecEvent::Kind::kGranulesEnabled, e.desc->run, e.desc->phase,
            e.desc->range, "retry"});
    } else {
      retry_queue_[w++] = e;
    }
  }
  retry_queue_.resize(w);
}

void ExecutiveCore::note_map_fault(Edge& edge, const char* what) {
  ++fault_stats_.map_faults;
  Run& succ = run_of(edge.succ);
  note_first_fault(succ.phase, {0, succ.total}, what);
  edge.build_pairs.clear();
  edge.build_cursor = 0;
  diagnose(std::string("enablement map callback threw ('") +
           (what != nullptr ? what : "?") +
           "'); overlap degraded to wholesale release for phase " +
           std::to_string(succ.phase));
}

CompletionResult ExecutiveCore::fail(const GranuleFault& f) {
  CompletionResult res;
  const std::size_t waiting_before = waiting_.size();
  PAX_CHECK(f.ticket < assignments_.size() && assignments_[f.ticket] != nullptr);
  Descriptor* d = assignments_[f.ticket];
  assignments_[f.ticket] = nullptr;
  free_tickets_.push_back(f.ticket);
  PAX_CHECK(d->state == DescState::kAssigned);

  ++fault_stats_.faults;
  note_first_fault(d->phase, d->range, f.what);
  Run& r = run_of(d->run);

  if (!stop_requested_) {
    const std::uint32_t attempt = bump_fault_attempts(r, d->range);
    if (attempt <= config_.max_granule_retries) {
      // Park the descriptor itself for retry: its conflict queue (tracked
      // successors) stays attached, so successor releases still require a
      // real completion of this range.
      ++fault_stats_.retries;
      fault_stats_.retried_granules += d->range.size();
      d->state = DescState::kHeld;
      const std::uint64_t shift = attempt > 0 ? attempt - 1 : 0;
      const std::uint64_t delay =
          static_cast<std::uint64_t>(config_.retry_backoff_ticks) << shift;
      retry_queue_.push_back({d, fault_tick_ + delay});
      res.new_work = waiting_.size() > waiting_before;
      res.program_finished = finished_;
      return res;
    }
    // Retry budget exhausted: the granules are poisoned and the run can
    // never complete — the dataflow is unsatisfiable. Enter the faulted
    // terminal through the stop machinery (freeze the program counter, no
    // new handouts, finish when outstanding tickets drain).
    fault_stats_.poisoned += d->range.size();
    faulted_ = true;
    stop_requested_ = true;
    diagnose("granule fault poisoned after retry budget: phase " +
             std::to_string(d->phase) + " [" + std::to_string(d->range.lo) +
             "," + std::to_string(d->range.hi) + ") — " + f.what);
  }

  // Poisoned (or failed after a stop was already requested): unwind exactly
  // like abandon() — split linkage and conflict queues unwind so nothing
  // leaks; released successors land behind the stop gate.
  if (d->pending_split != nullptr) force_pending_split(*d);
  release_conflicts(*d);
  retire_desc(*d);
  maybe_finish_stopped();
  res.new_work = waiting_.size() > waiting_before;
  res.program_finished = finished_;
  return res;
}

void ExecutiveCore::submit_conflicting(RunId blocker, PhaseId phase,
                                       GranuleRange range) {
  Run& b = run_of(blocker);
  Run& anon = create_run(phase, Run::kNoNode, RunState::kOpen);
  anon.total = range.size();
  Descriptor& d = make_desc(anon, range, Priority::kNormal);
  if (b.state == RunState::kComplete) {
    // Blocker already done; computable immediately.
    waiting_.enqueue(d);
    emit({ExecEvent::Kind::kGranulesEnabled, d.run, d.phase, d.range, {}});
    return;
  }
  d.state = DescState::kConflicted;
  b.barrier.push_back(d);
}

// ---------------------------------------------------------------------------
// Program advance, lookahead, overlap setup

void ExecutiveCore::advance_program() {
  // A stop request freezes the program counter: no further serial nodes,
  // branches, or dispatches run for a cancelled program. finished_ flips
  // via maybe_finish_stopped() once outstanding tickets drain instead.
  if (stop_requested_) return;
  while (!finished_) {
    const ProgramNode& n = program_.node(pc_);
    if (const auto* d = std::get_if<DispatchNode>(&n)) {
      const std::uint32_t node_index = pc_;
      process_dispatch(node_index, *d);
      ++pc_;
      Run& r = run_of(node_pc_run_);
      if (r.state != RunState::kComplete) {
        waiting_run_ = r.id;
        return;
      }
      continue;
    }
    if (const auto* s = std::get_if<SerialNode>(&n)) {
      if (serial_done_early_[pc_]) {
        serial_done_early_[pc_] = 0;  // consumed; executed during lookahead
      } else {
        run_serial(pc_, *s);
      }
      ++pc_;
      continue;
    }
    if (const auto* b = std::get_if<BranchNode>(&n)) {
      std::size_t arm;
      if (branch_predecided_[pc_] >= 0) {
        arm = static_cast<std::size_t>(branch_predecided_[pc_]);
        branch_predecided_[pc_] = -1;
      } else {
        arm = b->selector(env_);
        ledger_.charge(MgmtOp::kBranchPreprocess, costs_);
      }
      PAX_CHECK(arm < b->targets.size());
      emit({ExecEvent::Kind::kBranchTaken, kNoRun, kNoPhase, {}, b->name});
      pc_ = b->targets[arm];
      continue;
    }
    PAX_CHECK(std::holds_alternative<HaltNode>(n));
    finished_ = true;
    emit({ExecEvent::Kind::kProgramFinished, kNoRun, kNoPhase, {}, {}});
    return;
  }
}

void ExecutiveCore::process_dispatch(std::uint32_t node_index, const DispatchNode& d) {
  Run* r;
  if (node_pending_run_[node_index] != kNoRun) {
    r = &run_of(node_pending_run_[node_index]);
    node_pending_run_[node_index] = kNoRun;
    if (r->state == RunState::kPending) r->state = RunState::kOpen;
    emit({ExecEvent::Kind::kRunOpened, r->id, r->phase, {0, r->total}, {}});
  } else {
    r = &create_run(d.phase, node_index, RunState::kOpen);
    ledger_.charge(MgmtOp::kPhaseInit, costs_);
    Descriptor& root = make_desc(*r, {0, r->total}, Priority::kNormal);
    waiting_.enqueue(root);
    emit({ExecEvent::Kind::kGranulesEnabled, r->id, r->phase, root.range, {}});
  }
  // When the run already finished during its overlap window, setup_overlap
  // reduces to verification-only lookahead (it returns after the interlock
  // check); otherwise it establishes the overlap edge to the successor.
  if (config_.overlap) setup_overlap(*r, d);
  node_pc_run_ = r->id;
}

std::optional<std::uint32_t> ExecutiveCore::lookahead(std::uint32_t from) {
  std::uint32_t j = from;
  std::size_t steps = 0;
  while (steps++ < program_.size() + 1) {
    if (j >= program_.size()) return std::nullopt;
    const ProgramNode& n = program_.node(j);
    if (std::holds_alternative<DispatchNode>(n)) return j;
    if (const auto* s = std::get_if<SerialNode>(&n)) {
      if (!(config_.early_serial && !s->conflicts_with_prev)) return std::nullopt;
      if (!serial_done_early_[j]) {
        // "Extended effort": the serial action does not touch the previous
        // phase's data, so the executive runs it early and keeps looking.
        run_serial(j, *s);
        serial_done_early_[j] = 1;
      }
      ++j;
      continue;
    }
    if (const auto* b = std::get_if<BranchNode>(&n)) {
      if (!(config_.branch_preprocess && b->phase_independent)) return std::nullopt;
      std::size_t arm;
      if (branch_predecided_[j] >= 0) {
        arm = static_cast<std::size_t>(branch_predecided_[j]);
      } else {
        arm = b->selector(env_);
        PAX_CHECK(arm < b->targets.size());
        branch_predecided_[j] = static_cast<std::int32_t>(arm);
        ledger_.charge(MgmtOp::kBranchPreprocess, costs_);
      }
      j = b->targets[arm];
      continue;
    }
    return std::nullopt;  // Halt
  }
  return std::nullopt;  // branch cycle with no dispatch
}

void ExecutiveCore::setup_overlap(Run& cur, const DispatchNode& d) {
  if (d.enables.empty()) return;
  const auto succ_node = lookahead(pc_ + 1);
  if (!succ_node) return;
  const auto& sd = std::get<DispatchNode>(program_.node(*succ_node));
  const PhaseSpec& sspec = program_.phase(sd.phase);

  const EnableClause* clause = nullptr;
  for (const auto& c : d.enables)
    if (c.successor_name == sspec.name) clause = &c;
  if (clause == nullptr) {
    // The interlock the paper asks for: the ENABLE statement names phases,
    // and the executive verifies that the named phase actually follows.
    diagnose("ENABLE clause does not name the following phase '" + sspec.name +
             "' after phase '" + program_.phase(cur.phase).name +
             "'; overlap suppressed");
    return;
  }
  if (clause->kind == MappingKind::kNull) return;
  if (cur.state == RunState::kComplete) return;
  if (node_pending_run_[*succ_node] != kNoRun) return;  // already set up

  Run& succ = create_run(sd.phase, *succ_node, RunState::kPending);
  node_pending_run_[*succ_node] = succ.id;
  ledger_.charge(MgmtOp::kPhaseInit, costs_);

  // Slab-recycled slot: reset every field (build_pairs keeps its capacity).
  Edge& edge = edge_slab_.acquire();
  edge.cur = cur.id;
  edge.succ = succ.id;
  edge.kind = clause->kind;
  edge.clause = nullptr;
  PAX_DCHECK(edge.cmap == nullptr);
  edge.dead = false;
  edge.build_cursor = 0;
  edge.build_pairs.clear();
  cur.outgoing = &edge;
  succ.incoming = &edge;

  emit({ExecEvent::Kind::kOverlapSetUp, succ.id, succ.phase, {0, succ.total},
        to_string(clause->kind)});

  switch (clause->kind) {
    case MappingKind::kUniversal:
      setup_universal(cur, succ);
      break;
    case MappingKind::kIdentity:
      setup_identity(cur, succ);
      break;
    case MappingKind::kReverseIndirect:
    case MappingKind::kForwardIndirect:
      setup_indirect(cur, succ, *clause, edge);
      break;
    case MappingKind::kNull:
      break;
  }
}

void ExecutiveCore::setup_universal(Run&, Run& succ) {
  // "At the time of phase initiation, the successor phase is also initiated
  // and the resulting computation description placed in the waiting
  // computation queue behind the current phase description."
  Descriptor& root = make_desc(succ, {0, succ.total}, Priority::kNormal);
  waiting_.enqueue(root);
  emit({ExecEvent::Kind::kGranulesEnabled, succ.id, succ.phase, root.range, {}});
}

void ExecutiveCore::setup_identity(Run& cur, Run& succ) {
  PAX_CHECK_MSG(cur.total == succ.total,
                "identity mapping requires equal granule counts");
  // Successor granules whose current counterparts have already completed
  // (the current run may itself have been overlapped) are computable now.
  const Priority prio =
      config_.elevate_released ? Priority::kElevated : Priority::kNormal;
  for (const GranuleRange& range : cur.completed.ranges())
    enqueue_enabled(succ, range, prio);

  // "At the time of phase initiation, the successor phase is also initiated
  // and the resulting computation description placed in the conflicted
  // computation queue of the current phase description."
  // Live current descriptors partition the un-completed granules; each gets
  // a tracking successor piece on its conflict queue. Index iteration over a
  // snapshot length: make_desc appends to succ.live, never to cur.live.
  // A descriptor parked for a fault retry (kHeld in retry_queue_) still owns
  // its range: its successor piece is released by the retry's completion,
  // exactly like an assigned one's, and nothing else would ever enable it.
  auto parked_for_retry = [this](const Descriptor* d) {
    return std::any_of(retry_queue_.begin(), retry_queue_.end(),
                       [d](const RetryEntry& e) { return e.desc == d; });
  };
  const std::size_t n_live = cur.live.size();
  for (std::size_t i = 0; i < n_live; ++i) {
    Descriptor* L = cur.live[i];
    if (L->state != DescState::kWaiting && L->state != DescState::kAssigned &&
        !(L->state == DescState::kHeld && parked_for_retry(L)))
      continue;
    Descriptor& piece = make_desc(succ, L->range, Priority::kNormal);
    piece.tracks_owner = true;
    piece.state = DescState::kConflicted;
    L->conflict_queue.push_back(piece);
    ledger_.charge(MgmtOp::kSuccessorSplit, costs_);
  }
}

void ExecutiveCore::setup_indirect(Run& cur, Run& succ, const EnableClause& clause,
                                   Edge& edge) {
  edge.clause = &clause;
  (void)cur;
  (void)succ;
  if (config_.defer_map_build) {
    // "Get the current phase into execution without the delay of
    // constructing the necessary information for enabling successor
    // computations": the map is built in executive idle time.
    pending_map_builds_.push_back(&edge);
    return;
  }
  materialize_map(edge);
}

void ExecutiveCore::materialize_map(Edge& edge) {
  while (!map_build_step(edge)) {
  }
}

bool ExecutiveCore::map_build_step(Edge& edge) {
  PAX_CHECK(edge.clause != nullptr && edge.cmap == nullptr && !edge.dead);
  const EnableClause& clause = *edge.clause;
  Run& cur = run_of(edge.cur);
  Run& succ = run_of(edge.succ);
  Workspace& ws = *ws_;

  // Optional successor subset: solve the enablement problem only for the
  // first N successor granules (0 = solve everything).
  const GranuleId subset_count =
      (config_.indirect_subset > 0 && config_.indirect_subset < succ.total)
          ? config_.indirect_subset
          : 0;

  const bool reverse = clause.kind == MappingKind::kReverseIndirect;
  // Source domain walked by the builder: the successor granules to solve
  // (reverse direction) or every current granule (forward direction).
  const GranuleId domain =
      reverse ? (subset_count > 0 ? subset_count : succ.total) : cur.total;

  ws.map_newly.clear();
  bool finished = false;

  if (clause.indirection.stable) {
    // Static enablement relation: reuse the cached map, paying only a
    // (vectorised) counter reset.
    CachedMap* cached = nullptr;
    for (CachedMap* c : map_cache_)
      if (c->clause == &clause) cached = c;
    if (cached != nullptr) {
      ledger_.charge(MgmtOp::kMapReset, costs_, (cached->entries + 15) / 16);
      edge.cmap = &cmap_slab_.acquire();
      *edge.cmap = cached->pristine;  // copy-assign: recycled buffers reused
      ws.map_newly.assign(cached->initially_enabled.begin(),
                          cached->initially_enabled.end());
      finished = true;
    }
  }

  if (!finished) {
    // One bounded slice of map construction (at most ~map_build_quantum
    // entries), so the serial executive stays responsive to worker requests
    // while it works ahead.
    std::uint64_t added = 0;
    std::vector<GranuleId>& out = ws.map_out;
    while (edge.build_cursor < domain && added < config_.map_build_quantum) {
      const GranuleId i = edge.build_cursor++;
      out.clear();
      // Exception barrier for user enablement callbacks: a throwing
      // GranuleMapFn degrades this edge to wholesale release at completion
      // instead of killing the process (the map stays unbuilt, which
      // on_run_complete already handles as "never found idle time").
      // note_map_fault must copy e.what() INSIDE the catch — the pointer
      // dangles once the handler destroys the exception object.
      try {
        if (reverse) {
          clause.indirection.requires_of(i, out);
        } else {
          clause.indirection.enables_of(i, out);
        }
      } catch (const std::exception& e) {
        note_map_fault(edge, e.what());
        return true;  // build over; edge degraded, cmap stays null
      } catch (...) {
        note_map_fault(edge, "unknown exception in GranuleMapFn");
        return true;
      }
      if (reverse) {
        for (GranuleId p : out) {
          edge.build_pairs.emplace_back(p, i);
          ++added;
        }
      } else {
        for (GranuleId r : out) {
          edge.build_pairs.emplace_back(i, r);
          ++added;
        }
      }
    }
    if (added > 0) ledger_.charge(MgmtOp::kMapBuildEntry, costs_, added);
    if (edge.build_cursor < domain) return false;  // more slices to go

    std::optional<std::vector<GranuleId>> subset;
    if (subset_count > 0) {
      std::vector<GranuleId> ids(subset_count);
      for (GranuleId i = 0; i < subset_count; ++i) ids[i] = i;
      subset = std::move(ids);
    }
    CompositeBuild built = CompositeGranuleMap::build_from_pairs(
        cur.total, succ.total, std::move(edge.build_pairs), subset);
    edge.build_pairs.clear();
    if (clause.indirection.stable) {
      CachedMap& entry = cache_slab_.acquire();
      entry.clause = &clause;
      entry.pristine = built.map;
      entry.initially_enabled = built.initially_enabled;
      entry.entries = built.entries;
      map_cache_.push_back(&entry);
    }
    edge.cmap = &cmap_slab_.acquire();
    *edge.cmap = std::move(built.map);
    ws.map_newly.assign(built.initially_enabled.begin(),
                        built.initially_enabled.end());
  }

  CompositeGranuleMap& m = *edge.cmap;

  // Replay granules the current run completed before the map existed.
  std::uint64_t updates = 0;
  for (const GranuleRange& range : cur.completed.ranges())
    for (GranuleId g = range.lo; g < range.hi; ++g)
      updates += m.on_complete(g, ws.map_newly);
  if (updates > 0) ledger_.charge(MgmtOp::kCounterUpdate, costs_, updates);

  const Priority prio =
      config_.elevate_released ? Priority::kElevated : Priority::kNormal;
  if (!ws.map_newly.empty()) {
    std::sort(ws.map_newly.begin(), ws.map_newly.end());
    ws.map_newly.erase(std::unique(ws.map_newly.begin(), ws.map_newly.end()),
                       ws.map_newly.end());
    coalesce_sorted_into(ws.map_newly, ws.ranges);
    for (const GranuleRange& range : ws.ranges)
      enqueue_enabled(succ, range, prio);
  }

  // "they should be split into individual descriptions and placed in the
  // waiting computation queue in such a manner as to elevate their
  // computational priority" — only meaningful with a successor subset;
  // without one every current granule participates and order is moot. The
  // elevation is bounded by the subset size: enabling the first successor
  // granules early needs only the earliest enabling granules, and carving
  // more individual descriptions than that is pure management waste.
  if (config_.elevate_enabling && subset_count > 0) {
    const auto& order = m.preferred_order();
    const std::size_t limit =
        std::min(order.size(), static_cast<std::size_t>(subset_count));
    extract_elevated(cur, std::span<const GranuleId>(order.data(), limit));
  }
  return true;
}

void ExecutiveCore::extract_elevated(Run& r, std::span<const GranuleId> order) {
  if (order.empty()) return;
  Workspace& ws = *ws_;

  // Locate every requested granule's hosting *waiting* descriptor via one
  // sorted snapshot (assigned/completed granules are already running or done
  // and need no elevation); a per-granule scan of the live list would be
  // quadratic in the number of fragments.
  std::vector<Descriptor*>& hosts = ws.hosts;
  hosts.clear();
  for (Descriptor* d : r.live)
    if (d->state == DescState::kWaiting && d->priority == Priority::kNormal)
      hosts.push_back(d);
  std::sort(hosts.begin(), hosts.end(), [](const Descriptor* a, const Descriptor* b) {
    return a->range.lo < b->range.lo;
  });

  auto host_of = [&](GranuleId g) -> Descriptor* {
    std::size_t lo = 0, hi = hosts.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (hosts[mid]->range.hi <= g) {
        lo = mid + 1;
      } else if (hosts[mid]->range.lo > g) {
        hi = mid;
      } else {
        return hosts[mid];
      }
    }
    return nullptr;
  };

  // Group requested granules by host, ascending within each host. Hosts are
  // ordered by their (disjoint) range starts, NOT by pointer: descriptor
  // addresses vary run to run, and a pointer-ordered sort here made the
  // rebuild order — and with it the whole downstream schedule — depend on
  // heap layout (caught by the seeded stress harness as a sim run that was
  // not bit-reproducible).
  std::vector<std::pair<Descriptor*, GranuleId>>& grouped = ws.grouped;
  grouped.clear();
  for (GranuleId g : order) {
    if (r.completed.contains(g)) continue;
    Descriptor* host = host_of(g);
    if (host == nullptr) continue;  // assigned, elevated, or already carved
    grouped.emplace_back(host, g);
  }
  std::sort(grouped.begin(), grouped.end(),
            [](const std::pair<Descriptor*, GranuleId>& a,
               const std::pair<Descriptor*, GranuleId>& b) {
              if (a.first->range.lo != b.first->range.lo)
                return a.first->range.lo < b.first->range.lo;
              return a.second < b.second;
            });
  grouped.erase(std::unique(grouped.begin(), grouped.end()), grouped.end());

  // Rebuild each host: normal segments stay in the waiting queue, requested
  // granules become individual descriptors held for elevation. These hosts
  // carry no conflict waiters (only identity edges attach those, and a run
  // has a single outgoing edge — the indirect one being materialised).
  std::vector<std::pair<GranuleId, Descriptor*>>& carved = ws.carved;
  carved.clear();
  std::size_t i = 0;
  while (i < grouped.size()) {
    Descriptor* host = grouped[i].first;
    PAX_CHECK_MSG(host->conflict_queue.empty(),
                  "elevation host has tracked successors");
    if (host->pending_split != nullptr) force_pending_split(*host);
    const GranuleRange whole = host->range;
    GranuleId cursor = whole.lo;
    waiting_.remove(*host);
    while (i < grouped.size() && grouped[i].first == host) {
      const GranuleId g = grouped[i].second;
      ++i;
      if (g > cursor) {
        Descriptor& seg = make_desc(r, {cursor, g}, Priority::kNormal);
        waiting_.enqueue(seg);
        ledger_.charge(MgmtOp::kSplit, costs_);
      }
      Descriptor& piece = make_desc(r, {g, g + 1}, Priority::kNormal);
      piece.state = DescState::kHeld;  // parked until the enqueue pass below
      carved.emplace_back(g, &piece);
      ledger_.charge(MgmtOp::kSplit, costs_);
      cursor = g + 1;
    }
    if (cursor < whole.hi) {
      Descriptor& seg = make_desc(r, {cursor, whole.hi}, Priority::kNormal);
      waiting_.enqueue(seg);
    }
    retire_desc(*host);
  }

  // Enqueue the carved granules in the caller's preferred dispatch order.
  std::sort(carved.begin(), carved.end());
  std::vector<std::uint8_t>& used = ws.used;
  used.assign(carved.size(), 0);
  for (GranuleId g : order) {
    auto it = std::lower_bound(carved.begin(), carved.end(),
                               std::make_pair(g, static_cast<Descriptor*>(nullptr)));
    if (it == carved.end() || it->first != g) continue;
    const auto idx = static_cast<std::size_t>(it - carved.begin());
    if (used[idx]) continue;
    used[idx] = 1;
    Descriptor* piece = it->second;
    piece->priority = Priority::kElevated;
    waiting_.enqueue(*piece);
    emit({ExecEvent::Kind::kGranulesEnabled, piece->run, piece->phase, piece->range,
          "elevated"});
  }
}

void ExecutiveCore::run_serial(std::uint32_t node_index, const SerialNode& s) {
  ledger_.charge(MgmtOp::kSerialAction, costs_);
  if (s.sim_duration > 0) ledger_.charge_raw(MgmtOp::kSerialAction, s.sim_duration);
  if (s.action) s.action(env_);
  emit({ExecEvent::Kind::kSerialExecuted, kNoRun, kNoPhase, {}, s.name});
  (void)node_index;
}

// ---------------------------------------------------------------------------
// Introspection

std::vector<ExecutiveCore::RunInfo> ExecutiveCore::runs() const {
  std::vector<RunInfo> out;
  out.reserve(runs_.size());
  for (const Run* r : runs_)
    out.push_back({r->id, r->phase, r->node, r->state, r->total, r->completed_count});
  return out;
}

}  // namespace pax
