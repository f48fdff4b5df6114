// Dispatch-layer tests: local run-queue geometry (owner LIFO / thief FIFO),
// dispatcher refill-retire edge cases in their new home (empty-batch retire,
// refill returning zero while peers hold work, adaptive grain), threaded and
// pool integration with stealing on, and cancellation observed mid-batch.
// The suite runs in the TSAN CI matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "pool/pool_runtime.hpp"
#include "runtime/happens_before.hpp"
#include "runtime/threaded_runtime.hpp"
#include "sched/dispatcher.hpp"

namespace pax {
namespace {

// --- LocalRunQueue geometry --------------------------------------------------

Assignment asg(Ticket t) {
  Assignment a;
  a.ticket = t;
  return a;
}

TEST(LocalRunQueue, OwnerPopsLifoThievesTakeFifo) {
  sched::LocalRunQueue q(4);
  EXPECT_TRUE(q.push(asg(0)));
  EXPECT_TRUE(q.push(asg(1)));
  EXPECT_TRUE(q.push(asg(2)));
  EXPECT_EQ(q.size(), 3u);

  Assignment a;
  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 2u);  // LIFO end: most recent push

  std::vector<Assignment> loot;
  EXPECT_EQ(q.steal(8, loot), 1u);  // half of 2, rounded up
  ASSERT_EQ(loot.size(), 1u);
  EXPECT_EQ(loot[0].ticket, 0u);  // FIFO end: oldest push

  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 1u);
  EXPECT_FALSE(q.pop(a));
  EXPECT_EQ(q.peak(), 3u);
}

TEST(LocalRunQueue, CapacityBoundsAndWraparound) {
  sched::LocalRunQueue q(2);
  EXPECT_TRUE(q.push(asg(0)));
  EXPECT_TRUE(q.push(asg(1)));
  EXPECT_FALSE(q.push(asg(2)));  // full

  // Drain from the front so head wraps, then reuse the ring.
  std::vector<Assignment> loot;
  EXPECT_EQ(q.steal(2, loot), 1u);
  Assignment a;
  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 1u);
  EXPECT_TRUE(q.push(asg(3)));
  EXPECT_TRUE(q.push(asg(4)));
  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 4u);
  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 3u);
}

TEST(LocalRunQueue, BulkPushReversedIsAllOrNothing) {
  sched::LocalRunQueue q(3);
  std::vector<Assignment> batch{asg(0), asg(1)};
  EXPECT_TRUE(q.push_reversed(batch));
  Assignment a;
  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 0u);  // reversed push: pop order == buffer order
  EXPECT_TRUE(q.push(asg(9)));
  // Two slots free, three wanted: nothing is pushed.
  std::vector<Assignment> big{asg(2), asg(3), asg(4)};
  EXPECT_FALSE(q.push_reversed(big));
  EXPECT_EQ(q.size(), 2u);
  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 9u);
  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 1u);
}

TEST(LocalRunQueue, StealTakesHalfRoundedUp) {
  sched::LocalRunQueue q(8);
  for (Ticket t = 0; t < 5; ++t) ASSERT_TRUE(q.push(asg(t)));
  std::vector<Assignment> loot;
  EXPECT_EQ(q.steal(8, loot), 3u);  // (5+1)/2
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(loot[0].ticket, 0u);
  EXPECT_EQ(loot[2].ticket, 2u);
}

// --- Dispatcher refill/steal, driven deterministically -----------------------

struct SinglePhase {
  PhaseProgram prog;
  PhaseId p = kNoPhase;
};

SinglePhase make_single_phase(GranuleId n) {
  SinglePhase s;
  s.p = s.prog.define_phase(make_phase("p", n).writes("X"));
  s.prog.dispatch(s.p);
  s.prog.halt();
  return s;
}

TEST(Dispatcher, EmptyBatchRetireIsANoOp) {
  SinglePhase s = make_single_phase(4);
  ExecConfig cfg;
  cfg.grain = 1;
  ExecutiveCore core(s.prog, cfg);
  core.start();

  sched::Dispatcher d({/*workers=*/1, /*batch=*/8, 0, true, true});
  std::vector<Ticket> done;  // empty: nothing to retire on the first trip
  const sched::RefillOutcome first = d.refill(core, 0, done);
  EXPECT_EQ(first.refilled, 4u);
  EXPECT_FALSE(first.completion.new_work);

  // Queue still full, executive dry: a second refill retires nothing and
  // pulls nothing, without disturbing the queued assignments.
  const sched::RefillOutcome second = d.refill(core, 0, done);
  EXPECT_EQ(second.refilled, 0u);
  EXPECT_EQ(d.occupancy(0), 4u);
}

TEST(Dispatcher, RefillPreservesExecutiveHandoutOrder) {
  SinglePhase s = make_single_phase(6);
  ExecConfig cfg;
  cfg.grain = 2;
  ExecutiveCore core(s.prog, cfg);
  core.start();

  sched::Dispatcher d({1, 8, 0, true, false});
  std::vector<Ticket> done;
  ASSERT_EQ(d.refill(core, 0, done).refilled, 3u);
  Assignment a;
  GranuleId expect_lo = 0;
  while (d.pop_local(0, a)) {
    EXPECT_EQ(a.range.lo, expect_lo);  // owner pop order == handout order
    expect_lo = a.range.hi;
  }
  EXPECT_EQ(expect_lo, 6u);
}

TEST(Dispatcher, StealCoversRefillReturningZeroWhilePeersHoldWork) {
  SinglePhase s = make_single_phase(8);
  ExecConfig cfg;
  cfg.grain = 1;
  ExecutiveCore core(s.prog, cfg);
  core.start();

  sched::Dispatcher d({/*workers=*/2, /*batch=*/8, 0, true, true});
  std::vector<Ticket> done0, done1;
  // Worker 0 over-refills: the whole phase lands in its local queue.
  ASSERT_EQ(d.refill(core, 0, done0).refilled, 8u);
  // Worker 1's refill returns zero — the executive is dry — while its peer
  // holds every assignment: the exact situation stealing exists for.
  const sched::RefillOutcome rr = d.refill(core, 1, done1);
  EXPECT_EQ(rr.refilled, 0u);
  EXPECT_FALSE(core.work_available());
  EXPECT_FALSE(core.finished());
  EXPECT_TRUE(d.stealable_by(1));
  EXPECT_TRUE(d.any_local_work());

  const std::size_t got = d.try_steal(1);
  EXPECT_EQ(got, 4u);  // half of the victim's queue
  EXPECT_EQ(d.occupancy(1), 4u);
  EXPECT_EQ(d.occupancy(0), 4u);

  // Drive both "workers" to completion single-threadedly through the same
  // pop/retire cycle the runtimes use.
  rt::BodyTable bodies;
  bodies.set(s.p, [](GranuleRange, WorkerId) {});
  sched::BodyLoopStats stats;
  for (int rounds = 0; rounds < 8 && !core.finished(); ++rounds) {
    d.drain_local(bodies, 0, done0, stats);
    d.refill(core, 0, done0);
    d.drain_local(bodies, 1, done1, stats);
    d.refill(core, 1, done1);
  }
  EXPECT_TRUE(core.finished());
  EXPECT_EQ(stats.granules, 8u);
  EXPECT_FALSE(d.any_local_work());
}

TEST(Dispatcher, StealRateSignalHalvesEffectiveGrain) {
  SinglePhase s = make_single_phase(64);
  ExecConfig cfg;
  cfg.grain = 16;
  ExecutiveCore core(s.prog, cfg);
  core.start();

  sched::Dispatcher d({2, 4, 0, true, true});  // window = 16 events
  std::vector<Ticket> done;
  ASSERT_GT(d.refill(core, 0, done).refilled, 1u);
  EXPECT_EQ(core.effective_grain(), 16u);

  // Ping-pong one steal per event: a window of pure steals must raise the
  // grain shift, and the next refill applies it to the core.
  for (int i = 0; i < 40; ++i) {
    if (d.try_steal(1) == 0) {
      ASSERT_GT(d.try_steal(0), 0u);
    }
  }
  EXPECT_GT(d.grain_shift(), 0u);
  d.refill(core, 1, done);
  EXPECT_LT(core.effective_grain(), 16u);
  EXPECT_GE(core.effective_grain(), 1u);
}

TEST(ExecutiveGrainLimit, ConcurrentPublishIsRaceFree) {
  // Regression for the grain-limit data race: the steal-rate signal
  // publishes the limit with NO executive lock held (the sharded refill
  // path), while the request path reads it inside a control section. Before
  // the limit became an atomic this was a plain load/store race — TSAN
  // (which runs this suite in CI) flagged it; now it must be clean, and
  // every carve must respect *some* published clamp [1, grain].
  SinglePhase s = make_single_phase(4096);
  ExecConfig cfg;
  cfg.grain = 8;
  ExecutiveCore core(s.prog, cfg);
  core.start();

  std::atomic<bool> stop{false};
  std::jthread publisher([&] {
    GranuleId g = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      core.set_grain_limit(g);
      g = g % 8 + 1;
      (void)core.effective_grain();
    }
  });
  for (int i = 0; i < 2000; ++i) {
    const auto a = core.request_work(0);
    if (!a.has_value()) break;
    ASSERT_GE(a->range.size(), 1u);
    ASSERT_LE(a->range.size(), 8u);  // never exceeds the configured grain
    core.complete(a->ticket);
  }
  stop.store(true, std::memory_order_relaxed);
}

TEST(ExecutiveGrainLimit, ClampsAndResets) {
  SinglePhase s = make_single_phase(32);
  ExecConfig cfg;
  cfg.grain = 8;
  ExecutiveCore core(s.prog, cfg);
  EXPECT_EQ(core.configured_grain(), 8u);
  EXPECT_EQ(core.effective_grain(), 8u);
  core.set_grain_limit(2);
  EXPECT_EQ(core.effective_grain(), 2u);
  core.set_grain_limit(100);  // never exceeds the configured grain
  EXPECT_EQ(core.effective_grain(), 8u);
  core.set_grain_limit(2);
  core.set_grain_limit(0);  // reset
  EXPECT_EQ(core.effective_grain(), 8u);

  core.start();
  core.set_grain_limit(2);
  const auto a = core.request_work(0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->range.size(), 2u);  // carved at the limit, not the grain
}

// --- sharded executive front-end (deterministic, single-threaded) ------------

TEST(ShardedExecutive, SweepScattersAndSiblingsServeWithoutControl) {
  SinglePhase s = make_single_phase(32);
  ExecConfig cfg;
  cfg.grain = 1;
  ShardedExecutive ex(s.prog, cfg, CostModel::free_of_charge(),
                      {.shards = 2, .workers = 2, .batch = 4});
  EXPECT_EQ(ex.shards(), 2u);
  ex.start();
  EXPECT_TRUE(ex.work_available());

  // Worker 0's first acquire falls through to a control sweep: it pulls its
  // own batch and re-scatters the shard buffers (depth = batch = 4 each).
  std::vector<Ticket> done;
  std::vector<Assignment> out0;
  const ShardAcquire a0 = ex.acquire(0, 4, done, out0);
  EXPECT_TRUE(a0.swept);
  EXPECT_EQ(a0.taken, 4u);
  EXPECT_TRUE(a0.new_work);  // the scatter made work visible to peers
  const ShardStatsView after_sweep = ex.stats();
  EXPECT_EQ(after_sweep.scattered, 8u);  // both shards topped to depth

  // Worker 1's home shard was filled by that sweep: a pure shard-buffer hit,
  // no control-mutex section.
  std::vector<Assignment> out1;
  const ShardAcquire a1 = ex.acquire(1, 2, done, out1);
  EXPECT_FALSE(a1.swept);
  EXPECT_EQ(a1.taken, 2u);
  const ShardStatsView after_hit = ex.stats();
  EXPECT_EQ(after_hit.control_acquisitions, after_sweep.control_acquisitions);
  EXPECT_EQ(after_hit.shard_hits, 1u);

  // Worker 0 drains its home buffer, then its sibling's remainder before the
  // next sweep (sibling hit).
  std::vector<Assignment> out2;
  (void)ex.acquire(0, 32, done, out2);
  std::vector<Assignment> out3;
  const ShardAcquire a3 = ex.acquire(0, 32, done, out3);
  EXPECT_FALSE(a3.swept);
  EXPECT_GT(a3.taken, 0u);
  EXPECT_EQ(ex.stats().sibling_hits, 1u);
  ex.check_census();
}

TEST(ShardedExecutive, DepositsRetireInOneCoalescedSweep) {
  SinglePhase s = make_single_phase(16);
  ExecConfig cfg;
  cfg.grain = 1;
  ShardedExecutive ex(s.prog, cfg, CostModel::free_of_charge(),
                      {.shards = 2, .workers = 2, .batch = 2, .flush = 64});
  ex.start();

  // Hand out everything across both "workers".
  std::vector<Ticket> done0, done1;
  std::vector<Assignment> all;
  while (true) {
    std::vector<Assignment> buf;
    const ShardAcquire a = ex.acquire(0, 4, done0, buf);
    const ShardAcquire b = ex.acquire(1, 4, done1, buf);
    all.insert(all.end(), buf.begin(), buf.end());
    if (a.taken + b.taken == 0) break;
  }
  EXPECT_EQ(all.size(), 16u);

  // Both workers deposit half the tickets each; the flush threshold (64) is
  // never crossed, so retirement waits for the dry-probe sweep.
  for (std::size_t i = 0; i < all.size(); ++i)
    (i % 2 == 0 ? done0 : done1).push_back(all[i].ticket);
  std::vector<Assignment> unused;
  ShardAcquire d0 = ex.acquire(0, 0, done0, unused);  // deposit only
  EXPECT_TRUE(done0.empty());
  EXPECT_FALSE(ex.finished());
  // Worker 1 deposits and its dry acquire sweeps BOTH shards' boxes in one
  // control section — the last retire finishes the program.
  ShardAcquire d1 = ex.acquire(1, 4, done1, unused);
  EXPECT_TRUE(ex.finished());
  EXPECT_TRUE(d0.swept || d1.swept);
  EXPECT_EQ(ex.stats().deposits, 16u);
  ex.check_census();
}

TEST(ShardedExecutive, ElevatedReleaseOutranksBufferedNormalWork) {
  // A conflicting computation released at elevated priority must not wait
  // behind pre-carved normal work sitting in a shard buffer: the census
  // flags the elevated entry and the next acquire sweeps instead of taking
  // the buffer.
  PhaseProgram prog;
  const PhaseId p = prog.define_phase(make_phase("p", 24).writes("X"));
  const PhaseId q = prog.define_phase(make_phase("q", 4).reads("X").writes("Z"));
  prog.dispatch(p);
  prog.halt();

  ExecConfig cfg;
  cfg.grain = 1;
  ShardedExecutive ex(prog, cfg, CostModel::free_of_charge(),
                      {.shards = 2, .workers = 2, .batch = 4});
  ex.start();
  std::vector<Ticket> done;
  std::vector<Assignment> out;
  (void)ex.acquire(0, 2, done, out);  // sweep: buffers now hold normal work

  // Retire the first two assignments, completing... not the run; then submit
  // conflicting work against run 0 — released immediately *iff* complete.
  // Run 0 is still open, so the work parks on its barrier; finish the run.
  ex.submit_conflicting(0, q, {0, 4});
  while (!ex.finished()) {
    for (const Assignment& a : out) done.push_back(a.ticket);
    out.clear();
    const ShardAcquire a = ex.acquire(0, 4, done, out);
    if (a.taken == 0 && out.empty() && ex.finished()) break;
    // Once the elevated release fires, it must be handed out ahead of any
    // still-buffered normal work.
    for (const Assignment& got : out)
      if (got.priority == Priority::kElevated) {
        EXPECT_EQ(got.phase, q);
      }
    if (out.empty() && a.taken == 0) break;
  }
  EXPECT_TRUE(ex.finished());
  ex.check_census();
}

TEST(Dispatcher, SingleShardRefillMatchesDirectCoreProtocol) {
  // shards = 1 must reproduce the PR 3 protocol exactly: same handout
  // ranges in the same order, one control section per refill.
  SinglePhase s1 = make_single_phase(24);
  SinglePhase s2 = make_single_phase(24);
  ExecConfig cfg;
  cfg.grain = 4;

  ExecutiveCore core(s1.prog, cfg);
  core.start();
  sched::Dispatcher d_direct({1, 4, 0, false, false});
  ShardedExecutive ex(s2.prog, cfg, CostModel::free_of_charge(),
                      {.shards = 1, .workers = 1, .batch = 4});
  ex.start();
  sched::Dispatcher d_shard({1, 4, 0, false, false});

  rt::BodyTable bodies;
  bodies.set(s1.p, [](GranuleRange, WorkerId) {});

  std::vector<Ticket> done_a, done_b;
  sched::BodyLoopStats stats;
  for (int round = 0; round < 16 && !(core.finished() && ex.finished());
       ++round) {
    const sched::RefillOutcome ra = d_direct.refill(core, 0, done_a);
    const sched::RefillOutcome rb = d_shard.refill(ex, 0, done_b);
    EXPECT_EQ(ra.refilled, rb.refilled);
    Assignment a, b;
    std::vector<std::pair<GranuleId, GranuleId>> seq_a, seq_b;
    while (d_direct.pop_local(0, a)) {
      seq_a.emplace_back(a.range.lo, a.range.hi);
      done_a.push_back(a.ticket);
    }
    while (d_shard.pop_local(0, b)) {
      seq_b.emplace_back(b.range.lo, b.range.hi);
      done_b.push_back(b.ticket);
    }
    EXPECT_EQ(seq_a, seq_b) << "handout diverged in round " << round;
  }
  EXPECT_TRUE(core.finished());
  EXPECT_TRUE(ex.finished());
}

// --- measured refill size (kAutoBatch) --------------------------------------

TEST(RefillTarget, OneBeforeEitherMeanHasASample) {
  EXPECT_EQ(sched::refill_target(4, 0.0, 0.0), 1u);
  EXPECT_EQ(sched::refill_target(4, 0.0, 500.0), 1u);  // no control sample
  EXPECT_EQ(sched::refill_target(4, 500.0, 0.0), 1u);  // no body sample
}

TEST(RefillTarget, ClampedToOneAndTheQueueCap) {
  // ceil(workers * S / b) inside the clamp.
  EXPECT_EQ(sched::refill_target(4, 250.0, 100.0), 10u);
  EXPECT_EQ(sched::refill_target(1, 100.0, 100.0), 1u);
  EXPECT_EQ(sched::refill_target(2, 101.0, 100.0), 3u);
  // Expensive bodies: never below one assignment.
  EXPECT_EQ(sched::refill_target(4, 1.0, 1e9), 1u);
  // Cheap bodies behind a slow control plane: never past the queue cap.
  EXPECT_EQ(sched::refill_target(4, 1e9, 1.0), sched::kAutoRefillMax);
  EXPECT_EQ(sched::refill_target(4, 1e6, 1e-6), sched::kAutoRefillMax);
}

TEST(RefillTarget, MonotoneInControlToBodyRatio) {
  for (std::uint32_t workers : {1u, 2u, 4u, 8u}) {
    std::size_t prev = 0;
    for (double ratio = 1e-3; ratio < 1e3; ratio *= 1.25) {
      const std::size_t t = sched::refill_target(workers, ratio * 100.0, 100.0);
      EXPECT_GE(t, prev) << "workers " << workers << " ratio " << ratio;
      EXPECT_GE(t, 1u);
      EXPECT_LE(t, sched::kAutoRefillMax);
      prev = t;
    }
    EXPECT_EQ(prev, sched::kAutoRefillMax);
  }
}

TEST(Dispatcher, AutoBatchRefillStartsAtOneThenFollowsMeasuredCost) {
  SinglePhase s = make_single_phase(256);
  ExecConfig cfg;
  cfg.grain = 1;
  sched::Dispatcher d({.workers = 2, .batch = kAutoBatch});
  EXPECT_EQ(d.capacity(), std::size_t{sched::kAutoRefillMax});
  ShardedExecutive ex(s.prog, cfg, CostModel::free_of_charge(),
                      {.shards = 2, .workers = 2, .batch = 32});
  ex.start();

  // No body sample yet: one assignment, whatever the control plane costs.
  std::vector<Ticket> done;
  EXPECT_EQ(d.refill(ex, 0, done).refilled, 1u);
  EXPECT_GT(ex.mean_control_ns(), 0.0);  // start() and the sweep were timed
  auto drain = [&] {
    Assignment a;
    while (d.pop_local(0, a)) done.push_back(a.ticket);
  };

  // Bodies far dearer than a control section: still one at a time.
  drain();
  sched::BodyLoopStats dear;
  dear.busy = std::chrono::hours{1};
  dear.tasks = 1;
  EXPECT_EQ(d.refill(ex, 0, done, dear).refilled, 1u);

  // Bodies far cheaper: a bulk refill, bounded by the queue cap (the home
  // ring holds one scatter depth, 32).
  drain();
  sched::BodyLoopStats cheap;
  cheap.busy = std::chrono::nanoseconds{1};
  cheap.tasks = 1000;
  const sched::RefillOutcome bulk = d.refill(ex, 0, done, cheap);
  EXPECT_GT(bulk.refilled, 1u);
  EXPECT_LE(bulk.refilled, std::size_t{sched::kAutoRefillMax});
  EXPECT_EQ(d.occupancy(0), bulk.refilled);
}

TEST(ShardedExecutiveDeathTest, RejectsUnresolvedAutoBatch) {
  // The sentinel sizes refills in the runtime; as a shard geometry it would
  // size the rings for four billion tickets per worker.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SinglePhase s = make_single_phase(8);
  EXPECT_DEATH(ShardedExecutive(s.prog, ExecConfig{}, CostModel::free_of_charge(),
                                {.workers = 2, .batch = kAutoBatch}),
               "kAutoBatch is resolved by the threaded runtime");
}

// --- threaded runtime with stealing on ---------------------------------------

TEST(RtSteal, TailHeavyRunStealsAndStaysCorrect) {
  // Ramped granule cost: the last refill holds the most expensive work, so
  // peers go dry and steal. Identity enablement must still hold.
  const GranuleId n = 256;
  PhaseProgram prog;
  PhaseId a = prog.define_phase(make_phase("a", n).writes("X"));
  PhaseId b = prog.define_phase(make_phase("b", n).reads("X").writes("Y"));
  prog.dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  prog.dispatch(b);
  prog.halt();

  rt::HappensBeforeRecorder rec(2, n);
  std::atomic<std::uint64_t> sink{0};
  rt::BodyTable bodies;
  bodies.set(a, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(0, g);
      std::uint64_t acc = 0;
      for (GranuleId i = 0; i < 200 + g * 8; ++i) acc += i * g;
      sink.fetch_add(acc, std::memory_order_relaxed);
      rec.on_finish(0, g);
    }
  });
  bodies.set(b, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(1, g);
      rec.on_finish(1, g);
    }
  });

  ExecConfig cfg;
  cfg.grain = 8;
  rt::RtConfig rc;
  rc.workers = 4;
  rc.batch = 8;  // capacity 16: over-refill leaves stealable slack
  const rt::RtResult res =
      rt::ThreadedRuntime(prog, cfg, CostModel::free_of_charge(), bodies, rc).run();

  EXPECT_EQ(res.granules_executed, 2u * n);
  EXPECT_EQ(res.exec_lock_acquisitions,
            res.refill_lock_acquisitions + res.wait_lock_acquisitions);
  EXPECT_GT(res.peak_local_queue, 1u);
  for (GranuleId g = 0; g < n; ++g) {
    ASSERT_TRUE(rec.executed(0, g));
    ASSERT_TRUE(rec.executed(1, g));
    EXPECT_LT(rec.finish_ticket(0, g), rec.start_ticket(1, g))
        << "identity enablement violated at granule " << g;
  }
}

TEST(RtSteal, SingleWorkerNeverSteals) {
  SinglePhase s = make_single_phase(64);
  rt::BodyTable bodies;
  bodies.set(s.p, [](GranuleRange, WorkerId) {});
  ExecConfig cfg;
  cfg.grain = 4;
  rt::RtConfig rc;
  rc.workers = 1;
  rc.batch = 4;
  const rt::RtResult res =
      rt::ThreadedRuntime(s.prog, cfg, CostModel::free_of_charge(), bodies, rc)
          .run();
  EXPECT_EQ(res.granules_executed, 64u);
  EXPECT_EQ(res.steals, 0u);
  EXPECT_EQ(res.steal_fail_spins, 0u);
}

// --- pool integration --------------------------------------------------------

TEST(PoolSteal, StealsSumAcrossJobsAndStatsStayConsistent) {
  // Imbalanced jobs on a stealing pool: whatever steals happen, worker-side
  // and job-side accounting must agree exactly.
  pool::PoolRuntime pool({.workers = 4, .batch = 8});
  std::atomic<std::uint64_t> sink{0};

  SinglePhase progs[3] = {make_single_phase(96), make_single_phase(96),
                          make_single_phase(96)};
  std::vector<rt::BodyTable> bodies(3);
  for (int j = 0; j < 3; ++j)
    bodies[j].set(progs[j].p, [&sink](GranuleRange r, WorkerId) {
      std::uint64_t acc = 0;
      for (GranuleId g = r.lo; g < r.hi; ++g)
        for (GranuleId i = 0; i < 100 + g * 4; ++i) acc += i;
      sink.fetch_add(acc, std::memory_order_relaxed);
    });

  ExecConfig cfg;
  cfg.grain = 8;
  std::vector<pool::JobHandle> handles;
  for (int j = 0; j < 3; ++j)
    handles.push_back(pool.submit(progs[j].prog, bodies[j], cfg));
  for (auto& h : handles) EXPECT_EQ(h.wait(), pool::JobState::kComplete);
  pool.shutdown();

  const pool::PoolStats ps = pool.stats();
  std::uint64_t job_granules = 0, job_steals = 0;
  for (auto& h : handles) {
    job_granules += h.stats().granules;
    job_steals += h.stats().steals;
  }
  EXPECT_EQ(job_granules, 3u * 96u);
  EXPECT_EQ(ps.granules_executed, job_granules);
  EXPECT_EQ(ps.steals, job_steals);
  EXPECT_EQ(ps.jobs_completed, 3u);
}

TEST(PoolSteal, NoStealPoolSleepsWhilePeerHoldsLocalWork) {
  // Regression: with stealing off, a job whose only work sits in a pinned
  // peer's local queue must NOT count as runnable — an adopter could
  // neither steal nor refill and would busy-spin re-adopting it. The idle
  // worker has to sleep, so job-lock acquisitions stay small.
  pool::PoolRuntime pool({.workers = 2, .batch = 4, .steal = false});
  SinglePhase s = make_single_phase(4);
  std::atomic<bool> gate{false};
  std::atomic<bool> started{false};
  rt::BodyTable bodies;
  bodies.set(s.p, [&](GranuleRange, WorkerId) {
    started.store(true, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  ExecConfig cfg;
  cfg.grain = 1;  // 4 assignments: the owner's queue stays loaded while pinned
  pool::JobHandle h = pool.submit(s.prog, bodies, cfg);
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // spin window
  gate.store(true, std::memory_order_release);
  EXPECT_EQ(h.wait(), pool::JobState::kComplete);
  pool.shutdown();
  // A busy-spinning adopter racks up hundreds of thousands of acquisitions
  // in 50 ms; a sleeping one leaves a handful per worker.
  EXPECT_LT(pool.stats().exec_lock_acquisitions, 1000u);
}

TEST(PoolSteal, CancellationObservedMidBatch) {
  // One worker, resident mid-batch on a gated job A when job B is cancelled:
  // B must report cancelled with zero stats, A must run to completion, and
  // the pool must drain cleanly.
  pool::PoolRuntime pool({.workers = 1, .batch = 4});
  SinglePhase a = make_single_phase(8);
  SinglePhase b = make_single_phase(8);

  std::atomic<bool> gate{false};
  std::atomic<bool> a_started{false};
  std::atomic<std::uint32_t> a_granules{0};
  rt::BodyTable a_bodies;
  a_bodies.set(a.p, [&](GranuleRange r, WorkerId) {
    a_started.store(true, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
    a_granules += r.size();
  });
  rt::BodyTable b_bodies;
  b_bodies.set(b.p, [](GranuleRange, WorkerId) { FAIL() << "cancelled job ran"; });

  ExecConfig cfg;
  cfg.grain = 2;  // several assignments per batch: the cancel lands mid-batch
  pool::JobHandle ha = pool.submit(a.prog, a_bodies, cfg);
  while (!a_started.load(std::memory_order_acquire)) std::this_thread::yield();
  pool::JobHandle hb = pool.submit(b.prog, b_bodies, cfg);
  EXPECT_TRUE(hb.cancel());  // the only worker is pinned inside A's batch
  EXPECT_EQ(hb.state(), pool::JobState::kCancelled);
  gate.store(true, std::memory_order_release);

  EXPECT_EQ(ha.wait(), pool::JobState::kComplete);
  pool.shutdown();

  EXPECT_EQ(a_granules.load(), 8u);
  EXPECT_EQ(hb.stats().granules, 0u);
  EXPECT_EQ(hb.stats().steals, 0u);
  const pool::PoolStats ps = pool.stats();
  EXPECT_EQ(ps.jobs_cancelled, 1u);
  EXPECT_EQ(ps.jobs_completed, 1u);
  EXPECT_EQ(ps.granules_executed, 8u);
}

}  // namespace
}  // namespace pax
