// Pool runtime tests: K concurrent jobs complete with exact accounting,
// scheduling policies (including EDF) order rotations as documented,
// cancel-before-open and true mid-run cancellation on both shard engines,
// admission control / kRejected, deadline accounting, timed waits, handles
// that outlive the pool, the done() => stats()-final terminal contract, and
// enablement order for a job executed through the shared pool. Runs under
// ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "pool/pool_runtime.hpp"
#include "runtime/happens_before.hpp"

namespace pax::pool {
namespace {

// --- program builders (programs/bodies outlive the jobs: test scope) --------

struct SinglePhase {
  PhaseProgram prog;
  PhaseId p = kNoPhase;
};

SinglePhase make_single_phase(GranuleId n) {
  SinglePhase s;
  s.p = s.prog.define_phase(make_phase("only", n).writes("O"));
  s.prog.dispatch(s.p);
  s.prog.halt();
  return s;
}

struct TwoPhase {
  PhaseProgram prog;
  PhaseId a = kNoPhase;
  PhaseId b = kNoPhase;
};

TwoPhase make_two_phase_identity(GranuleId n) {
  TwoPhase s;
  s.a = s.prog.define_phase(make_phase("a", n).writes("X"));
  s.b = s.prog.define_phase(make_phase("b", n).reads("X").writes("Y"));
  s.prog.dispatch(s.a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  s.prog.dispatch(s.b);
  s.prog.halt();
  return s;
}

struct LoopProg {
  PhaseProgram prog;
  std::vector<PhaseId> phases;
};

LoopProg make_loop(GranuleId n, int iters) {
  LoopProg s;
  PhaseId a = s.prog.define_phase(make_phase("a", n).writes("A"));
  PhaseId b = s.prog.define_phase(make_phase("b", n).reads("A").writes("B"));
  PhaseId c = s.prog.define_phase(make_phase("c", n).reads("B").writes("C"));
  s.phases = {a, b, c};
  s.prog.serial("init", [](ProgramEnv& env) { env.set("i", 0); }, 0, false);
  const std::uint32_t top =
      s.prog.dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  s.prog.dispatch(b, {EnableClause{"c", MappingKind::kIdentity, {}}});
  s.prog.dispatch(c);
  s.prog.serial("inc", [](ProgramEnv& env) { env.add("i", 1); }, 0, false);
  s.prog.branch("loop",
                [iters](const ProgramEnv& env) {
                  return env.get("i") < iters ? std::size_t{0} : std::size_t{1};
                },
                {top, static_cast<std::uint32_t>(s.prog.size() + 1)}, true);
  s.prog.halt();
  return s;
}

rt::BodyTable counting_bodies(std::span<const PhaseId> phases,
                              std::atomic<std::uint64_t>& counter) {
  rt::BodyTable bodies;
  for (PhaseId p : phases)
    bodies.set(p, [&counter](GranuleRange r, WorkerId) {
      counter.fetch_add(r.size(), std::memory_order_relaxed);
    });
  return bodies;
}

// --- scheduling policy comparator (pure, no threads) ------------------------

TEST(SchedPolicyPick, FifoPicksLowestId) {
  const JobView a{0, 0, 500};
  const JobView b{1, 9, 0};
  EXPECT_TRUE(schedules_before(a, b, SchedPolicy::kFifo));
  EXPECT_FALSE(schedules_before(b, a, SchedPolicy::kFifo));
}

TEST(SchedPolicyPick, PriorityOutranksIdThenFifoTieBreak) {
  const JobView low_first{0, 1, 0};
  const JobView high_later{5, 7, 0};
  EXPECT_TRUE(schedules_before(high_later, low_first, SchedPolicy::kPriority));
  const JobView same_prio{9, 7, 0};
  EXPECT_TRUE(schedules_before(high_later, same_prio, SchedPolicy::kPriority));
}

TEST(SchedPolicyPick, FairSharePicksLeastGranulesThenFifoTieBreak) {
  const JobView ahead{0, 0, 1000};
  const JobView behind{3, 0, 10};
  EXPECT_TRUE(schedules_before(behind, ahead, SchedPolicy::kFairShare));
  const JobView tied{7, 0, 10};
  EXPECT_TRUE(schedules_before(behind, tied, SchedPolicy::kFairShare));
}

TEST(SchedPolicyPick, DeadlinePicksEarliestThenFifoTieBreak) {
  const JobView late{0, 9, 0, 5000};
  const JobView soon{4, 0, 0, 1000};
  // EDF: the earlier absolute deadline wins regardless of id or priority.
  EXPECT_TRUE(schedules_before(soon, late, SchedPolicy::kDeadline));
  EXPECT_FALSE(schedules_before(late, soon, SchedPolicy::kDeadline));
  // Equal deadlines tie-break by id, like every policy.
  const JobView tied{9, 0, 0, 1000};
  EXPECT_TRUE(schedules_before(soon, tied, SchedPolicy::kDeadline));
}

TEST(SchedPolicyPick, DeadlineFreeJobsSortLast) {
  const JobView batch{0, 0, 0};  // deadline_ns defaults to kNoDeadline
  EXPECT_EQ(batch.deadline_ns, kNoDeadline);
  const JobView urgent{7, 0, 0, std::numeric_limits<std::int64_t>::max() - 1};
  // Even the latest representable real deadline outranks "no deadline":
  // deadline-free batch work fills leftover capacity only.
  EXPECT_TRUE(schedules_before(urgent, batch, SchedPolicy::kDeadline));
  // Two deadline-free jobs degrade to fifo.
  const JobView batch2{3, 0, 0};
  EXPECT_TRUE(schedules_before(batch, batch2, SchedPolicy::kDeadline));
}

// --- config validation ------------------------------------------------------

TEST(PoolConfigDeathTest, RejectsZeroWorkers) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(PoolRuntime({.workers = 0, .batch = 4}),
               "pool needs at least one worker");
}

TEST(PoolConfigDeathTest, RejectsZeroBatch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(PoolRuntime({.workers = 2, .batch = 0}),
               "pool batch must be at least 1");
}

TEST(PoolConfigDeathTest, RejectsZeroShards) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(PoolRuntime({.workers = 2, .batch = 4, .shards = 0}),
               "shards must be at least 1");
}

TEST(PoolConfigDeathTest, RejectsMismatchedJobShards) {
  // A per-job shard override that disagrees with an explicit pool-level
  // count fails at submit: the home-shard geometry is pool machinery.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SinglePhase s = make_single_phase(32);
  rt::BodyTable bodies;
  bodies.set(s.p, [](GranuleRange, WorkerId) {});
  EXPECT_DEATH(
      {
        PoolRuntime pool({.workers = 2, .batch = 4, .shards = 2});
        pool.submit(s.prog, bodies, ExecConfig{}, 0, CostModel{}, /*shards=*/3);
      },
      "mismatches the pool's shard configuration");
}

TEST(PoolConfigDeathTest, RejectsJobWithMoreShardsThanGranules) {
  // The per-job executive validates its own geometry: an explicit count
  // beyond the job's largest phase dies in the job constructor.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SinglePhase s = make_single_phase(8);
  rt::BodyTable bodies;
  bodies.set(s.p, [](GranuleRange, WorkerId) {});
  EXPECT_DEATH(
      {
        PoolRuntime pool({.workers = 2, .batch = 4});
        pool.submit(s.prog, bodies, ExecConfig{}, 0, CostModel{}, /*shards=*/64);
      },
      "more shards than granules");
}

TEST(PoolConfig, JobOverrideAgreesWithAutoPool) {
  // With the pool left at kAutoShards, a per-job explicit count is honored.
  SinglePhase s = make_single_phase(32);
  std::atomic<std::uint64_t> n{0};
  rt::BodyTable bodies;
  bodies.set(s.p, [&](GranuleRange r, WorkerId) {
    n.fetch_add(r.size(), std::memory_order_relaxed);
  });
  PoolRuntime pool({.workers = 2, .batch = 4});
  JobHandle h = pool.submit(s.prog, bodies, ExecConfig{}, 0, CostModel{},
                            /*shards=*/3);
  EXPECT_EQ(h.wait(), JobState::kComplete);
  pool.shutdown();
  EXPECT_EQ(h.stats().shards, 3u);
  EXPECT_EQ(n.load(), 32u);
}

// --- completion and accounting ----------------------------------------------

TEST(PoolCompletion, ManyConcurrentJobsAllCompleteWithExactAccounting) {
  constexpr int kJobs = 6;
  std::vector<TwoPhase> two(kJobs / 2);
  std::vector<LoopProg> loops(kJobs / 2);
  std::vector<rt::BodyTable> bodies;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> counts;
  std::vector<std::uint64_t> expected;
  bodies.reserve(kJobs);

  for (int i = 0; i < kJobs / 2; ++i) {
    two[i] = make_two_phase_identity(128);
    counts.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
    const PhaseId ph[] = {two[i].a, two[i].b};
    bodies.push_back(counting_bodies(ph, *counts.back()));
    expected.push_back(2u * 128u);
  }
  for (int i = 0; i < kJobs / 2; ++i) {
    loops[i] = make_loop(64, 4);
    counts.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
    bodies.push_back(counting_bodies(loops[i].phases, *counts.back()));
    expected.push_back(4u * 3u * 64u);
  }

  std::vector<JobHandle> handles;
  {
    PoolRuntime pool({.workers = 4, .batch = 4, .policy = SchedPolicy::kFairShare});
    ExecConfig cfg;
    cfg.grain = 8;
    cfg.early_serial = true;
    for (int i = 0; i < kJobs / 2; ++i)
      handles.push_back(pool.submit(two[i].prog, bodies[i], cfg));
    for (int i = 0; i < kJobs / 2; ++i)
      handles.push_back(
          pool.submit(loops[i].prog, bodies[kJobs / 2 + i], cfg));

    for (auto& h : handles) EXPECT_EQ(h.wait(), JobState::kComplete);
    pool.shutdown();

    const PoolStats ps = pool.stats();
    EXPECT_EQ(ps.jobs_submitted, static_cast<std::uint64_t>(kJobs));
    EXPECT_EQ(ps.jobs_completed, static_cast<std::uint64_t>(kJobs));
    EXPECT_EQ(ps.jobs_cancelled, 0u);

    // Per-job stats sum exactly to the (independently accumulated) pool
    // totals, and match the program-derived expectations.
    std::uint64_t sum_granules = 0, sum_tasks = 0;
    std::chrono::nanoseconds sum_busy{0};
    for (int i = 0; i < kJobs; ++i) {
      const JobStats js = handles[i].stats();
      EXPECT_EQ(js.granules, expected[i]) << "job " << i;
      EXPECT_EQ(counts[i]->load(), expected[i]) << "job " << i;
      EXPECT_GT(js.exec_lock_acquisitions, 0u);
      sum_granules += js.granules;
      sum_tasks += js.tasks;
      sum_busy += js.busy;
    }
    EXPECT_EQ(sum_granules, ps.granules_executed);
    EXPECT_EQ(sum_tasks, ps.tasks_executed);
    std::chrono::nanoseconds pool_busy{0};
    for (auto b : ps.worker_busy) pool_busy += b;
    EXPECT_EQ(sum_busy, pool_busy);
    EXPECT_EQ(ps.worker_wall.size(), 4u);
    for (auto w : ps.worker_wall) EXPECT_GT(w.count(), 0);
    EXPECT_GT(ps.utilization(), 0.0);
    EXPECT_LE(ps.utilization(), 1.0 + 1e-9);
  }
}

// --- scheduling order on a single worker (deterministic) --------------------

/// Submit a gate job that pins the only worker, queue three single-phase
/// jobs once the worker is inside the gate body, release the gate, and
/// observe the rotation order by recording body executions. Waiting for
/// the blocker to be entered is what makes the order deterministic: a job
/// submitted before the worker picked the blocker would compete with it,
/// and the policy under test may rightly run it first.
std::vector<int> run_three_jobs_under(SchedPolicy policy) {
  SinglePhase gate_prog = make_single_phase(1);
  SinglePhase jobs_prog[3] = {make_single_phase(4), make_single_phase(4),
                              make_single_phase(4)};
  std::atomic<bool> gate{false};
  std::atomic<bool> blocker_entered{false};
  rt::BodyTable gate_bodies;
  gate_bodies.set(gate_prog.p, [&gate, &blocker_entered](GranuleRange, WorkerId) {
    blocker_entered.store(true, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });

  std::mutex order_mu;
  std::vector<int> order;
  rt::BodyTable tag_bodies[3];
  for (int i = 0; i < 3; ++i)
    tag_bodies[i].set(jobs_prog[i].p, [i, &order_mu, &order](GranuleRange, WorkerId) {
      std::scoped_lock lock(order_mu);
      order.push_back(i);
    });

  PoolRuntime pool({.workers = 1, .batch = 4, .policy = policy});
  ExecConfig cfg;
  JobHandle blocker = pool.submit(gate_prog.prog, gate_bodies, cfg);
  while (!blocker_entered.load(std::memory_order_acquire))
    std::this_thread::yield();
  // Priorities: job0 low, job1 high, job2 mid — submission order 0,1,2.
  const int prio[3] = {1, 9, 5};
  JobHandle handles[3];
  for (int i = 0; i < 3; ++i)
    handles[i] = pool.submit(jobs_prog[i].prog, tag_bodies[i], cfg, prio[i]);

  gate.store(true, std::memory_order_release);
  EXPECT_EQ(blocker.wait(), JobState::kComplete);
  for (auto& h : handles) EXPECT_EQ(h.wait(), JobState::kComplete);
  pool.shutdown();
  return order;
}

TEST(PoolScheduling, PriorityPolicyOrdersRotationsByPriority) {
  const std::vector<int> order = run_three_jobs_under(SchedPolicy::kPriority);
  ASSERT_EQ(order.size(), 12u);  // 3 jobs x 4 granules, grain 1
  const std::vector<int> want = {1, 1, 1, 1, 2, 2, 2, 2, 0, 0, 0, 0};
  EXPECT_EQ(order, want);
}

TEST(PoolScheduling, FifoPolicyOrdersRotationsBySubmission) {
  const std::vector<int> order = run_three_jobs_under(SchedPolicy::kFifo);
  ASSERT_EQ(order.size(), 12u);
  const std::vector<int> want = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2};
  EXPECT_EQ(order, want);
}

// --- fair share balance ------------------------------------------------------

/// Deterministic rotation scenario on two workers, batch = grain = 1.
///
/// Job L pins worker 1 (its single granule blocks on a gate). Job M's first
/// two granules execute on worker 2, its third blocks in-body on a gate
/// while its fourth still sits in the waiting queue — a runnable job with
/// granule history. Job N is then submitted fresh (zero granules). Releasing
/// L's gate sends worker 1 rotating with exactly two candidates:
///   M (runnable, 2 granules executed)  vs  N (queued, 0 granules).
/// kFairShare must adopt N first; kFifo must adopt M (lower id) first.
/// Returns the recorded body order of M's fourth granule ("M") and N ("N").
std::vector<char> run_fair_share_scenario(SchedPolicy policy) {
  SinglePhase l_prog = make_single_phase(1);
  SinglePhase m_prog = make_single_phase(4);
  SinglePhase n_prog = make_single_phase(1);

  std::atomic<bool> gate_l{false}, gate_m{false};
  std::atomic<bool> l_started{false}, m_blocked{false};
  std::mutex order_mu;
  std::vector<char> order;

  rt::BodyTable l_bodies;
  l_bodies.set(l_prog.p, [&](GranuleRange, WorkerId) {
    l_started.store(true, std::memory_order_release);
    while (!gate_l.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  rt::BodyTable m_bodies;
  m_bodies.set(m_prog.p, [&](GranuleRange r, WorkerId) {
    if (r.lo == 2) {  // third granule: block with the fourth still queued
      m_blocked.store(true, std::memory_order_release);
      while (!gate_m.load(std::memory_order_acquire)) std::this_thread::yield();
    } else if (r.lo == 3) {
      std::scoped_lock lock(order_mu);
      order.push_back('M');
    }
  });
  rt::BodyTable n_bodies;
  n_bodies.set(n_prog.p, [&](GranuleRange, WorkerId) {
    std::scoped_lock lock(order_mu);
    order.push_back('N');
  });

  PoolRuntime pool({.workers = 2, .batch = 1, .policy = policy});
  ExecConfig cfg;  // grain = 1: one granule per assignment
  JobHandle l = pool.submit(l_prog.prog, l_bodies, cfg);
  while (!l_started.load(std::memory_order_acquire)) std::this_thread::yield();
  JobHandle m = pool.submit(m_prog.prog, m_bodies, cfg);
  while (!m_blocked.load(std::memory_order_acquire)) std::this_thread::yield();
  JobHandle n = pool.submit(n_prog.prog, n_bodies, cfg);
  gate_l.store(true, std::memory_order_release);

  // Worker 1 finishes L, then rotates through N and M's fourth granule (in
  // the policy's order); unblock M's third granule once both are recorded.
  EXPECT_EQ(l.wait(), JobState::kComplete);
  EXPECT_EQ(n.wait(), JobState::kComplete);
  while (true) {
    {
      std::scoped_lock lock(order_mu);
      if (order.size() == 2) break;
    }
    std::this_thread::yield();
  }
  gate_m.store(true, std::memory_order_release);
  EXPECT_EQ(m.wait(), JobState::kComplete);
  pool.shutdown();

  EXPECT_GT(pool.stats().rotations, 0u);
  EXPECT_EQ(m.stats().granules, 4u);
  return order;
}

TEST(PoolScheduling, FairSharePrefersLeastServedJobAtRotation) {
  const std::vector<char> order = run_fair_share_scenario(SchedPolicy::kFairShare);
  EXPECT_EQ(order, (std::vector<char>{'N', 'M'}));
}

TEST(PoolScheduling, FifoPrefersEarliestSubmittedJobAtRotation) {
  const std::vector<char> order = run_fair_share_scenario(SchedPolicy::kFifo);
  EXPECT_EQ(order, (std::vector<char>{'M', 'N'}));
}

// --- cancellation ------------------------------------------------------------

TEST(PoolCancel, CancelBeforeOpenWinsOnceAndVictimNeverRuns) {
  SinglePhase gate_prog = make_single_phase(1);
  SinglePhase victim_prog = make_single_phase(8);
  std::atomic<bool> gate{false};
  std::atomic<bool> victim_ran{false};

  rt::BodyTable gate_bodies;
  gate_bodies.set(gate_prog.p, [&gate](GranuleRange, WorkerId) {
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  rt::BodyTable victim_bodies;
  victim_bodies.set(victim_prog.p, [&victim_ran](GranuleRange, WorkerId) {
    victim_ran.store(true, std::memory_order_relaxed);
  });

  PoolRuntime pool({.workers = 1, .batch = 4});
  ExecConfig cfg;
  JobHandle blocker = pool.submit(gate_prog.prog, gate_bodies, cfg);
  JobHandle victim = pool.submit(victim_prog.prog, victim_bodies, cfg);

  EXPECT_EQ(victim.state(), JobState::kQueued);
  EXPECT_TRUE(victim.cancel());
  EXPECT_FALSE(victim.cancel());  // second cancel loses
  EXPECT_EQ(victim.state(), JobState::kCancelled);
  EXPECT_EQ(victim.wait(), JobState::kCancelled);

  gate.store(true, std::memory_order_release);
  EXPECT_EQ(blocker.wait(), JobState::kComplete);
  EXPECT_FALSE(blocker.cancel());  // completed jobs cannot be cancelled
  pool.shutdown();

  EXPECT_FALSE(victim_ran.load());
  const JobStats vs = victim.stats();
  EXPECT_EQ(vs.granules, 0u);
  EXPECT_EQ(vs.queued.count(), 0);
  const PoolStats ps = pool.stats();
  EXPECT_EQ(ps.jobs_cancelled, 1u);
  EXPECT_EQ(ps.jobs_completed, 1u);
  EXPECT_EQ(ps.granules_executed, 1u);  // the blocker's single granule
}

/// True mid-run cancellation: every body execution parks on a gate, so the
/// job is provably mid-run (opened, granules in flight, most of the phase
/// still in the executive) when cancel() fires. The cooperative stop must
/// recall the undistributed work — the job finalizes kCancelled with a
/// strictly partial granule count — and the winning cancel is exclusive.
void run_mid_run_cancel(bool lockfree) {
  constexpr GranuleId kN = 64;
  SinglePhase s = make_single_phase(kN);
  std::atomic<bool> gate{false};
  std::atomic<std::uint64_t> entered{0};
  std::atomic<std::uint64_t> executed{0};
  rt::BodyTable bodies;
  bodies.set(s.p, [&](GranuleRange r, WorkerId) {
    entered.fetch_add(1, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
    executed.fetch_add(r.size(), std::memory_order_relaxed);
  });

  PoolRuntime pool({.workers = 2, .batch = 4, .lockfree = lockfree});
  ExecConfig cfg;
  cfg.grain = 1;  // one granule per assignment: fine-grained recall coverage
  JobHandle h = pool.submit(s.prog, bodies, cfg);

  // Wait until at least one body is in flight: its unretired ticket keeps
  // the job from finalizing until the gate opens, so the cancel below is
  // provably mid-run. (A cancel landing before any granule is in flight
  // legitimately finalizes at once.) The bulk of the phase is still
  // sharded in the executive.
  while (entered.load(std::memory_order_acquire) == 0) std::this_thread::yield();
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.cancel());  // the mid-run cancel is won exactly once
  EXPECT_FALSE(h.done());    // still draining: terminal comes from a worker

  gate.store(true, std::memory_order_release);
  EXPECT_EQ(h.wait(), JobState::kCancelled);
  pool.shutdown();

  const JobStats js = h.stats();
  // In-flight granules drained (each exactly once, none re-issued), but the
  // recalled remainder never ran: strictly partial. With 2 workers x (2x4)
  // local-queue slots + in-flight singles, the ceiling is far below kN.
  EXPECT_EQ(js.granules, executed.load());
  EXPECT_LT(js.granules, kN);
  EXPECT_FALSE(js.deadline_missed);
  const PoolStats ps = pool.stats();
  EXPECT_EQ(ps.jobs_cancelled, 1u);
  EXPECT_EQ(ps.jobs_completed, 0u);
  EXPECT_EQ(ps.granules_executed, js.granules);
}

TEST(PoolCancel, MidRunCancelDrainsAndFinalizesCancelledLockfree) {
  run_mid_run_cancel(/*lockfree=*/true);
}

TEST(PoolCancel, MidRunCancelDrainsAndFinalizesCancelledMutexEngine) {
  run_mid_run_cancel(/*lockfree=*/false);
}

// --- terminal-state contract: done() implies stats() are final ---------------

TEST(PoolTerminal, DoneImpliesStatsFinalSpinRegression) {
  // Regression for the finalize race: the old protocol CASed the state to
  // kComplete *before* taking the job mutex to write finished_at and
  // peak_local_queue, so a handle spinning on done() could read stats()
  // mid-write — span still growing (finished_at unset falls back to now())
  // and peak_local_queue zero. The fix flips the terminal state LAST, under
  // the job mutex, with release ordering. Spin-poll many small jobs and
  // check the final bookkeeping is visible the instant done() is.
  SinglePhase s = make_single_phase(16);
  std::atomic<std::uint64_t> count{0};
  const PhaseId ph[] = {s.p};
  rt::BodyTable bodies = counting_bodies(ph, count);

  PoolRuntime pool({.workers = 4, .batch = 2});
  ExecConfig cfg;
  cfg.grain = 1;
  for (int iter = 0; iter < 50; ++iter) {
    JobHandle h = pool.submit(s.prog, bodies, cfg);
    while (!h.done()) std::this_thread::yield();
    const JobStats first = h.stats();
    // Every executed granule passed through a local run-queue, so the
    // finalize-path peak write must already be visible.
    EXPECT_EQ(first.granules, 16u) << "iter " << iter;
    EXPECT_GT(first.peak_local_queue, 0u) << "iter " << iter;
    // finished_at is set: span is frozen, not tracking now().
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
    EXPECT_EQ(h.stats().span, first.span) << "iter " << iter;
  }
  pool.shutdown();
}

// --- admission control --------------------------------------------------------

TEST(PoolAdmission, OverBudgetSubmitRejectsWithoutExecuting) {
  SinglePhase gate_prog = make_single_phase(1);
  SinglePhase extra_prog = make_single_phase(8);
  std::atomic<bool> gate{false};
  std::atomic<bool> extra_ran{false};
  rt::BodyTable gate_bodies;
  gate_bodies.set(gate_prog.p, [&gate](GranuleRange, WorkerId) {
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  rt::BodyTable extra_bodies;
  extra_bodies.set(extra_prog.p, [&extra_ran](GranuleRange, WorkerId) {
    extra_ran.store(true, std::memory_order_relaxed);
  });

  PoolRuntime pool({.workers = 1, .batch = 4, .max_pending = 1});
  ExecConfig cfg;
  JobHandle blocker = pool.submit(gate_prog.prog, gate_bodies, cfg);

  // The blocker holds the whole pending budget: the next submit must come
  // back already terminal, without blocking and without ever executing.
  PoolRuntime::SubmitOptions opts;
  opts.deadline = std::chrono::milliseconds{100};
  JobHandle rejected = pool.submit(extra_prog.prog, extra_bodies, cfg, opts);
  EXPECT_EQ(rejected.state(), JobState::kRejected);
  EXPECT_TRUE(rejected.done());
  EXPECT_EQ(rejected.wait(), JobState::kRejected);  // returns immediately
  EXPECT_FALSE(rejected.cancel());                  // terminal: nothing to do
  const JobStats rs = rejected.stats();
  EXPECT_EQ(rs.granules, 0u);
  EXPECT_TRUE(rs.has_deadline);
  EXPECT_TRUE(rs.deadline_missed);  // a rejected deadline job is a miss

  gate.store(true, std::memory_order_release);
  EXPECT_EQ(blocker.wait(), JobState::kComplete);
  // wait() observes the terminal flip (job mutex), but the job leaves the
  // pending set slightly later, under the pool mutex — in the same critical
  // section that bumps jobs_completed. Spin on the counter so the budget is
  // provably free before the re-admission submit.
  while (pool.stats().jobs_completed < 1) std::this_thread::yield();
  // The budget freed up: the same program is admitted now.
  JobHandle admitted = pool.submit(extra_prog.prog, extra_bodies, cfg);
  EXPECT_EQ(admitted.wait(), JobState::kComplete);
  pool.shutdown();

  EXPECT_TRUE(extra_ran.load());  // from the admitted run only
  const PoolStats ps = pool.stats();
  EXPECT_EQ(ps.jobs_submitted, 3u);  // rejected submissions still count
  EXPECT_EQ(ps.jobs_completed, 2u);
  EXPECT_EQ(ps.jobs_rejected, 1u);
  EXPECT_EQ(ps.jobs_deadline_missed, 1u);
  EXPECT_EQ(ps.jobs_deadline_met, 0u);
}

// --- deadline accounting ------------------------------------------------------

TEST(PoolDeadline, MetAndMissedDeadlinesAccountedAtFinalize) {
  SinglePhase a_prog = make_single_phase(8);
  SinglePhase b_prog = make_single_phase(8);
  std::atomic<std::uint64_t> count{0};
  const PhaseId pa[] = {a_prog.p};
  const PhaseId pb[] = {b_prog.p};
  rt::BodyTable a_bodies = counting_bodies(pa, count);
  rt::BodyTable b_bodies = counting_bodies(pb, count);

  PoolRuntime pool({.workers = 2, .batch = 4,
                    .policy = SchedPolicy::kDeadline});
  ExecConfig cfg;
  PoolRuntime::SubmitOptions generous;
  generous.deadline = std::chrono::seconds{30};
  PoolRuntime::SubmitOptions unmeetable;
  unmeetable.deadline = std::chrono::nanoseconds{1};
  JobHandle met = pool.submit(a_prog.prog, a_bodies, cfg, generous);
  JobHandle missed = pool.submit(b_prog.prog, b_bodies, cfg, unmeetable);
  EXPECT_EQ(met.wait(), JobState::kComplete);
  EXPECT_EQ(missed.wait(), JobState::kComplete);
  pool.shutdown();

  const JobStats ms = met.stats();
  EXPECT_TRUE(ms.has_deadline);
  EXPECT_FALSE(ms.deadline_missed);
  EXPECT_GT(ms.deadline_slack.count(), 0);
  const JobStats xs = missed.stats();
  EXPECT_TRUE(xs.has_deadline);
  EXPECT_TRUE(xs.deadline_missed);
  EXPECT_LT(xs.deadline_slack.count(), 0);
  const PoolStats ps = pool.stats();
  EXPECT_EQ(ps.jobs_deadline_met, 1u);
  EXPECT_EQ(ps.jobs_deadline_missed, 1u);
}

TEST(PoolDeadline, EdfOrdersRotationsByDeadline) {
  // Same single-worker gate scenario as the policy tests above, but ordered
  // by deadline: submission order 0,1,2 with deadlines mid, late, early
  // must execute 2, 0, 1.
  SinglePhase gate_prog = make_single_phase(1);
  SinglePhase jobs_prog[3] = {make_single_phase(4), make_single_phase(4),
                              make_single_phase(4)};
  std::atomic<bool> gate{false};
  std::atomic<bool> blocker_entered{false};
  rt::BodyTable gate_bodies;
  gate_bodies.set(gate_prog.p, [&gate, &blocker_entered](GranuleRange, WorkerId) {
    blocker_entered.store(true, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });

  std::mutex order_mu;
  std::vector<int> order;
  rt::BodyTable tag_bodies[3];
  for (int i = 0; i < 3; ++i)
    tag_bodies[i].set(jobs_prog[i].p,
                      [i, &order_mu, &order](GranuleRange, WorkerId) {
                        std::scoped_lock lock(order_mu);
                        order.push_back(i);
                      });

  PoolRuntime pool({.workers = 1, .batch = 4,
                    .policy = SchedPolicy::kDeadline});
  ExecConfig cfg;
  JobHandle blocker = pool.submit(gate_prog.prog, gate_bodies, cfg);
  // Handshake, as in run_three_jobs_under: jobs 0-2 queue behind a worker
  // already pinned inside the deadline-free blocker.
  while (!blocker_entered.load(std::memory_order_acquire))
    std::this_thread::yield();
  const std::chrono::seconds deadlines[3] = {std::chrono::seconds{200},
                                             std::chrono::seconds{300},
                                             std::chrono::seconds{100}};
  JobHandle handles[3];
  for (int i = 0; i < 3; ++i) {
    PoolRuntime::SubmitOptions opts;
    opts.deadline = deadlines[i];
    handles[i] = pool.submit(jobs_prog[i].prog, tag_bodies[i], cfg, opts);
  }

  gate.store(true, std::memory_order_release);
  EXPECT_EQ(blocker.wait(), JobState::kComplete);
  for (auto& h : handles) EXPECT_EQ(h.wait(), JobState::kComplete);
  pool.shutdown();

  ASSERT_EQ(order.size(), 12u);
  const std::vector<int> want = {2, 2, 2, 2, 0, 0, 0, 0, 1, 1, 1, 1};
  EXPECT_EQ(order, want);
}

// --- timed waits --------------------------------------------------------------

TEST(PoolHandles, WaitForTimesOutOnRunningJobAndReturnsTerminalAfter) {
  SinglePhase s = make_single_phase(1);
  std::atomic<bool> gate{false};
  rt::BodyTable bodies;
  bodies.set(s.p, [&gate](GranuleRange, WorkerId) {
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });

  PoolRuntime pool({.workers = 1, .batch = 4});
  ExecConfig cfg;
  JobHandle h = pool.submit(s.prog, bodies, cfg);
  // Gated body: the deadline passes with the job still non-terminal.
  const JobState timed_out = h.wait_for(std::chrono::milliseconds{5});
  EXPECT_FALSE(is_terminal(timed_out));
  EXPECT_FALSE(h.done());

  gate.store(true, std::memory_order_release);
  EXPECT_EQ(h.wait(), JobState::kComplete);
  // On an already-terminal job every timed wait returns immediately.
  EXPECT_EQ(h.wait_for(std::chrono::nanoseconds{0}), JobState::kComplete);
  EXPECT_EQ(h.wait_until(std::chrono::steady_clock::now()),
            JobState::kComplete);
  pool.shutdown();
}

// --- handle lifetime ----------------------------------------------------------

TEST(PoolHandles, HandlesOutliveThePool) {
  // Regression for the JobHandle use-after-free: cancel() used to call
  // through a raw PoolRuntime*, so touching a handle after the pool's
  // destruction dereferenced freed memory. Handles now share-own the job
  // and reach the pool weakly: after shutdown they still answer
  // state()/stats()/wait(), and cancel() degrades to false.
  SinglePhase s = make_single_phase(16);
  std::atomic<std::uint64_t> count{0};
  const PhaseId ph[] = {s.p};
  rt::BodyTable bodies = counting_bodies(ph, count);

  JobHandle survivor;
  {
    PoolRuntime pool({.workers = 2, .batch = 4});
    survivor = pool.submit(s.prog, bodies, ExecConfig{});
    EXPECT_EQ(survivor.wait(), JobState::kComplete);
  }  // pool destroyed; the handle remains
  EXPECT_TRUE(survivor.valid());
  EXPECT_TRUE(survivor.done());
  EXPECT_EQ(survivor.state(), JobState::kComplete);
  EXPECT_EQ(survivor.wait(), JobState::kComplete);
  EXPECT_EQ(survivor.stats().granules, 16u);
  EXPECT_FALSE(survivor.cancel());  // terminal AND the pool is gone
}

// --- enablement correctness through the pool ---------------------------------

TEST(PoolHappensBefore, IdentityOrderHoldsForPooledJob) {
  const GranuleId n = 256;
  TwoPhase s = make_two_phase_identity(n);
  rt::HappensBeforeRecorder rec(2, n);
  rt::BodyTable bodies;
  bodies.set(s.a, [&rec](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(0, g);
      rec.on_finish(0, g);
    }
  });
  bodies.set(s.b, [&rec](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(1, g);
      rec.on_finish(1, g);
    }
  });

  PoolRuntime pool({.workers = 4, .batch = 4});
  ExecConfig cfg;
  cfg.grain = 8;
  JobHandle h = pool.submit(s.prog, bodies, cfg);
  EXPECT_EQ(h.wait(), JobState::kComplete);
  pool.shutdown();

  EXPECT_EQ(h.stats().granules, 2u * n);
  for (GranuleId g = 0; g < n; ++g) {
    ASSERT_TRUE(rec.executed(0, g));
    ASSERT_TRUE(rec.executed(1, g));
    EXPECT_LT(rec.finish_ticket(0, g), rec.start_ticket(1, g))
        << "identity enablement violated at granule " << g;
  }
}

// --- handle ergonomics -------------------------------------------------------

TEST(PoolHandles, PollAndQueuedTimeTracking) {
  SinglePhase s = make_single_phase(16);
  std::atomic<std::uint64_t> count{0};
  const PhaseId ph[] = {s.p};
  rt::BodyTable bodies = counting_bodies(ph, count);

  PoolRuntime pool({.workers = 2, .batch = 4});
  ExecConfig cfg;
  JobHandle h = pool.submit(s.prog, bodies, cfg);
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(h.wait(), JobState::kComplete);
  EXPECT_TRUE(h.done());
  const JobStats js = h.stats();
  EXPECT_EQ(js.granules, 16u);
  EXPECT_GE(js.span.count(), js.busy.count());
  EXPECT_GE(js.span, js.queued);
  pool.shutdown();
}

}  // namespace
}  // namespace pax::pool
