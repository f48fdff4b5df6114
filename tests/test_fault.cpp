// Fault-containment tests (DESIGN.md §15): the exception barrier converts a
// throwing phase body into a recorded fault instead of process death; the
// executive retries transient faults with backoff and poisons persistent
// ones into a faulted terminal; the pool degrades a faulted job to
// JobState::kFailed without touching its siblings; the stuck-granule
// watchdog escalates an over-budget body through the stop/recall machinery;
// and a throwing GranuleMapFn degrades its edge instead of wedging the
// program. Runs on both shard engines and under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "pool/pool_runtime.hpp"
#include "runtime/threaded_runtime.hpp"
#include "testing_util.hpp"

namespace pax {
namespace {

using pool::JobState;
using testing::ExecutionRecorder;
using testing::FaultInjector;
using testing::GeneratedProgram;
using testing::SlowGranuleSpec;

// Both shard engines: the lock-free rings (shipped default) and the retained
// mutex baseline — the fail/recall path differs between them.
class FaultEngine : public ::testing::TestWithParam<bool> {
 protected:
  [[nodiscard]] bool lockfree() const { return GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(Engines, FaultEngine, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? "LockFree" : "Mutex";
                         });

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

/// A deterministic single-phase GeneratedProgram shell so the fault-injection
/// helpers (FaultInjector / make_faulty_bodies) apply to hand-built tests.
GeneratedProgram single_phase_shell(GranuleId n, bool lockfree) {
  GeneratedProgram g;
  g.seed = 42;
  g.phases.push_back(g.program.define_phase(make_phase("only", n).writes("O")));
  g.program.dispatch(g.phases[0]);
  g.program.halt();
  g.granules.push_back(n);
  g.total = n;
  g.workers = 3;
  g.batch = 2;
  g.lockfree = lockfree;
  return g;
}

rt::RtConfig config_of(const GeneratedProgram& g) {
  rt::RtConfig rc;
  rc.workers = g.workers;
  rc.batch = g.batch;
  rc.shards = g.shards;
  rc.lockfree = g.lockfree;
  rc.steal = g.steal;
  rc.adaptive_grain = g.adaptive_grain;
  return rc;
}

// --- exception barrier + retry (threaded runtime) ---------------------------

TEST_P(FaultEngine, TransientFaultRetriesToCompletion) {
  GeneratedProgram g = single_phase_shell(64, lockfree());
  ExecutionRecorder rec(g.granules);
  FaultInjector inj(g.granules);
  inj.set_throws(0, 3, 1);   // fail once, succeed on retry
  inj.set_throws(0, 40, 2);  // fail twice
  std::atomic<std::uint64_t> sink{0};
  rt::BodyTable bodies = testing::make_faulty_bodies(g, rec, sink, inj);
  rt::RtConfig rc = config_of(g);
  rc.max_granule_retries = 4;
  rt::RtResult res =
      rt::ThreadedRuntime(g.program, g.exec, CostModel::free_of_charge(),
                          bodies, rc)
          .run();
  rec.expect_exactly_once();  // a throwing attempt records nothing
  EXPECT_FALSE(res.faulted);
  EXPECT_EQ(res.granules_executed, 64u);
  EXPECT_EQ(inj.injected(), 3u);
  EXPECT_EQ(res.granule_faults, 3u);
  EXPECT_EQ(res.granule_retries, 3u);
  EXPECT_EQ(res.granules_poisoned, 0u);
  // The first fault site survives into the summary even on success.
  EXPECT_NE(res.fault_summary.find("injected fault"), std::string::npos);
  EXPECT_EQ(res.metrics.value_of("fault.bodies"), 3u);
  EXPECT_EQ(res.metrics.value_of("fault.terminal"), 0u);
}

TEST_P(FaultEngine, PersistentFaultPoisonsAndFaultsTheRun) {
  GeneratedProgram g = single_phase_shell(48, lockfree());
  ExecutionRecorder rec(g.granules);
  FaultInjector inj(g.granules);
  inj.set_throws(0, 7, FaultInjector::kAlways);
  std::atomic<std::uint64_t> sink{0};
  rt::BodyTable bodies = testing::make_faulty_bodies(g, rec, sink, inj);
  rt::RtConfig rc = config_of(g);
  rc.max_granule_retries = 2;
  rc.retry_backoff_ticks = 1;
  // No abort, no escaped exception: the barrier + poison path must bring
  // run() back with the faulted terminal.
  rt::RtResult res =
      rt::ThreadedRuntime(g.program, g.exec, CostModel::free_of_charge(),
                          bodies, rc)
          .run();
  rec.expect_at_most_once();
  EXPECT_TRUE(res.faulted);
  EXPECT_EQ(inj.injected(), 3u);  // initial attempt + 2 retries
  EXPECT_EQ(res.granule_faults, 3u);
  EXPECT_EQ(res.granule_retries, 2u);
  EXPECT_GE(res.granules_poisoned, 1u);
  EXPECT_LT(res.granules_executed, 48u);  // the poisoned granule never ran
  EXPECT_NE(res.fault_summary.find("injected fault"), std::string::npos);
  EXPECT_EQ(res.metrics.value_of("fault.terminal"), 1u);
}

TEST_P(FaultEngine, MapFnThrowDegradesEdgeAndCompletes) {
  // Two phases bridged by a reverse-indirect map whose callback throws: the
  // edge degrades to wholesale release at completion, so the program still
  // retires every granule of both phases — overlap is lost, not the run.
  PhaseProgram prog;
  const PhaseId a = prog.define_phase(make_phase("a", 32).writes("X"));
  const PhaseId b = prog.define_phase(make_phase("b", 32).reads("X"));
  // The map is built in executive idle time, which exists only while some
  // of `a` is still running. The body holding a's last granule therefore
  // waits until the callback has been tried (bounded, so a regression fails
  // the assertions below instead of hanging): idle time is established by
  // handshake, not by how fast the other workers drain their refills.
  std::atomic<bool> map_tried{false};
  EnableClause clause;
  clause.successor_name = "b";
  clause.kind = MappingKind::kReverseIndirect;
  clause.indirection.requires_of = [&map_tried](GranuleId,
                                                std::vector<GranuleId>&) {
    map_tried.store(true, std::memory_order_release);
    throw std::runtime_error("map callback exploded");
  };
  prog.dispatch(a, {clause});
  prog.dispatch(b);
  prog.halt();

  std::atomic<std::uint64_t> executed{0};
  rt::BodyTable bodies;
  bodies.set(a, [&](GranuleRange r, WorkerId) {
    if (r.hi == 32) {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds{10};
      while (!map_tried.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < give_up)
        std::this_thread::yield();
    }
    executed.fetch_add(r.size(), std::memory_order_relaxed);
  });
  bodies.set(b, [&executed](GranuleRange r, WorkerId) {
    executed.fetch_add(r.size(), std::memory_order_relaxed);
  });
  rt::RtConfig rc;
  rc.workers = 3;
  rc.lockfree = lockfree();
  rt::RtResult res =
      rt::ThreadedRuntime(prog, ExecConfig{}, CostModel::free_of_charge(),
                          bodies, rc)
          .run();
  EXPECT_FALSE(res.faulted);  // degraded, not failed
  EXPECT_EQ(executed.load(), 64u);
  EXPECT_EQ(res.granules_executed, 64u);
  EXPECT_EQ(res.map_faults, 1u);
  EXPECT_EQ(res.granule_faults, 0u);
  EXPECT_NE(res.fault_summary.find("map callback exploded"), std::string::npos);
}

// --- pool degradation: kFailed, sibling isolation, wait semantics -----------

TEST_P(FaultEngine, PoolJobFailsWithoutTouchingSiblings) {
  GeneratedProgram g = single_phase_shell(48, lockfree());
  ExecutionRecorder rec(g.granules);
  FaultInjector inj(g.granules);
  inj.set_throws(0, 5, FaultInjector::kAlways);
  std::atomic<std::uint64_t> sink{0};
  rt::BodyTable bodies = testing::make_faulty_bodies(g, rec, sink, inj);

  SinglePhase clean = make_single_phase(96);
  std::atomic<std::uint64_t> clean_granules{0};
  rt::BodyTable clean_bodies;
  clean_bodies.set(clean.p, [&clean_granules](GranuleRange r, WorkerId) {
    clean_granules.fetch_add(r.size(), std::memory_order_relaxed);
  });

  pool::PoolConfig pc;
  pc.workers = 3;
  pc.lockfree = lockfree();
  pool::JobHandle faulty, sibling;
  {
    pool::PoolRuntime pool(pc);
    ExecConfig ec;
    ec.max_granule_retries = 1;
    faulty = pool.submit(g.program, bodies, ec);
    sibling = pool.submit(clean.prog, clean_bodies, ExecConfig{});

    // wait() must wake on the failure terminal, not hang — and by the
    // done() => stats()-final contract the fault accounting is complete
    // the moment it returns.
    EXPECT_EQ(faulty.wait(), JobState::kFailed);
    EXPECT_TRUE(faulty.done());
    const pool::JobStats js = faulty.stats();
    EXPECT_EQ(js.granule_faults, 2u);  // initial attempt + 1 retry
    EXPECT_EQ(js.granule_retries, 1u);
    EXPECT_GE(js.granules_poisoned, 1u);
    EXPECT_FALSE(js.watchdog_expired);
    EXPECT_NE(js.fault_summary.find("injected fault"), std::string::npos);

    // A second wait (and a timed one) must return the same terminal.
    EXPECT_EQ(faulty.wait_for(std::chrono::milliseconds{1}), JobState::kFailed);

    // The sibling is untouched by the neighbour's failure.
    EXPECT_EQ(sibling.wait(), JobState::kComplete);
    EXPECT_EQ(clean_granules.load(), 96u);
    pool.shutdown();

    const pool::PoolStats ps = pool.stats();
    EXPECT_EQ(ps.jobs_submitted, 2u);
    EXPECT_EQ(ps.jobs_completed, 1u);
    EXPECT_EQ(ps.jobs_failed, 1u);
    EXPECT_EQ(ps.jobs_cancelled, 0u);
    EXPECT_EQ(ps.granule_faults, 2u);
    EXPECT_EQ(ps.granule_retries, 1u);
    EXPECT_GE(ps.granules_poisoned, 1u);
    EXPECT_EQ(ps.watchdog_flags, 0u);
    // Failed jobs never enter the deadline tally.
    EXPECT_EQ(ps.jobs_deadline_missed, 0u);
    EXPECT_EQ(ps.jobs_deadline_met, 0u);
    EXPECT_EQ(ps.metrics.value_of("pool.jobs_failed"), 1u);
  }
  // Handles outlive the pool: the terminal state and final stats survive.
  EXPECT_EQ(faulty.state(), JobState::kFailed);
  EXPECT_TRUE(faulty.done());
  EXPECT_FALSE(faulty.cancel());
  EXPECT_GE(faulty.stats().granules_poisoned, 1u);
}

TEST_P(FaultEngine, PoolTransientFaultStillCompletes) {
  GeneratedProgram g = single_phase_shell(64, lockfree());
  ExecutionRecorder rec(g.granules);
  FaultInjector inj(g.granules);
  inj.set_throws(0, 0, 1);
  std::atomic<std::uint64_t> sink{0};
  rt::BodyTable bodies = testing::make_faulty_bodies(g, rec, sink, inj);

  pool::PoolConfig pc;
  pc.workers = 2;
  pc.lockfree = lockfree();
  pool::PoolRuntime pool(pc);
  pool::JobHandle h = pool.submit(g.program, bodies, ExecConfig{});
  EXPECT_EQ(h.wait(), JobState::kComplete);
  pool.shutdown();
  rec.expect_exactly_once();
  const pool::JobStats js = h.stats();
  EXPECT_EQ(js.granules, 64u);
  EXPECT_EQ(js.granule_faults, 1u);
  EXPECT_EQ(js.granule_retries, 1u);
  EXPECT_EQ(js.granules_poisoned, 0u);
  EXPECT_EQ(pool.stats().jobs_failed, 0u);
}

// --- stuck-granule watchdog -------------------------------------------------

TEST_P(FaultEngine, WatchdogFlagsStuckGranule) {
  GeneratedProgram g = single_phase_shell(8, lockfree());
  ExecutionRecorder rec(g.granules);
  FaultInjector inj(g.granules);  // no throws — the granule is stuck, not bad
  std::atomic<std::uint64_t> sink{0};
  SlowGranuleSpec slow;
  slow.phase = 0;
  slow.granule = 2;
  slow.sleep = std::chrono::milliseconds{150};
  rt::BodyTable bodies = testing::make_faulty_bodies(g, rec, sink, inj, slow);

  pool::PoolConfig pc;
  pc.workers = 2;
  pc.lockfree = lockfree();
  pool::PoolRuntime pool(pc);
  pool::PoolRuntime::SubmitOptions opts;
  opts.granule_timeout = std::chrono::milliseconds{5};
  pool::JobHandle h = pool.submit(g.program, bodies, ExecConfig{}, opts);
  // Escalation is cooperative: the stuck body finishes its sleep, then the
  // job finalizes kFailed. wait() must ride through that.
  EXPECT_EQ(h.wait(), JobState::kFailed);
  pool.shutdown();

  const pool::JobStats js = h.stats();
  EXPECT_TRUE(js.watchdog_expired);
  EXPECT_EQ(js.granules_poisoned, 0u);  // nothing threw — watchdog terminal
  EXPECT_NE(js.fault_summary.find("watchdog"), std::string::npos);
  const pool::PoolStats ps = pool.stats();
  EXPECT_EQ(ps.jobs_failed, 1u);
  EXPECT_EQ(ps.watchdog_flags, 1u);
  EXPECT_EQ(ps.metrics.value_of("fault.watchdog_flags"), 1u);
}

TEST_P(FaultEngine, NoTimeoutMeansNoWatchdogFlag) {
  // A job slower than any poll interval but with no granule_timeout must
  // never be flagged — the watchdog only watches opted-in jobs.
  SinglePhase s = make_single_phase(4);
  std::atomic<std::uint64_t> n{0};
  rt::BodyTable bodies;
  bodies.set(s.p, [&n](GranuleRange r, WorkerId) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    n.fetch_add(r.size(), std::memory_order_relaxed);
  });
  pool::PoolConfig pc;
  pc.workers = 2;
  pc.lockfree = lockfree();
  pool::PoolRuntime pool(pc);
  pool::JobHandle h = pool.submit(s.prog, bodies, ExecConfig{});
  EXPECT_EQ(h.wait(), JobState::kComplete);
  pool.shutdown();
  EXPECT_EQ(n.load(), 4u);
  EXPECT_FALSE(h.stats().watchdog_expired);
  EXPECT_EQ(pool.stats().watchdog_flags, 0u);
}

}  // namespace
}  // namespace pax
