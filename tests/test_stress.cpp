// Seeded randomized stress harness: one seed generates a random phase
// program plus driver configs (workers, batch, shards, steal, cancel
// points), and the harness runs the *same* program through the threaded
// runtime, the pool runtime and the simulator, cross-checking the scheduler
// stack's invariants (see tests/testing_util.hpp — exactly-once retirement,
// stats-sum consistency, shard-census integrity, sim determinism).
//
// Seed count knobs:
//   PAX_STRESS_SEEDS=<n>  total seeds (default 200; the TSAN CI job runs a
//                         reduced count, the nightly sweep a larger one)
//   PAX_STRESS_SEED=<s>   replay exactly one seed (printed by any failure)
//
// The seed space is split across eight gtest cases, each registered as its
// own CTest entry (see CMakeLists.txt), so `ctest -R stress -j` genuinely
// parallelizes the sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "testing_util.hpp"

namespace pax {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// Base offset so seed values differ from other suites' magic constants.
constexpr std::uint64_t kSeedBase = 1000;

std::uint64_t total_seeds() { return env_u64("PAX_STRESS_SEEDS", 200); }

/// Run one of the eight seed-space shards (ctest -j runs them in parallel).
void run_shard(std::uint64_t shard, std::uint64_t n_shards) {
  if (const char* replay = std::getenv("PAX_STRESS_SEED");
      replay != nullptr && *replay != '\0') {
    // Replay mode: the named seed runs in shard 0 only.
    if (shard == 0) pax::testing::run_seed(std::strtoull(replay, nullptr, 10));
    return;
  }
  const std::uint64_t n = total_seeds();
  const std::uint64_t lo = shard * n / n_shards;
  const std::uint64_t hi = (shard + 1) * n / n_shards;
  for (std::uint64_t s = lo; s < hi; ++s) {
    pax::testing::run_seed(kSeedBase + s);
    if (::testing::Test::HasFatalFailure()) return;  // seed already traced
  }
}

/// Serve-mode shard: the same seed space, but driven through the pool's
/// serving surface (EDF deadlines, bounded admission, random pre-open and
/// mid-run cancels — see testing_util.hpp run_serve_checked). Split into
/// four cases for ctest -j, like the three-runtime sweep.
void run_serve_shard(std::uint64_t shard, std::uint64_t n_shards) {
  if (const char* replay = std::getenv("PAX_STRESS_SEED");
      replay != nullptr && *replay != '\0') {
    if (shard == 0)
      pax::testing::run_serve_checked(pax::testing::generate_program(
          std::strtoull(replay, nullptr, 10)));
    return;
  }
  const std::uint64_t n = total_seeds();
  const std::uint64_t lo = shard * n / n_shards;
  const std::uint64_t hi = (shard + 1) * n / n_shards;
  for (std::uint64_t s = lo; s < hi; ++s) {
    SCOPED_TRACE("serve seed=" + std::to_string(kSeedBase + s) +
                 " (replay: PAX_STRESS_SEED=" + std::to_string(kSeedBase + s) +
                 " ctest -R stress_serve)");
    pax::testing::run_serve_checked(
        pax::testing::generate_program(kSeedBase + s));
    if (::testing::Test::HasFatalFailure()) return;  // seed already traced
  }
}

TEST(Stress, ThreeRuntimeSweepShard0) { run_shard(0, 8); }
TEST(Stress, ThreeRuntimeSweepShard1) { run_shard(1, 8); }
TEST(Stress, ThreeRuntimeSweepShard2) { run_shard(2, 8); }
TEST(Stress, ThreeRuntimeSweepShard3) { run_shard(3, 8); }
TEST(Stress, ThreeRuntimeSweepShard4) { run_shard(4, 8); }
TEST(Stress, ThreeRuntimeSweepShard5) { run_shard(5, 8); }
TEST(Stress, ThreeRuntimeSweepShard6) { run_shard(6, 8); }
TEST(Stress, ThreeRuntimeSweepShard7) { run_shard(7, 8); }

/// Fault-dimension shard: the same seed space with seeded transient faults
/// injected into the bodies (testing_util.hpp run_fault_checked) — the
/// exception barrier, retry machinery and fault accounting must preserve
/// exactly-once retirement and the stats-sum identities on both runtimes
/// and both shard engines.
void run_fault_shard(std::uint64_t shard, std::uint64_t n_shards) {
  if (const char* replay = std::getenv("PAX_STRESS_SEED");
      replay != nullptr && *replay != '\0') {
    if (shard == 0)
      pax::testing::run_fault_checked(std::strtoull(replay, nullptr, 10));
    return;
  }
  const std::uint64_t n = total_seeds();
  const std::uint64_t lo = shard * n / n_shards;
  const std::uint64_t hi = (shard + 1) * n / n_shards;
  for (std::uint64_t s = lo; s < hi; ++s) {
    pax::testing::run_fault_checked(kSeedBase + s);
    if (::testing::Test::HasFatalFailure()) return;  // seed already traced
  }
}

TEST(Stress, ServeSweepShard0) { run_serve_shard(0, 4); }
TEST(Stress, ServeSweepShard1) { run_serve_shard(1, 4); }
TEST(Stress, ServeSweepShard2) { run_serve_shard(2, 4); }
TEST(Stress, ServeSweepShard3) { run_serve_shard(3, 4); }

TEST(Stress, FaultSweepShard0) { run_fault_shard(0, 4); }
TEST(Stress, FaultSweepShard1) { run_fault_shard(1, 4); }
TEST(Stress, FaultSweepShard2) { run_fault_shard(2, 4); }
TEST(Stress, FaultSweepShard3) { run_fault_shard(3, 4); }

// A handful of pinned seeds that exercised distinct machinery when the
// harness was introduced (indirect subsets + elevation, deferred splits,
// pool cancels, explicit shard counts); kept stable as named regressions
// independent of the sweep size.
TEST(Stress, PinnedIndirectElevation) { pax::testing::run_seed(7); }
TEST(Stress, PinnedDeferredSplit) { pax::testing::run_seed(23); }
TEST(Stress, PinnedPoolCancel) { pax::testing::run_seed(42); }
TEST(Stress, PinnedExplicitShards) { pax::testing::run_seed(58); }
// A granule of phase 2 faults while phase 3's identity overlap is set up:
// the retry-parked descriptor must still get its tracking successor piece,
// or phase 3 never finishes (the run hangs with every worker asleep).
TEST(Stress, PinnedFaultRetryUnderIdentityOverlap) {
  pax::testing::run_fault_checked(3495);
}

}  // namespace
}  // namespace pax
