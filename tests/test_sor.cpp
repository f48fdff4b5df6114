// Checkerboard SOR: the paper's motivating example. Core property: the
// overlapped parallel solver produces *bitwise identical* grids to the
// sequential solver, because enablement admits exactly the legal orders.
#include <gtest/gtest.h>

#include "casper/sor.hpp"
#include "runtime/threaded_runtime.hpp"
#include "sim/machine.hpp"
#include <cmath>
#include <algorithm>

namespace pax::casper {
namespace {

Grid make_problem(std::uint32_t nx, std::uint32_t ny) {
  Grid g(nx, ny, 0.0);
  g.set_boundary(/*hot=*/100.0, /*cold=*/0.0);
  return g;
}

TEST(Checkerboard, GeometryRoundTrips) {
  Checkerboard board(10, 7);
  for (Color c : {Color::kRed, Color::kBlack}) {
    for (GranuleId g = 0; g < board.cells(c); ++g) {
      const auto [x, y] = board.cell(c, g);
      EXPECT_TRUE(x > 0 && x < 9 && y > 0 && y < 6);
      EXPECT_EQ((x + y) % 2, static_cast<std::uint32_t>(c));
      EXPECT_EQ(board.granule_at(c, x, y), g);
    }
  }
  // Interior cell counts partition the interior.
  EXPECT_EQ(board.cells(Color::kRed) + board.cells(Color::kBlack), 8u * 5u);
}

TEST(Checkerboard, NeighboursAreOppositeColourAndAdjacent) {
  Checkerboard board(12, 12);
  for (GranuleId g = 0; g < board.cells(Color::kBlack); ++g) {
    const auto [x, y] = board.cell(Color::kBlack, g);
    for (GranuleId r : board.neighbours(Color::kBlack, g)) {
      const auto [rx, ry] = board.cell(Color::kRed, r);
      const std::uint32_t dist =
          (rx > x ? rx - x : x - rx) + (ry > y ? ry - y : y - ry);
      EXPECT_EQ(dist, 1u);
    }
  }
}

TEST(Sor, SequentialConverges) {
  Grid g = make_problem(18, 18);
  solve_sequential(g, 1.5, 300);
  // Interior should have warmed up toward the hot boundary.
  EXPECT_GT(g.at(9, 16), 50.0);
  EXPECT_LT(g.at(9, 1), 10.0);
  // Laplace residual should be small after many sweeps.
  double residual = 0.0;
  for (std::uint32_t y = 1; y + 1 < g.ny(); ++y)
    for (std::uint32_t x = 1; x + 1 < g.nx(); ++x)
      residual = std::max(residual,
                          std::fabs(0.25 * (g.at(x - 1, y) + g.at(x + 1, y) +
                                            g.at(x, y - 1) + g.at(x, y + 1)) -
                                    g.at(x, y)));
  EXPECT_LT(residual, 1e-6);
}

/// Workers, overlap, sweeps, and the threaded runtime's refill batch: the
/// default kAutoBatch (refills sized from measured body and control-section
/// cost) or the explicit single-item handoff.
using SorParam = std::tuple<int, bool, int, std::uint32_t>;

class SorParity : public ::testing::TestWithParam<SorParam> {};

TEST_P(SorParity, ThreadedMatchesSequentialBitwise) {
  const auto [workers, overlap, sweeps, batch] = GetParam();
  const std::uint32_t nx = 22, ny = 16;
  const double omega = 1.4;

  Grid reference = make_problem(nx, ny);
  solve_sequential(reference, omega, static_cast<std::uint32_t>(sweeps));

  Grid parallel = make_problem(nx, ny);
  SorProgram sp =
      build_sor_program(parallel, omega, static_cast<std::uint32_t>(sweeps));
  ExecConfig cfg;
  cfg.grain = 8;
  cfg.overlap = overlap;
  cfg.early_serial = true;  // allow cross-sweep overlap through the loop
  rt::RtConfig rc;
  rc.workers = static_cast<std::uint32_t>(workers);
  rc.batch = batch;
  rt::ThreadedRuntime runtime(sp.program, cfg, CostModel::free_of_charge(),
                              sp.bodies, rc);
  rt::RtResult res = runtime.run();

  EXPECT_EQ(res.granules_executed,
            static_cast<std::uint64_t>(sp.board->cells(Color::kRed) +
                                       sp.board->cells(Color::kBlack)) *
                static_cast<std::uint64_t>(sweeps));
  EXPECT_TRUE(Grid::identical(reference, parallel))
      << "max diff: " << Grid::max_diff(reference, parallel);
  EXPECT_TRUE(res.diagnostics.empty());
  // Queue geometry: 64 slots under auto, 2x batch with stealing otherwise.
  EXPECT_LE(res.peak_local_queue,
            batch == kAutoBatch ? std::uint64_t{sched::kAutoRefillMax}
                                : std::uint64_t{2} * batch);
}

std::string sor_parity_name(const ::testing::TestParamInfo<SorParam>& info) {
  // Appended piecewise: GCC 12 -O3 misreads `"w" + std::to_string(...)` as
  // an overlapping memcpy (-Werror=restrict).
  std::string name = "w";
  name += std::to_string(std::get<0>(info.param));
  name += std::get<1>(info.param) ? "_overlap" : "_barrier";
  name += "_s";
  name += std::to_string(std::get<2>(info.param));
  name += std::get<3>(info.param) == kAutoBatch ? "_auto" : "_batch1";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SorParity,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),    // workers
                       ::testing::Values(false, true),      // overlap
                       ::testing::Values(1, 3, 6),          // sweeps
                       ::testing::Values(kAutoBatch, 1u)),  // batch
    sor_parity_name);

TEST(Sor, SimulatedOverlapBeatsBarrierDuringRundown) {
  // The paper's introduction example in miniature: P close to cells/phase,
  // idealized (free) management so the pure rundown effect is visible.
  // 30x30 grid -> 392 cells/colour; 392 = 3*128 + 8, so the barrier wastes
  // most of the fourth round of every phase.
  Grid g = make_problem(30, 30);
  SorProgram sp = build_sor_program(g, 1.4, 4);
  sim::Workload wl(5);
  sim::PhaseWorkload pw;
  pw.model = sim::DurationModel::kFixed;
  pw.mean = 100;
  wl.set_phase(0, pw);
  wl.set_phase(1, pw);
  sim::MachineConfig mc;
  mc.workers = 128;

  ExecConfig barrier;
  barrier.overlap = false;
  barrier.grain = 1;
  ExecConfig overlap = barrier;
  overlap.overlap = true;
  overlap.early_serial = true;

  const CostModel free = CostModel::free_of_charge();
  const auto r_b = sim::simulate(sp.program, barrier, free, wl, mc);
  const auto r_o = sim::simulate(sp.program, overlap, free, wl, mc);
  EXPECT_EQ(r_b.granules_executed, r_o.granules_executed);
  EXPECT_LT(r_o.makespan, r_b.makespan);
  EXPECT_GT(r_o.utilization(), r_b.utilization());
}

}  // namespace
}  // namespace pax::casper
