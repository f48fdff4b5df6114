// batch.cpp — the two closed-loop batch workloads: casper_rundown (the
// 22-phase CASPER pipeline with irregular busy-spin bodies) and sor_fine
// (checkerboard SOR on a large grid, management-bound). One program runs at
// a time on rt::ThreadedRuntime with workers = nproc, back to back.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "casper/grid.hpp"
#include "casper/pipeline.hpp"
#include "casper/sor.hpp"
#include "common/rng.hpp"
#include "obs/trace_ring.hpp"
#include "rings.hpp"
#include "runtime/threaded_runtime.hpp"
#include "sim/machine.hpp"
#include "workloads.hpp"

namespace rb {
namespace {

using pax::GranuleId;
using pax::GranuleRange;
using pax::PhaseId;
using pax::WorkerId;

/// Layer times of the set-up passes.
struct SetupTimes {
  Samples build_ms, seq_ms, sim_ms;
};

/// A closed-loop batch workload: one program, run back to back.
class Batch {
 public:
  virtual ~Batch() = default;
  /// One set-up pass: make the inputs from the seed, build the program,
  /// measure the sequential baseline. Spans go under `parent`.
  virtual void setup(SetupTimes& t, SpanLog& spans, std::uint64_t parent) = 0;
  [[nodiscard]] virtual const pax::PhaseProgram& program() const = 0;
  [[nodiscard]] virtual pax::ExecConfig exec_config() const = 0;
  [[nodiscard]] virtual const pax::rt::BodyTable& bodies() const = 0;
  [[nodiscard]] virtual std::uint64_t granules() const = 0;
  /// Reset the inputs before a run (not timed).
  virtual void prepare_run() = 0;
  /// Verify the outputs of the run that just ended (not timed).
  virtual bool check_run(std::string& why) = 0;
  /// Feed the checker one deliberately corrupted copy of the last correct
  /// outcome; true when the checker reports it as a failure.
  virtual bool selfcheck_fires() = 0;
  /// One plain single-threaded run of the same problem; returns its ms.
  virtual double seq_once_ms() = 0;
  /// Workload-specific metrics once the medians are known.
  virtual void extra_metrics(Report&, double /*wall_p50_ms*/, double /*seq_ms*/) {}
};

// --- casper_rundown ----------------------------------------------------------

/// Hash rounds of busy-spin per simulator tick: a CASPER granule of mean
/// ~2*lines ticks then takes about a microsecond and a half of body time.
constexpr std::uint64_t kSpinPerTick = 16;

class CasperRundown final : public Batch {
 public:
  CasperRundown(std::uint64_t seed, std::uint32_t workers, BodyCtx* ctx)
      : seed_(seed), workers_(workers), ctx_(ctx) {}

  void setup(SetupTimes& t, SpanLog& spans, std::uint64_t parent) override {
    std::uint64_t t0 = now_ns();
    pipe_ = pax::casper::build_casper_pipeline({.iterations = 1, .scale = 1, .seed = seed_});
    const std::size_t n = pipe_.info.size();
    ticks_.assign(n, {});
    counts_ = std::make_unique<std::vector<std::vector<std::atomic<std::uint32_t>>>>(n);
    total_ticks_ = 0;
    granules_ = 0;
    for (std::size_t p = 0; p < n; ++p) {
      const GranuleId g_n = pipe_.info[p].granules;
      ticks_[p].resize(g_n);
      for (GranuleId g = 0; g < g_n; ++g) {
        ticks_[p][g] = static_cast<std::uint32_t>(
            pipe_.workload.granule_duration(static_cast<PhaseId>(p), g));
        total_ticks_ += ticks_[p][g];
      }
      (*counts_)[p] = std::vector<std::atomic<std::uint32_t>>(g_n);
      granules_ += g_n;
    }
    bodies_ = pax::rt::BodyTable{};
    for (std::size_t p = 0; p < n; ++p)
      bodies_.set(static_cast<PhaseId>(p), wrap_body(ctx_, raw_body(p)));
    std::uint64_t t1 = now_ns();
    t.build_ms.add(static_cast<double>(t1 - t0) / 1e6);
    spans.main("casper.build", t0, t1, parent);

    t0 = now_ns();
    t.seq_ms.add(seq_once_ms());
    spans.main("casper.seq", t0, now_ns(), parent);

    // The simulator on the same program and the same sim::Workload.
    t0 = now_ns();
    pax::sim::MachineConfig mc;
    mc.workers = workers_;
    mc.record_intervals = false;
    mc.steal = true;
    const pax::sim::SimResult sr =
        pax::sim::simulate(pipe_.program, exec_config(), pax::CostModel{},
                           pipe_.workload, mc);
    t1 = now_ns();
    t.sim_ms.add(static_cast<double>(t1 - t0) / 1e6);
    spans.main("sim.simulate", t0, t1, parent);
    sim_makespan_ticks_ = sr.makespan;
    sim_granules_ = sr.granules_executed;
  }

  [[nodiscard]] const pax::PhaseProgram& program() const override { return pipe_.program; }
  [[nodiscard]] pax::ExecConfig exec_config() const override {
    pax::ExecConfig cfg;
    cfg.grain = 8;
    cfg.early_serial = true;
    return cfg;
  }
  [[nodiscard]] const pax::rt::BodyTable& bodies() const override { return bodies_; }
  [[nodiscard]] std::uint64_t granules() const override { return granules_; }

  void prepare_run() override {}

  /// The same bodies in phase order on this thread.
  double seq_once_ms() override {
    const std::uint64_t t0 = now_ns();
    for (std::size_t p = 0; p < pipe_.info.size(); ++p)
      raw_body(p)({0, pipe_.info[p].granules}, 0);
    const std::uint64_t t1 = now_ns();
    reset_counts();
    return static_cast<double>(t1 - t0) / 1e6;
  }

  bool check_run(std::string& why) override {
    const bool ok = counts_ok(snapshot_counts(), why);
    reset_counts();
    return ok;
  }

  bool selfcheck_fires() override {
    // A correct outcome (every granule once) with one count missing.
    std::vector<std::vector<std::uint32_t>> c;
    for (const auto& p : ticks_) c.emplace_back(p.size(), 1u);
    c[c.size() / 2][c[c.size() / 2].size() / 2] = 0;
    std::string why;
    return !counts_ok(c, why);
  }

  void extra_metrics(Report& rep, double wall_p50_ms, double seq_ms) override {
    // Ticks scaled to ns by the sequential loop's measured ns per tick.
    const double ns_per_tick = seq_ms * 1e6 / static_cast<double>(total_ticks_);
    const double predicted_ms = static_cast<double>(sim_makespan_ticks_) * ns_per_tick / 1e6;
    rep.add("sim.makespan_error", (predicted_ms - wall_p50_ms) / wall_p50_ms,
            "frac", 1);
    if (sim_granules_ != granules_)
      rep.flag("simulator executed " + std::to_string(sim_granules_) + " of " +
               std::to_string(granules_) + " granules");
  }

 private:
  pax::rt::PhaseBody raw_body(std::size_t p) {
    const std::vector<std::uint32_t>* ticks = &ticks_[p];
    std::vector<std::atomic<std::uint32_t>>* counts = &(*counts_)[p];
    return [ticks, counts](GranuleRange r, WorkerId) {
      for (GranuleId g = r.lo; g < r.hi; ++g) {
        spin((*ticks)[g] * kSpinPerTick);
        (*counts)[g].fetch_add(1, std::memory_order_relaxed);
      }
    };
  }

  std::vector<std::vector<std::uint32_t>> snapshot_counts() const {
    std::vector<std::vector<std::uint32_t>> out;
    for (const auto& p : *counts_) {
      out.emplace_back(p.size());
      for (std::size_t g = 0; g < p.size(); ++g)
        out.back()[g] = p[g].load(std::memory_order_relaxed);
    }
    return out;
  }

  /// Exactly once per granule.
  static bool counts_ok(const std::vector<std::vector<std::uint32_t>>& c,
                        std::string& why) {
    for (std::size_t p = 0; p < c.size(); ++p)
      for (std::size_t g = 0; g < c[p].size(); ++g)
        if (c[p][g] != 1) {
          why = "phase " + std::to_string(p) + " granule " + std::to_string(g) +
                " ran " + std::to_string(c[p][g]) + " times";
          return false;
        }
    return true;
  }

  void reset_counts() {
    for (auto& p : *counts_)
      for (auto& g : p) g.store(0, std::memory_order_relaxed);
  }

  std::uint64_t seed_;
  std::uint32_t workers_;
  BodyCtx* ctx_;
  pax::casper::CasperPipeline pipe_;
  std::vector<std::vector<std::uint32_t>> ticks_;
  std::unique_ptr<std::vector<std::vector<std::atomic<std::uint32_t>>>> counts_;
  pax::rt::BodyTable bodies_;
  std::uint64_t granules_ = 0, total_ticks_ = 0;
  pax::SimTime sim_makespan_ticks_ = 0;
  std::uint64_t sim_granules_ = 0;
};

// --- sor_fine ------------------------------------------------------------------

constexpr std::uint32_t kSorN = 514;  ///< grid side: 512 x 512 interior cells
constexpr std::uint32_t kSorSweeps = 10;
constexpr double kSorOmega = 1.5;

class SorFine final : public Batch {
 public:
  SorFine(std::uint64_t seed, BodyCtx* ctx) : seed_(seed), ctx_(ctx) {}

  void setup(SetupTimes& t, SpanLog& spans, std::uint64_t parent) override {
    std::uint64_t t0 = now_ns();
    initial_ = std::make_unique<pax::casper::Grid>(kSorN, kSorN, 0.0);
    pax::Rng rng(seed_);
    auto u01 = [&rng] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
    const double hot = 50.0 + 100.0 * u01();
    initial_->set_boundary(hot, 0.0);
    for (std::uint32_t y = 1; y + 1 < kSorN; ++y)
      for (std::uint32_t x = 1; x + 1 < kSorN; ++x) initial_->at(x, y) = hot * u01();
    work_ = std::make_unique<pax::casper::Grid>(*initial_);
    sor_ = std::make_unique<pax::casper::SorProgram>(
        pax::casper::build_sor_program(*work_, kSorOmega, kSorSweeps));
    bodies_ = pax::rt::BodyTable{};
    for (PhaseId p : {sor_->red_phase, sor_->black_phase})
      bodies_.set(p, wrap_body(ctx_, sor_->bodies.of(p)));
    granules_ = static_cast<std::uint64_t>(
                    sor_->program.phase(sor_->red_phase).granules +
                    sor_->program.phase(sor_->black_phase).granules) *
                kSorSweeps;
    std::uint64_t t1 = now_ns();
    t.build_ms.add(static_cast<double>(t1 - t0) / 1e6);
    spans.main("casper.build", t0, t1, parent);

    t0 = now_ns();
    reference_.reset();
    t.seq_ms.add(seq_once_ms());
    spans.main("casper.seq", t0, now_ns(), parent);
  }

  /// solve_sequential on a fresh copy of the input. The first solve is the
  /// reference; later ones must reproduce it.
  double seq_once_ms() override {
    auto g = std::make_unique<pax::casper::Grid>(*initial_);
    const std::uint64_t t0 = now_ns();
    pax::casper::solve_sequential(*g, kSorOmega, kSorSweeps);
    const std::uint64_t t1 = now_ns();
    if (reference_ == nullptr) reference_ = std::move(g);
    else if (!pax::casper::Grid::identical(*g, *reference_))
      throw std::runtime_error("solve_sequential is not deterministic");
    return static_cast<double>(t1 - t0) / 1e6;
  }

  [[nodiscard]] const pax::PhaseProgram& program() const override { return sor_->program; }
  [[nodiscard]] pax::ExecConfig exec_config() const override {
    pax::ExecConfig cfg;
    cfg.grain = 64;
    cfg.early_serial = true;
    return cfg;
  }
  [[nodiscard]] const pax::rt::BodyTable& bodies() const override { return bodies_; }
  [[nodiscard]] std::uint64_t granules() const override { return granules_; }

  void prepare_run() override { *work_ = *initial_; }

  bool check_run(std::string& why) override {
    if (pax::casper::Grid::identical(*work_, *reference_)) return true;
    why = "grid differs from solve_sequential (max |diff| " +
          std::to_string(pax::casper::Grid::max_diff(*work_, *reference_)) + ")";
    return false;
  }

  bool selfcheck_fires() override {
    pax::casper::Grid corrupted(*reference_);
    corrupted.at(kSorN / 2, kSorN / 2) += 1.0;
    return !pax::casper::Grid::identical(corrupted, *reference_);
  }

 private:
  std::uint64_t seed_;
  BodyCtx* ctx_;
  std::unique_ptr<pax::casper::Grid> initial_, work_, reference_;
  std::unique_ptr<pax::casper::SorProgram> sor_;
  pax::rt::BodyTable bodies_;
  std::uint64_t granules_ = 0;
};

// --- the closed loop -------------------------------------------------------------

/// Share of the measured wall time spent on interleaved sequential runs.
constexpr double kSeqShare = 0.15;

struct RunOut {
  double wall_ms = 0;
  double tail_util = 0;
  std::uint64_t body_ns = 0;
  std::uint64_t nivcsw = 0;
  pax::rt::RtResult res;
};

/// Sums of the program's own counters over measured runs.
struct Counters {
  std::uint64_t granules = 0, control_acq = 0, control_hold_ns = 0, ring_pops = 0,
                pop_empty = 0, push_full = 0, cas_retries = 0, shard_hits = 0,
                sibling_hits = 0, steals = 0, steal_fails = 0, wakeups = 0;
  Samples peak_queue, spawn_join_ms;

  void add(const pax::rt::RtResult& r) {
    const auto& m = r.metrics;
    granules += m.value_of("worker.granules");
    control_acq += m.value_of("exec.control_acquisitions");
    control_hold_ns += m.value_of("exec.control_hold_ns");
    ring_pops += m.value_of("shard.ring.pop");
    pop_empty += m.value_of("shard.ring.pop_empty");
    push_full += m.value_of("shard.ring.push_full");
    cas_retries += m.value_of("shard.ring.cas_retries");
    shard_hits += m.value_of("shard.hits");
    sibling_hits += m.value_of("shard.sibling_hits");
    steals += m.value_of("worker.steals");
    steal_fails += m.value_of("worker.steal_fail_spins");
    wakeups += m.value_of("worker.wait_wakeups");
    peak_queue.add(static_cast<double>(m.value_of("queue.peak_occupancy")));
    std::chrono::nanoseconds longest{0};
    for (auto w : r.worker_wall) longest = std::max(longest, w);
    spawn_join_ms.add(static_cast<double>((r.wall - longest).count()) / 1e6);
  }
};

class ClosedLoop {
 public:
  ClosedLoop(const Options& opt, Report& rep, Batch& w, BodyCtx& ctx, SpanLog& spans)
      : opt_(opt), rep_(rep), w_(w), ctx_(ctx), spans_(spans) {}

  /// One program run: construct the runtime, run, verify. `trace` non-null
  /// turns on the program's rings and the benchmark's spans.
  RunOut run_once(std::uint64_t index, pax::obs::TraceBuffer* trace) {
    RunOut out;
    w_.prepare_run();
    pax::bench::RundownProbe probe(w_.granules());
    const std::uint64_t run_id = trace != nullptr ? spans_.next_id() : 0;
    ctx_.arm(&probe, trace != nullptr, run_id, index);
    pax::rt::RtConfig rc;
    rc.workers = opt_.cpus;
    rc.trace = trace;
    const std::uint64_t nv0 = nivcsw_now();
    const std::uint64_t t0 = now_ns();
    {
      pax::rt::ThreadedRuntime runtime(w_.program(), w_.exec_config(),
                                       pax::CostModel{}, w_.bodies(), rc);
      out.res = runtime.run();
    }
    const std::uint64_t t1 = now_ns();
    out.nivcsw = nivcsw_now() - nv0;
    if (trace != nullptr) spans_.main("runtime.run", t0, t1, 0, index, run_id);
    out.wall_ms = static_cast<double>(t1 - t0) / 1e6;
    out.tail_util = probe.window_utilization(opt_.cpus);
    out.body_ns = ctx_.busy_ns();

    std::string why;
    bool ok = w_.check_run(why);
    const std::uint64_t executed = out.res.metrics.value_of("worker.granules");
    if (ok && executed != w_.granules()) {
      ok = false;
      why = "executed " + std::to_string(executed) + " granules, expected " +
            std::to_string(w_.granules());
    }
    if (ok && out.res.faulted) {
      ok = false;
      why = "run faulted: " + out.res.fault_summary;
    }
    rep_.op(ok);
    if (!ok) rep_.wrong("run " + std::to_string(index) + ": " + why);
    return out;
  }

  void go() {
    const std::uint32_t workers = opt_.cpus;

    // Set-up, several passes; setup_s is their median.
    SetupTimes st;
    Samples setup_s;
    for (int k = 0; k < kSetupPasses; ++k) {
      const std::uint64_t id = spans_.next_id();
      const std::uint64_t t0 = now_ns();
      w_.setup(st, spans_, id);
      const std::uint64_t t1 = now_ns();
      spans_.main("setup", t0, t1, 0, 0, id);
      setup_s.add(static_cast<double>(t1 - t0) / 1e9);
    }

    // Core layer: the program alone through the executive, one thread.
    Samples core_ns;
    for (int k = 0; k < 5; ++k) {
      std::uint64_t g = 0;
      const std::uint64_t t0 = now_ns();
      const double ns = core_drive_ns_per_granule(w_.program(), w_.exec_config(), &g);
      spans_.main("core.drive", t0, now_ns());
      if (ns < 0 || g != w_.granules()) {
        rep_.wrong("single-thread core drive stalled or miscounted granules");
        rep_.op(false);
        break;
      }
      core_ns.add(ns);
    }

    // Warm-up (checked, not timed), then the corrupted-outcome self-check.
    for (int k = 0; k < 2; ++k) run_once(0, nullptr);
    if (!w_.selfcheck_fires()) rep_.wrong("self-check: corrupted outcome passed the checker");

    // Measured closed loop, tracing off.
    const double untraced_s = opt_.trace ? opt_.seconds / 2 : opt_.seconds;
    Samples wall, tail, nivcsw;
    Counters c;
    double sum_wall_ms = 0, sum_seq_ms = 0;
    std::uint64_t body_ns = 0;
    const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(untraced_s * 1e9);
    for (std::uint64_t i = 1; now_ns() < deadline; ++i) {
      RunOut r = run_once(i, nullptr);
      wall.add(r.wall_ms);
      tail.add(r.tail_util);
      nivcsw.add(static_cast<double>(r.nivcsw));
      sum_wall_ms += r.wall_ms;
      body_ns += r.body_ns;
      c.add(r.res);
      // Sequential samples interleaved with the parallel runs, so a slow
      // spell of the host weighs on both sides of speedup_vs_seq.
      if (sum_seq_ms < kSeqShare * sum_wall_ms) {
        const double ms = w_.seq_once_ms();
        st.seq_ms.add(ms);
        sum_seq_ms += ms;
      }
    }
    const std::uint64_t runs = wall.size();
    if (runs < 100)
      rep_.flag("only " + std::to_string(runs) + " runs: p90 has fewer than 10 samples beyond it");
    // A few involuntary switches per run are the host's background noise;
    // a run far above the median was preempted for real.
    const double preempt_limit = 2 * nivcsw.median() + 4;
    if (const double p = nivcsw.pct(99); p > preempt_limit)
      rep_.flag("preempted samples: p99 of involuntary context switches per run is " +
                std::to_string(static_cast<int>(p)) + ", above 2 x median + 4 = " +
                std::to_string(static_cast<int>(preempt_limit)));

    const double seq_ms = st.seq_ms.median();
    const double wall_p50 = wall.median();
    const double speedup = seq_ms / wall_p50;
    const double g = static_cast<double>(c.granules);
    const double seq_body_ns_per_granule = seq_ms * 1e6 / static_cast<double>(w_.granules());

    // End to end.
    rep_.add("setup_s", setup_s.median(), "s", setup_s.size());
    rep_.add("wall_ms.p50", wall_p50, "ms", runs);
    rep_.add("wall_ms.p90", wall.pct(90), "ms", runs);
    rep_.add("granules_per_s", static_cast<double>(w_.granules()) / (wall_p50 / 1e3), "1/s", runs);
    rep_.add("tail_util", tail.median(), "frac", runs);
    rep_.add("speedup_vs_seq", speedup, "x", runs);
    rep_.add("stretch.p50", wall_p50 / seq_ms, "x", runs);
    rep_.add("alpha_eff", pax::bench::vegh_alpha_eff(speedup, workers), "frac", runs);
    rep_.add("fail_frac",
             static_cast<double>(rep_.failed()) / static_cast<double>(rep_.attempted()),
             "frac", rep_.attempted());

    // Per layer.
    rep_.add("build_ms", st.build_ms.median(), "ms", st.build_ms.size());
    rep_.add("seq_ms", seq_ms, "ms", st.seq_ms.size());
    if (!st.sim_ms.empty()) rep_.add("sim.simulate_ms", st.sim_ms.median(), "ms", st.sim_ms.size());
    w_.extra_metrics(rep_, wall_p50, seq_ms);
    rep_.add("core.ns_per_granule", core_ns.median(), "ns", core_ns.size());
    rep_.add("core.mgmt_ratio", seq_body_ns_per_granule / core_ns.median(), "x", core_ns.size());
    rep_.add("exec.control_acq_per_kgranule", 1e3 * static_cast<double>(c.control_acq) / g, "count", runs);
    rep_.add("exec.control_hold_ns_per_granule", static_cast<double>(c.control_hold_ns) / g, "ns", runs);
    rep_.add("shard.ring_pops_per_kgranule", 1e3 * static_cast<double>(c.ring_pops) / g, "count", runs);
    rep_.add("shard.pop_empty_per_kgranule", 1e3 * static_cast<double>(c.pop_empty) / g, "count", runs);
    rep_.add("shard.push_full_per_kgranule", 1e3 * static_cast<double>(c.push_full) / g, "count", runs);
    rep_.add("shard.cas_retries_per_kgranule", 1e3 * static_cast<double>(c.cas_retries) / g, "count", runs);
    rep_.add("shard.sibling_hit_frac",
             static_cast<double>(c.sibling_hits) /
                 std::max<double>(1.0, static_cast<double>(c.shard_hits + c.sibling_hits)),
             "frac", runs);
    rep_.add("sched.steals_per_kgranule", 1e3 * static_cast<double>(c.steals) / g, "count", runs);
    rep_.add("sched.steal_fail_per_kgranule", 1e3 * static_cast<double>(c.steal_fails) / g, "count", runs);
    rep_.add("sched.peak_local_queue", c.peak_queue.median(), "count", runs);
    rep_.add("runtime.util", static_cast<double>(body_ns) / (workers * sum_wall_ms * 1e6), "frac", runs);
    rep_.add("runtime.wait_wakeups_per_kgranule", 1e3 * static_cast<double>(c.wakeups) / g, "count", runs);
    rep_.add("runtime.spawn_join_ms", c.spawn_join_ms.median(), "ms", runs);
    rep_.add("runtime.work_inflation",
             (static_cast<double>(body_ns) / g) / seq_body_ns_per_granule, "x", runs);
    rep_.add("host.nivcsw_per_op", nivcsw.mean(), "count", runs);

    if (opt_.trace) traced_leg(wall_p50);
  }

 private:
  /// The traced runs: the program's rings on, the benchmark's spans on.
  void traced_leg(double untraced_p50) {
    const std::uint64_t tasks = w_.granules() / w_.exec_config().grain + 1;
    const std::size_t cap = ring_capacity_for(tasks, opt_.cpus);
    Samples wall;
    RingTotals rings;
    std::uint64_t worker_wall_ns = 0;
    std::vector<pax::obs::TraceRecord> first_records;
    constexpr std::uint64_t kMaxTracedRuns = 10;
    for (std::uint32_t w = 0; w < opt_.cpus; ++w)
      spans_.reserve(w, 2 * kMaxTracedRuns * tasks / opt_.cpus);
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(opt_.seconds / 4 * 1e9);
    for (std::uint64_t i = 1; i <= kMaxTracedRuns && (i <= 3 || now_ns() < deadline); ++i) {
      pax::obs::TraceBuffer buf(opt_.cpus, {.ring_capacity = cap});
      const RunOut r = run_once(1000000 + i, &buf);
      wall.add(r.wall_ms);
      rings.add(buf);
      for (auto ww : r.res.worker_wall) worker_wall_ns += static_cast<std::uint64_t>(ww.count());
      if (i == 1) first_records = pax::obs::merged_records(buf);
    }
    const double ww = static_cast<double>(worker_wall_ns);
    const double body = static_cast<double>(rings.body_ns) / ww;
    const double sleep = static_cast<double>(rings.sleep_ns) / ww;
    rep_.add("trace.body_frac", body, "frac", wall.size());
    rep_.add("trace.sleep_frac", sleep, "frac", wall.size());
    rep_.add("trace.other_frac", 1.0 - body - sleep, "frac", wall.size());
    rep_.add("trace.overhead_frac", wall.median() / untraced_p50 - 1.0, "frac", wall.size());
    rep_.add("trace.dropped", static_cast<double>(rings.dropped), "count", wall.size());
    if (rings.dropped != 0) rep_.flag("trace rings dropped records");

    const std::vector<Span> all = spans_.all();
    print_self_times(opt_.workload.c_str(), self_times(all));
    // The span file holds the set-up spans and the first traced run.
    std::vector<Span> keep;
    for (const Span& s : all)
      if (s.group == 0 || s.group == 1000001) keep.push_back(s);
    const std::string path = opt_.out_dir + "/" + opt_.workload + "-seed" +
                             std::to_string(opt_.seed) + ".trace.json";
    if (write_merged_trace(path, std::move(keep), std::move(first_records)))
      rep_.note("trace file: " + path);
    else
      rep_.flag("cannot write trace file " + path);
  }

  const Options& opt_;
  Report& rep_;
  Batch& w_;
  BodyCtx& ctx_;
  SpanLog& spans_;
};

}  // namespace

void run_casper_rundown(const Options& opt, Report& rep) {
  SpanLog spans(opt.cpus, opt.trace);
  BodyCtx ctx(opt.cpus, &spans);
  ctx.set_worker_cpus(allowed_cpus());
  CasperRundown w(opt.seed, opt.cpus, &ctx);
  ClosedLoop(opt, rep, w, ctx, spans).go();
}

void run_sor_fine(const Options& opt, Report& rep) {
  SpanLog spans(opt.cpus, opt.trace);
  BodyCtx ctx(opt.cpus, &spans);
  ctx.set_worker_cpus(allowed_cpus());
  SorFine w(opt.seed, &ctx);
  ClosedLoop(opt, rep, w, ctx, spans).go();
}

}  // namespace rb
