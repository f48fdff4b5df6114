// serve.cpp — pool_serve: an open loop of small jobs into pool::PoolRuntime.
//
// One generator thread (this one) submits Poisson arrivals at three fixed
// absolute rates — low and high below the pool's capacity, then overload
// above it — into a pool of nproc - 1 workers with EDF deadlines and bounded
// admission, so the generator and the workers together use nproc threads.
// Every job is timed from the moment it was *due*, not from when the
// generator got round to submitting it, so a stalled generator shows up as
// latency and as gen.lag_ms instead of hiding.
//
// The job stream mixes three small program shapes, all written in the PAX
// language and compiled in set-up: a CASPER-like identity chain, a SOR-like
// red/black loop with reverse-indirect enablement both ways, and a flat
// scan. Each job has a few tens of granules, one of which is a straggler.
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "lang/compiler.hpp"
#include "obs/trace_ring.hpp"
#include "pool/pool_runtime.hpp"
#include "rings.hpp"
#include "workloads.hpp"

namespace rb {
namespace {

using pax::GranuleId;
using pax::GranuleRange;
using pax::PhaseId;
using pax::WorkerId;
using pax::pool::JobState;

constexpr std::uint64_t kSpinPerTick = 16;  ///< as casper_rundown
constexpr int kTemplatesPerKind = 32;
constexpr std::uint32_t kMaxPending = 256;
constexpr std::chrono::milliseconds kDeadline{5};
/// The run cycles through rounds of this length; each round gives 30, 40
/// and 30 percent of its time to the low, high and overload rates. A slow
/// spell of the host then spoils a few rounds of every rate instead of all
/// of one rate, and the end-to-end figures are medians over rounds.
constexpr double kRoundSeconds = 2.0;
constexpr double kPhaseShare[3] = {0.3, 0.4, 0.3};
const char* const kRateNames[3] = {"low", "high", "overload"};

/// One job shape: a compiled program, its bodies and what a run of it must
/// execute.
struct Template {
  std::string kind;
  pax::PhaseProgram program;
  /// Busy-spin ticks per phase and granule (one granule per job is a
  /// straggler).
  std::vector<std::vector<std::uint32_t>> ticks;
  /// Phase execution order of one run (the SOR-like loop runs twice).
  std::vector<PhaseId> order;
  pax::rt::BodyTable bodies;  ///< wrapped, shared by all untraced jobs
  std::uint64_t granules = 0;
  double seq_ns = 0;          ///< median sequential run of the bodies

  [[nodiscard]] pax::rt::PhaseBody raw_body(PhaseId p) const {
    const std::vector<std::uint32_t>* t = &ticks[p];
    return [t](GranuleRange r, WorkerId) {
      for (GranuleId g = r.lo; g < r.hi; ++g) spin((*t)[g] * kSpinPerTick);
    };
  }
};

/// Restricts the calling thread to the pool's CPUs for its lifetime, so the
/// pool's threads start there, and gives it its full mask back at the end.
class PoolCpus {
 public:
  explicit PoolCpus(const std::vector<int>& pool) : all_(allowed_cpus()) { pin_self(pool); }
  PoolCpus(const PoolCpus&) = delete;
  PoolCpus& operator=(const PoolCpus&) = delete;
  ~PoolCpus() { pin_self(all_); }

 private:
  std::vector<int> all_;
};

/// The per-job correctness rule, kept in one place so the self-check feeds
/// the very function the measured jobs go through.
bool job_ok(JobState s, std::uint64_t granules, std::uint64_t expected,
            bool may_shed) {
  if (s == JobState::kComplete) return granules == expected;
  if (s == JobState::kRejected) return may_shed && granules == 0;
  return false;  // failed, cancelled, or not terminal
}

std::string chain_source(std::uint32_t phases, std::uint32_t granules) {
  std::string s;
  for (std::uint32_t p = 0; p < phases; ++p) {
    s += "DEFINE PHASE c" + std::to_string(p) + " GRANULES=" + std::to_string(granules) + "\n";
    if (p > 0) s += "  READS A" + std::to_string(p - 1) + "\n";
    s += "  WRITES A" + std::to_string(p) + "\nEND\n";
  }
  for (std::uint32_t p = 0; p < phases; ++p) {
    s += "DISPATCH c" + std::to_string(p);
    if (p + 1 < phases) s += " ENABLE [ c" + std::to_string(p + 1) + "/MAPPING=IDENTITY ]";
    s += "\n";
  }
  return s + "HALT\n";
}

std::string sor_source(std::uint32_t granules, std::uint32_t sweeps) {
  const std::string g = std::to_string(granules);
  return "DEFINE PHASE red GRANULES=" + g +
         "\n  READS phi INDIRECT STENCIL\n  WRITES phi_red\nEND\n"
         "DEFINE PHASE black GRANULES=" + g +
         "\n  READS phi_red INDIRECT STENCIL\n  WRITES phi\nEND\n"
         "LET sweep = 0\nLABEL top\n"
         "DISPATCH red ENABLE [ black/MAPPING=REVERSE/USING=STENCIL ]\n"
         "DISPATCH black ENABLE [ red/MAPPING=REVERSE/USING=STENCIL ]\n"
         "SERIAL bump NOCONFLICT SET sweep = sweep + 1\n"
         "IF sweep < " + std::to_string(sweeps) + " GOTO top\nHALT\n";
}

std::string scan_source(std::uint32_t granules) {
  return "DEFINE PHASE scan GRANULES=" + std::to_string(granules) +
         "\n  WRITES S\nEND\nDISPATCH scan\nHALT\n";
}

/// Everything measured about one rate phase.
struct PhaseOut {
  Samples sojourn_ms, lag_ms, submit_us, queued_ms, exec_ms;
  std::uint64_t submitted = 0, completed = 0, rejected = 0, bad = 0;
  std::uint64_t granules = 0, busy_ns = 0;
  std::uint64_t control_acq = 0, control_hold_ns = 0, ring_pops = 0, pop_empty = 0,
                push_full = 0, cas_retries = 0, steals = 0;
  Samples peak_queue;
  double window_s = 0;  ///< phase start to last terminal state
  double tail_util = 0;
  double util = 0, pool_util = 0, rotations = 0, job_locks = 0, steal_fails = 0;
  double seq_job_ns = 0;  ///< mean sequential job time, measured right after the phase
  std::uint64_t nivcsw = 0;
  std::uint64_t worker_wall_ns = 0;

  /// Pool the samples and counters of several phases run at one rate.
  void merge(const PhaseOut& o) {
    for (auto [mine, theirs] : {std::pair{&sojourn_ms, &o.sojourn_ms}, {&lag_ms, &o.lag_ms},
                                {&submit_us, &o.submit_us}, {&queued_ms, &o.queued_ms},
                                {&exec_ms, &o.exec_ms}, {&peak_queue, &o.peak_queue}})
      mine->add_all(*theirs);
    submitted += o.submitted;
    completed += o.completed;
    rejected += o.rejected;
    bad += o.bad;
    granules += o.granules;
    busy_ns += o.busy_ns;
    control_acq += o.control_acq;
    control_hold_ns += o.control_hold_ns;
    ring_pops += o.ring_pops;
    pop_empty += o.pop_empty;
    push_full += o.push_full;
    cas_retries += o.cas_retries;
    steals += o.steals;
    steal_fails += o.steal_fails;
    nivcsw += o.nivcsw;
    worker_wall_ns += o.worker_wall_ns;
  }
};

/// The phases run at one rate, round by round.
struct RateOut {
  std::vector<PhaseOut> rounds;
  PhaseOut all;  ///< every round pooled

  void add(PhaseOut p) {
    all.merge(p);
    rounds.push_back(std::move(p));
  }
  /// Median over rounds of a per-round figure.
  template <typename F>
  double median_of(F f) {
    Samples s;
    for (auto& r : rounds) s.add(f(r));
    return s.median();
  }
};

class PoolServe {
 public:
  PoolServe(const Options& opt, Report& rep)
      : opt_(opt), rep_(rep), workers_(opt.cpus - 1),
        spans_(workers_, opt.trace), ctx_(workers_, &spans_) {
    // The generator takes the last CPU, the pool the others.
    pool_cpus_ = allowed_cpus();
    if (pool_cpus_.size() >= 2) {
      gen_cpu_ = {pool_cpus_.back()};
      pool_cpus_.pop_back();
    }
    ctx_.set_worker_cpus(pool_cpus_);
  }

  void go() {
    Samples setup_s, build_ms, compile_ms, seq_ms;
    for (int k = 0; k < kSetupPasses; ++k) {
      const std::uint64_t id = spans_.next_id();
      const std::uint64_t t0 = now_ns();
      setup(build_ms, compile_ms, seq_ms, id);
      const std::uint64_t t1 = now_ns();
      spans_.main("setup", t0, t1, 0, 0, id);
      setup_s.add(static_cast<double>(t1 - t0) / 1e9);
    }
    if (job_ok(JobState::kComplete, templates_[0].granules + 1, templates_[0].granules, false))
      rep_.wrong("self-check: a job one granule off passed the checker");

    // Core layer: each template alone through the executive, one thread.
    Samples core_ns;
    for (auto& t : templates_) {
      Samples per;
      for (int k = 0; k < 5; ++k) {
        std::uint64_t g = 0;
        const double ns = core_drive_ns_per_granule(t.program, exec_config(), &g);
        if (ns < 0 || g != t.granules) {
          rep_.wrong("single-thread core drive stalled or miscounted on a " + t.kind + " job");
          rep_.op(false);
          break;
        }
        per.add(ns);
      }
      core_ns.add(per.median());
    }

    // Warm-up: a short low-rate burst, checked, not reported.
    run_phase(false, false, nullptr);

    RateOut out[3];
    for (int round = 0; round < rounds(); ++round)
      for (int r = 0; r < 3; ++r) {
        PhaseOut p = run_phase(r == 2, false, nullptr);
        // The sequential baseline of speedup_vs_seq is timed next to the
        // overload phase it divides, so a slow spell weighs on both.
        if (r == 2) p.seq_job_ns = seq_job_ns();
        out[r].add(std::move(p));
      }

    report(setup_s, build_ms, compile_ms, seq_ms, core_ns, out);
    if (opt_.trace)
      traced_leg(out[1].median_of([](PhaseOut& p) { return p.sojourn_ms.median(); }));
  }

 private:
  /// The traced run gives most of its time to the untraced phases, whose
  /// counters it reports; the traced phases are short so the rings stay
  /// small enough to hold every record.
  [[nodiscard]] double untraced_seconds() const {
    return opt_.trace ? opt_.seconds - traced_seconds() : opt_.seconds;
  }
  [[nodiscard]] double traced_seconds() const { return std::min(opt_.seconds / 4, kRoundSeconds); }
  [[nodiscard]] int rounds() const {
    return std::max(1, static_cast<int>(std::lround(untraced_seconds() / kRoundSeconds)));
  }

  /// One sequential run of every job shape in execution order; mean ns.
  double seq_job_ns() const {
    const std::uint64_t t0 = now_ns();
    for (const auto& t : templates_)
      for (PhaseId p : t.order) t.raw_body(p)({0, static_cast<GranuleId>(t.ticks[p].size())}, 0);
    return static_cast<double>(now_ns() - t0) / static_cast<double>(templates_.size());
  }

  [[nodiscard]] pax::ExecConfig exec_config() const {
    pax::ExecConfig cfg;
    cfg.early_serial = true;
    return cfg;
  }

  /// One set-up pass: generate the job shapes from the seed, compile them,
  /// build their bodies, time each sequentially, draw the arrival streams.
  void setup(Samples& build_ms, Samples& compile_ms, Samples& seq_ms,
             std::uint64_t parent) {
    templates_.clear();
    pax::Rng rng(opt_.seed);
    auto pick = [&rng](std::uint32_t lo, std::uint32_t hi) {
      return lo + static_cast<std::uint32_t>(rng.below(hi - lo + 1));
    };
    std::uint64_t t0 = now_ns();
    std::vector<std::string> sources;
    for (int k = 0; k < kTemplatesPerKind; ++k) {
      sources.push_back(chain_source(pick(3, 5), pick(8, 14)));
      sources.push_back(sor_source(pick(8, 14), 2));
      sources.push_back(scan_source(pick(24, 40)));
    }
    std::uint64_t t1 = now_ns();
    double build = static_cast<double>(t1 - t0);
    spans_.main("build", t0, t1, parent);

    t0 = now_ns();
    pax::lang::Compiler compiler;
    pax::IndirectionSpec stencil;
    stencil.requires_of = [](GranuleId g, std::vector<GranuleId>& need) {
      need.push_back(g);
      need.push_back(g > 0 ? g - 1 : g);
    };
    stencil.stable = true;
    compiler.bind("STENCIL", stencil);
    templates_.resize(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      pax::lang::CompileResult cr = pax::lang::compile_source(sources[i], compiler);
      if (!cr.ok)
        throw std::runtime_error("PAX compile failed: " +
                                 (cr.diags.empty() ? std::string("?") : cr.diags[0].render()));
      templates_[i].program = std::move(cr.program);
      templates_[i].kind = i % 3 == 0 ? "chain" : i % 3 == 1 ? "sor" : "scan";
    }
    t1 = now_ns();
    compile_ms.add(static_cast<double>(t1 - t0) / 1e6);
    spans_.main("lang.compile", t0, t1, parent);

    t0 = now_ns();
    for (auto& t : templates_) {
      const std::size_t nph = t.program.phase_count();
      t.ticks.assign(nph, {});
      for (std::size_t p = 0; p < nph; ++p) {
        t.ticks[p].resize(t.program.phase(static_cast<PhaseId>(p)).granules);
        for (auto& x : t.ticks[p]) x = pick(120, 360);
      }
      // The straggler: one granule ten times the mean.
      auto& sp = t.ticks[rng.below(nph)];
      sp[rng.below(sp.size())] = 2400;
      t.order.clear();
      const int loops = t.kind == "sor" ? 2 : 1;
      for (int l = 0; l < loops; ++l)
        for (std::size_t p = 0; p < nph; ++p) t.order.push_back(static_cast<PhaseId>(p));
      t.granules = 0;
      for (PhaseId p : t.order) t.granules += t.ticks[p].size();
      t.bodies = pax::rt::BodyTable{};
      for (std::size_t p = 0; p < nph; ++p)
        t.bodies.set(static_cast<PhaseId>(p), wrap_body(&ctx_, t.raw_body(static_cast<PhaseId>(p))));
    }
    t1 = now_ns();
    build += static_cast<double>(t1 - t0);
    build_ms.add(build / 1e6);
    spans_.main("build", t0, t1, parent);
    draw_arrivals(rng);

    // Sequential baseline: each shape's bodies in execution order.
    t0 = now_ns();
    double seq_sum = 0;
    for (auto& t : templates_) {
      Samples per;
      for (int k = 0; k < 5; ++k) {
        const std::uint64_t s0 = now_ns();
        for (PhaseId p : t.order) t.raw_body(p)({0, static_cast<GranuleId>(t.ticks[p].size())}, 0);
        per.add(static_cast<double>(now_ns() - s0));
      }
      t.seq_ns = per.median();
      seq_sum += t.seq_ns;
    }
    t1 = now_ns();
    seq_ms.add(seq_sum / static_cast<double>(templates_.size()) / 1e6);
    spans_.main("seq", t0, t1, parent);
  }

  /// Poisson arrival offsets and job shapes for each rate phase, plus the
  /// warm-up, drawn from the seed.
  void draw_arrivals(pax::Rng& rng) {
    arrivals_.clear();
    auto draw = [&](double rate, double seconds) {
      Stream s;
      double t = 0;
      while (true) {
        const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
        t += -std::log1p(-u) / rate;
        if (t >= seconds) break;
        s.due_ns.push_back(static_cast<std::uint64_t>(t * 1e9));
        s.shape.push_back(static_cast<std::uint32_t>(rng.below(templates_.size())));
      }
      return s;
    };
    arrivals_.push_back(draw(opt_.rates[0], 0.2));
    const double round_s = untraced_seconds() / rounds();
    for (int round = 0; round < rounds(); ++round)
      for (int r = 0; r < 3; ++r) arrivals_.push_back(draw(opt_.rates[r], round_s * kPhaseShare[r]));
    if (opt_.trace)
      for (int r = 0; r < 3; ++r)
        arrivals_.push_back(draw(opt_.rates[r], traced_seconds() * kPhaseShare[r]));
    next_stream_ = 0;
  }

  /// One rate phase on a fresh pool: submit the drawn stream on schedule,
  /// wait for every job, shut the pool down, check and collect.
  PhaseOut run_phase(bool may_shed, bool traced, RingTotals* rings) {
    PhaseOut out;
    const Stream& s = arrivals_.at(next_stream_++);
    std::unique_ptr<pax::obs::TraceBuffer> buf;
    if (traced) {
      std::uint64_t tasks = 0;
      for (std::uint32_t shape : s.shape) tasks += templates_[shape].granules;
      buf = std::make_unique<pax::obs::TraceBuffer>(
          workers_, pax::obs::TraceConfig{.ring_capacity = ring_capacity_for(tasks, workers_)});
    }
    ctx_.arm(nullptr, traced, 0, 0, may_shed);
    struct Sent {
      pax::pool::JobHandle h;
      std::uint64_t due, after;
      std::uint32_t shape;
      std::uint64_t span_id;
    };
    struct Ended {
      JobState state;
      pax::pool::JobStats stats;
      std::uint64_t due, after;
      std::uint32_t shape;
      std::uint64_t span_id;
    };
    // Handles are released as their jobs end (each one keeps its job's
    // executive alive); `ended` keeps what the checks and metrics need.
    std::deque<Sent> inflight;
    std::vector<Ended> ended;
    ended.reserve(s.due_ns.size());
    auto harvest = [&](bool block) {
      while (!inflight.empty()) {
        Sent& j = inflight.front();
        if (block) j.h.wait();
        else if (!j.h.done()) return;
        ended.push_back({j.h.state(), j.h.stats(), j.due, j.after, j.shape, j.span_id});
        inflight.pop_front();
        if (!block) return;
      }
    };
    // Traced jobs get their own body tables so each body span names its job.
    std::deque<pax::rt::BodyTable> job_bodies;
    const std::uint64_t nv0 = nivcsw_now();
    std::uint64_t phase_start = 0;
    {
      // The pool's threads start on the pool's CPUs, then the generator
      // takes its own CPU alone: nproc threads on nproc CPUs, and a submit
      // never waits behind a worker it just woke.
      const PoolCpus on_pool_cpus(pool_cpus_);
      pax::pool::PoolRuntime pool({.workers = workers_,
                                   .policy = pax::pool::SchedPolicy::kDeadline,
                                   .max_pending = kMaxPending,
                                   .trace = buf.get()});
      pin_self(gen_cpu_);
      phase_start = now_ns();
      for (std::size_t i = 0; i < s.due_ns.size(); ++i) {
        const std::uint64_t due = phase_start + s.due_ns[i];
        for (std::uint64_t now = now_ns(); now < due; now = now_ns())
          if (due - now > 20000) harvest(false);
        const Template& t = templates_[s.shape[i]];
        const pax::rt::BodyTable* bodies = &t.bodies;
        std::uint64_t span_id = 0;
        if (traced) {
          span_id = spans_.next_id();
          pax::rt::BodyTable& jb = job_bodies.emplace_back();
          for (std::size_t p = 0; p < t.ticks.size(); ++p)
            jb.set(static_cast<PhaseId>(p),
                   [this, inner = t.raw_body(static_cast<PhaseId>(p)), span_id,
                    i](GranuleRange r, WorkerId w) {
                     const auto b0 = Clock::now();
                     inner(r, w);
                     ctx_.on_body_of(w, b0, Clock::now(), r.size(), span_id, i + 1);
                   });
          bodies = &jb;
        }
        const std::uint64_t before = now_ns();
        pax::pool::JobHandle h = pool.submit(
            t.program, *bodies, exec_config(),
            pax::pool::PoolRuntime::SubmitOptions{.deadline = kDeadline});
        const std::uint64_t after = now_ns();
        out.lag_ms.add(static_cast<double>(before - due) / 1e6);
        out.submit_us.add(static_cast<double>(after - before) / 1e3);
        if (traced) spans_.main("pool.submit", before, after, span_id, i + 1);
        inflight.push_back({std::move(h), due, after, s.shape[i], span_id});
      }
      const std::uint64_t w0 = now_ns();
      harvest(true);
      spans_.main("pool.wait", w0, now_ns());
      pool.shutdown();
      const pax::pool::PoolStats ps = pool.stats();
      const double jobs = std::max<double>(1.0, static_cast<double>(ended.size()));
      out.util = static_cast<double>(ctx_.busy_ns());
      out.rotations = static_cast<double>(ps.rotations) / jobs;
      out.job_locks = static_cast<double>(ps.exec_lock_acquisitions) / jobs;
      out.steal_fails = static_cast<double>(ps.steal_fail_spins);
      out.pool_util = ps.utilization();
      for (auto w : ps.worker_wall) out.worker_wall_ns += static_cast<std::uint64_t>(w.count());
    }
    out.nivcsw = nivcsw_now() - nv0;

    std::uint64_t last_end = phase_start;
    for (std::size_t i = 0; i < ended.size(); ++i) {
      const Ended& j = ended[i];
      const Template& t = templates_[j.shape];
      const JobState st = j.state;
      const pax::pool::JobStats& js = j.stats;
      const bool ok = job_ok(st, js.granules, t.granules, may_shed);
      rep_.op(ok);
      ++out.submitted;
      if (!ok) {
        ++out.bad;
        if (st == JobState::kComplete)
          rep_.wrong(t.kind + " job ran " + std::to_string(js.granules) + " of " +
                     std::to_string(t.granules) + " granules");
        else if (out.bad <= 3)
          rep_.note(std::string("FAILED: job ended ") + pax::pool::to_string(st));
        continue;
      }
      if (st == JobState::kRejected) {
        ++out.rejected;
        continue;
      }
      ++out.completed;
      const std::uint64_t end = j.after + static_cast<std::uint64_t>(js.span.count());
      last_end = std::max(last_end, end);
      out.sojourn_ms.add(static_cast<double>(end - j.due) / 1e6);
      out.queued_ms.add(static_cast<double>(js.queued.count()) / 1e6);
      out.exec_ms.add(static_cast<double>((js.span - js.queued).count()) / 1e6);
      out.granules += js.granules;
      out.busy_ns += static_cast<std::uint64_t>(js.busy.count());
      out.control_acq += js.exec_control_acquisitions;
      out.control_hold_ns += js.exec_lock_hold_ns;
      out.ring_pops += js.shard_ring_pops;
      out.pop_empty += js.shard_ring_pop_empty;
      out.push_full += js.shard_ring_push_full;
      out.cas_retries += js.shard_ring_cas_retries;
      out.steals += js.steals;
      out.peak_queue.add(static_cast<double>(js.peak_local_queue));
      if (traced) spans_.main("job", j.due, end, 0, i + 1, j.span_id);
    }
    out.window_s = static_cast<double>(last_end - phase_start) / 1e9;
    out.util /= static_cast<double>(workers_) * static_cast<double>(last_end - phase_start);
    if (may_shed) out.tail_util = ctx_.logged_tail_util(workers_);
    if (rings != nullptr && buf) rings->add(*buf);
    if (traced && buf) last_records_ = pax::obs::merged_records(*buf);
    return out;
  }

  void report(Samples& setup_s, Samples& build_ms, Samples& compile_ms,
              Samples& seq_ms, Samples& core_ns, RateOut (&out)[3]) {
    PhaseOut& low = out[0].all;
    PhaseOut& high = out[1].all;
    PhaseOut& over = out[2].all;
    double seq_sum_ns = 0, seq_granules = 0;
    for (const auto& t : templates_) {
      seq_sum_ns += t.seq_ns;
      seq_granules += static_cast<double>(t.granules);
    }
    const double seq_ns_per_granule = seq_sum_ns / seq_granules;
    const std::uint64_t jobs = low.submitted + high.submitted + over.submitted;
    const std::uint64_t n_rounds = out[0].rounds.size();

    for (int r = 0; r < 3; ++r) {
      PhaseOut& a = out[r].all;
      std::printf("  rate %-8s %6.0f jobs/s x %llu rounds: %7llu submitted, %7llu completed, "
                  "%7llu shed, %llu bad; lag p50/p99 %.3f/%.3f ms, submit p50/p99 %.1f/%.1f us\n",
                  kRateNames[r], opt_.rates[r], static_cast<unsigned long long>(n_rounds),
                  static_cast<unsigned long long>(a.submitted),
                  static_cast<unsigned long long>(a.completed),
                  static_cast<unsigned long long>(a.rejected),
                  static_cast<unsigned long long>(a.bad), a.lag_ms.median(), a.lag_ms.pct(99),
                  a.submit_us.median(), a.submit_us.pct(99));
    }
    const double low_p50 = out[0].median_of([](PhaseOut& p) { return p.sojourn_ms.median(); });
    const double high_p50 = out[1].median_of([](PhaseOut& p) { return p.sojourn_ms.median(); });
    const double high_p90 = out[1].median_of([](PhaseOut& p) { return p.sojourn_ms.pct(90); });
    const double goodput = out[2].median_of(
        [](PhaseOut& p) { return static_cast<double>(p.completed) / p.window_s; });
    const double granules_ps = out[2].median_of(
        [](PhaseOut& p) { return static_cast<double>(p.granules) / p.window_s; });
    const double tail = out[2].median_of([](PhaseOut& p) { return p.tail_util; });
    const double util = out[2].median_of([](PhaseOut& p) { return p.util; });
    const double pool_util = out[2].median_of([](PhaseOut& p) { return p.pool_util; });
    const double speedup = out[2].median_of([](PhaseOut& p) {
      return static_cast<double>(p.completed) / p.window_s * p.seq_job_ns / 1e9;
    });
    // A high-rate job's sojourn over the sequential job time measured in the
    // same round: latency in units of the work itself.
    Samples stretch;
    for (std::size_t i = 0; i < n_rounds; ++i)
      stretch.add(out[1].rounds[i].sojourn_ms.median() / (out[2].rounds[i].seq_job_ns / 1e6));
    const double lag_p99 = std::max(low.lag_ms.pct(99), high.lag_ms.pct(99));
    if (lag_p99 > 0.5 * low_p50)
      rep_.flag("generator lag p99 " + std::to_string(lag_p99) +
                " ms is not well below the low-rate sojourn p50");

    // End to end. p50s and throughputs are medians over rounds; p99s pool
    // every job of the rate.
    rep_.add("setup_s", setup_s.median(), "s", setup_s.size());
    rep_.add("wall_ms.p50", high_p50, "ms", n_rounds);
    rep_.add("wall_ms.p90", high_p90, "ms", n_rounds);
    rep_.add("granules_per_s", granules_ps, "1/s", n_rounds);
    rep_.add("tail_util", tail, "frac", n_rounds);
    rep_.add("speedup_vs_seq", speedup, "x", n_rounds);
    rep_.add("stretch.p50", stretch.median(), "x", n_rounds);
    rep_.add("alpha_eff", pax::bench::vegh_alpha_eff(speedup, workers_), "frac", n_rounds);
    rep_.add("sojourn_ms.p50.low", low_p50, "ms", n_rounds);
    rep_.add("sojourn_ms.p99.low", low.sojourn_ms.pct(99), "ms", low.sojourn_ms.size());
    rep_.add("sojourn_ms.p50.high", high_p50, "ms", n_rounds);
    rep_.add("sojourn_ms.p99.high", high.sojourn_ms.pct(99), "ms", high.sojourn_ms.size());
    rep_.add("goodput_jobs_per_s.overload", goodput, "1/s", n_rounds);
    rep_.add("shed_frac.overload",
             static_cast<double>(over.rejected) / static_cast<double>(over.submitted), "frac",
             over.submitted);
    rep_.add("fail_frac",
             static_cast<double>(rep_.failed()) / static_cast<double>(rep_.attempted()),
             "frac", rep_.attempted());

    // Per layer. Executive, shard and scheduler counters are per-job sums at
    // the high rate; pool-plane counters come from the overload pools.
    const double g = static_cast<double>(high.granules);
    rep_.add("build_ms", build_ms.median(), "ms", build_ms.size());
    rep_.add("lang.compile_ms", compile_ms.median(), "ms", compile_ms.size());
    rep_.add("seq_ms", seq_ms.median(), "ms", seq_ms.size());
    rep_.add("core.ns_per_granule", core_ns.median(), "ns", core_ns.size());
    rep_.add("core.mgmt_ratio", seq_ns_per_granule / core_ns.median(), "x", core_ns.size());
    rep_.add("exec.control_acq_per_kgranule", 1e3 * static_cast<double>(high.control_acq) / g, "count", high.completed);
    rep_.add("exec.control_hold_ns_per_granule", static_cast<double>(high.control_hold_ns) / g, "ns", high.completed);
    rep_.add("shard.ring_pops_per_kgranule", 1e3 * static_cast<double>(high.ring_pops) / g, "count", high.completed);
    rep_.add("shard.pop_empty_per_kgranule", 1e3 * static_cast<double>(high.pop_empty) / g, "count", high.completed);
    rep_.add("shard.push_full_per_kgranule", 1e3 * static_cast<double>(high.push_full) / g, "count", high.completed);
    rep_.add("shard.cas_retries_per_kgranule", 1e3 * static_cast<double>(high.cas_retries) / g, "count", high.completed);
    rep_.add("sched.steals_per_kgranule", 1e3 * static_cast<double>(high.steals) / g, "count", high.completed);
    rep_.add("sched.steal_fail_per_kgranule", 1e3 * high.steal_fails / g, "count", high.completed);
    rep_.add("sched.peak_local_queue", high.peak_queue.median(), "count", high.completed);
    rep_.add("runtime.util", util, "frac", n_rounds);
    rep_.add("runtime.work_inflation", (static_cast<double>(high.busy_ns) / g) / seq_ns_per_granule,
             "x", high.completed);
    rep_.add("pool.submit_us.p50", high.submit_us.median(), "us", high.submit_us.size());
    rep_.add("pool.submit_us.p99", high.submit_us.pct(99), "us", high.submit_us.size());
    rep_.add("pool.queued_ms.p50", high.queued_ms.median(), "ms", high.queued_ms.size());
    rep_.add("pool.queued_ms.p99", high.queued_ms.pct(99), "ms", high.queued_ms.size());
    rep_.add("pool.exec_ms.p50", high.exec_ms.median(), "ms", high.exec_ms.size());
    rep_.add("pool.rotations_per_job",
             out[2].median_of([](PhaseOut& p) { return p.rotations; }), "count", n_rounds);
    rep_.add("pool.job_locks_per_job",
             out[2].median_of([](PhaseOut& p) { return p.job_locks; }), "count", n_rounds);
    rep_.add("pool.util", pool_util, "frac", n_rounds);
    rep_.add("gen.lag_ms.p99", lag_p99, "ms", low.lag_ms.size() + high.lag_ms.size());
    rep_.add("host.nivcsw_per_op",
             static_cast<double>(low.nivcsw + high.nivcsw + over.nivcsw) / static_cast<double>(jobs),
             "count", jobs);
  }

  /// The traced phases: the program's rings and the benchmark's spans on.
  void traced_leg(double untraced_high_p50) {
    RingTotals rings;
    PhaseOut out[3];
    std::uint64_t worker_wall = 0;
    for (int r = 0; r < 3; ++r) {
      out[r] = run_phase(r == 2, true, &rings);
      worker_wall += out[r].worker_wall_ns;
    }
    const double ww = static_cast<double>(worker_wall);
    const double body = static_cast<double>(rings.body_ns) / ww;
    const double sleep = static_cast<double>(rings.sleep_ns) / ww;
    const std::uint64_t n = out[0].submitted + out[1].submitted + out[2].submitted;
    rep_.add("trace.body_frac", body, "frac", n);
    rep_.add("trace.sleep_frac", sleep, "frac", n);
    rep_.add("trace.other_frac", 1.0 - body - sleep, "frac", n);
    rep_.add("trace.overhead_frac",
             out[1].sojourn_ms.median() / untraced_high_p50 - 1.0, "frac",
             out[1].sojourn_ms.size());
    rep_.add("trace.dropped", static_cast<double>(rings.dropped), "count", n);
    if (rings.dropped != 0) rep_.flag("trace rings dropped records");

    const std::vector<Span> all = spans_.all();
    print_self_times(opt_.workload.c_str(), self_times(all));
    const std::string path = opt_.out_dir + "/" + opt_.workload + "-seed" +
                             std::to_string(opt_.seed) + ".trace.json";
    // The span file holds the last traced phase (overload) and the set-up.
    std::vector<Span> keep;
    const std::uint64_t from = last_records_.empty() ? 0 : last_records_.front().ts_ns;
    for (const Span& s : all)
      if (s.group == 0 || s.start >= from) keep.push_back(s);
    if (write_merged_trace(path, std::move(keep), std::move(last_records_)))
      rep_.note("trace file: " + path);
    else
      rep_.flag("cannot write trace file " + path);
  }

  struct Stream {
    std::vector<std::uint64_t> due_ns;  ///< offsets from the phase start
    std::vector<std::uint32_t> shape;   ///< template index per arrival
  };

  const Options& opt_;
  Report& rep_;
  std::uint32_t workers_;
  SpanLog spans_;
  BodyCtx ctx_;
  std::vector<int> pool_cpus_, gen_cpu_;
  std::vector<Template> templates_;
  std::vector<Stream> arrivals_;
  std::size_t next_stream_ = 0;
  std::vector<pax::obs::TraceRecord> last_records_;
};

}  // namespace

void run_pool_serve(const Options& opt, Report& rep) {
  PoolServe(opt, rep).go();
}

}  // namespace rb
