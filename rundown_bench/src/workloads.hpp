// workloads.hpp — the benchmark's three workloads and the pieces they share:
// command-line options, the body wrapper that times every body call, and the
// single-thread executive drive that prices the core layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/executive.hpp"
#include "harness.hpp"
#include "runtime/body_table.hpp"

namespace rb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  /// pool_serve arrival rates in jobs/s: low, high, overload.
  std::vector<double> rates;
  std::uint32_t cpus = 2;
};

/// Set-up passes per run; setup_s is their median.
inline constexpr int kSetupPasses = 7;

struct alignas(64) PaddedCounter {
  std::uint64_t v = 0;
};

/// State every wrapped body reports into. Per-worker cells are written only
/// by the worker that owns the id and read after the run's threads joined.
class BodyCtx {
 public:
  BodyCtx(std::uint32_t workers, SpanLog* spans) : busy_(workers), spans_(spans) {}

  /// Arm for one program run (or one pool phase). `probe` may be null.
  /// `log` keeps every body interval, for a rundown window computed after
  /// the fact (the pool, whose granule total is known only at the end).
  void arm(pax::bench::RundownProbe* probe, bool trace, std::uint64_t parent,
           std::uint64_t group, bool log = false) {
    for (auto& b : busy_) b.v = 0;
    for (auto& l : log_) l.clear();
    probe_ = probe;
    trace_ = trace && spans_ != nullptr && spans_->enabled();
    parent_ = parent;
    group_ = group;
    logging_ = log;
  }

  void on_body(pax::WorkerId w, Clock::time_point t0, Clock::time_point t1,
               std::uint64_t granules) {
    on_body_of(w, t0, t1, granules, parent_, group_);
  }

  /// As on_body, with the span's parent and group given by the caller.
  void on_body_of(pax::WorkerId w, Clock::time_point t0, Clock::time_point t1,
                  std::uint64_t granules, std::uint64_t parent, std::uint64_t group) {
    if (!worker_cpus_.empty()) pin_worker(worker_cpus_[w % worker_cpus_.size()]);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0);
    busy_[w].v += static_cast<std::uint64_t>(ns.count());
    if (probe_ != nullptr) probe_->on_body(t0, t1, granules);
    if (logging_) log_[w].push_back({t0, t1, granules});
    if (trace_) {
      const auto s = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t0.time_since_epoch())
              .count());
      spans_->record(w, {s, s + static_cast<std::uint64_t>(ns.count()),
                         spans_->next_id(), parent, group, w, "body"});
    }
  }

  /// Pin worker w to worker_cpus[w % size] on its first body call. Left to
  /// itself the OS can keep two workers on one vCPU while another idles
  /// for a whole run (seen on pool_serve: one of three pool CPUs idle,
  /// goodput 9000 -> 3700 jobs/s); one worker per CPU takes placement out
  /// of the measurement.
  void set_worker_cpus(std::vector<int> cpus) { worker_cpus_ = std::move(cpus); }

  [[nodiscard]] std::uint64_t busy_ns() const {
    std::uint64_t s = 0;
    for (const auto& b : busy_) s += b.v;
    return s;
  }

  /// The RundownProbe window utilization over the logged body intervals,
  /// replayed in end-time order.
  [[nodiscard]] double logged_tail_util(std::uint32_t workers) const {
    std::vector<Interval> all;
    std::uint64_t total = 0;
    for (const auto& l : log_) {
      all.insert(all.end(), l.begin(), l.end());
      for (const auto& i : l) total += i.granules;
    }
    if (total == 0) return 0.0;
    std::sort(all.begin(), all.end(),
              [](const Interval& a, const Interval& b) { return a.t1 < b.t1; });
    pax::bench::RundownProbe probe(total);
    for (const auto& i : all) probe.on_body(i.t0, i.t1, i.granules);
    return probe.window_utilization(workers);
  }

 private:
  /// Pins the calling thread once; worker threads are fresh per run or
  /// pool, so a thread-local latch is exact.
  static void pin_worker(int cpu) {
    thread_local int pinned = -1;
    if (pinned == cpu) return;
    pin_self({cpu});
    pinned = cpu;
  }

  struct Interval {
    Clock::time_point t0, t1;
    std::uint64_t granules;
  };
  std::vector<PaddedCounter> busy_;
  std::vector<std::vector<Interval>> log_ = std::vector<std::vector<Interval>>(busy_.size());
  std::vector<int> worker_cpus_;
  bool logging_ = false;
  SpanLog* spans_;
  pax::bench::RundownProbe* probe_ = nullptr;
  bool trace_ = false;
  std::uint64_t parent_ = 0, group_ = 0;
};

/// Wrap a phase body so each call is timed and reported to `ctx`.
inline pax::rt::PhaseBody wrap_body(BodyCtx* ctx, pax::rt::PhaseBody inner) {
  return [ctx, inner = std::move(inner)](pax::GranuleRange r, pax::WorkerId w) {
    const auto t0 = Clock::now();
    inner(r, w);
    const auto t1 = Clock::now();
    ctx->on_body(w, t0, t1, r.size());
  };
}

/// Drive `program` to completion on one thread through the executive core's
/// public protocol (start, request_work_batch, complete_batch), with no
/// bodies. Returns ns per granule handed out, or a negative value when the
/// core stalled (no work, no idle work, not finished).
inline double core_drive_ns_per_granule(const pax::PhaseProgram& program,
                                        const pax::ExecConfig& cfg,
                                        std::uint64_t* granules_out = nullptr) {
  pax::ExecutiveCore core(program, cfg);
  std::vector<pax::Assignment> out;
  std::vector<pax::Ticket> tickets;
  std::uint64_t granules = 0;
  const std::uint64_t t0 = now_ns();
  core.start();
  while (!core.finished()) {
    out.clear();
    if (core.request_work_batch(0, 64, out) == 0) {
      if (!core.idle_work()) return -1.0;
      continue;
    }
    tickets.clear();
    for (const auto& a : out) {
      tickets.push_back(a.ticket);
      granules += a.range.size();
    }
    core.complete_batch(tickets);
  }
  const std::uint64_t t1 = now_ns();
  if (granules_out != nullptr) *granules_out = granules;
  return granules == 0 ? -1.0
                       : static_cast<double>(t1 - t0) / static_cast<double>(granules);
}

void run_casper_rundown(const Options& opt, Report& rep);
void run_sor_fine(const Options& opt, Report& rep);
void run_pool_serve(const Options& opt, Report& rep);

}  // namespace rb
