// harness.hpp — measurement plumbing shared by the benchmark's workloads:
// clocks, CPU placement, sample sets with percentiles, the metric report,
// the span log of the traced run, host preemption counters and the
// busy-spin the synthetic bodies run.
//
// Everything here sits *outside* the program under test: the benchmark times
// calls into the public functions of each layer and reads the counters the
// program already returns. It changes nothing under src/.
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace rb {

using Clock = std::chrono::steady_clock;

/// Steady-clock nanoseconds since the clock's epoch — the same axis the
/// program's own trace rings stamp (obs::trace_now_ns), so benchmark spans
/// and ring records merge by timestamp.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// The CPUs the calling thread may run on, ascending (what `nproc` counts).
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

/// Number of allowed CPUs, at least 2.
inline std::uint32_t online_cpus() {
  return static_cast<std::uint32_t>(std::max<std::size_t>(2, allowed_cpus().size()));
}

/// Restrict the calling thread to `cpus` (no-op when empty). Threads it
/// starts afterwards inherit the mask.
inline void pin_self(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Involuntary context switches of the whole process so far (all threads,
/// exited ones included). A delta over one program run above zero means a
/// thread of that run was preempted.
inline std::uint64_t nivcsw_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nivcsw);
}

/// Busy-spin of `iters` dependent hash rounds. The chain cannot be
/// vectorised or folded, and the sink keeps the result alive.
inline std::atomic<std::uint64_t> g_spin_sink{0};
inline void spin(std::uint64_t iters) {
  std::uint64_t acc = iters;
  for (std::uint64_t i = 0; i < iters; ++i)
    acc += (i * 2654435761u) ^ (acc >> 7);
  g_spin_sink.fetch_add(acc, std::memory_order_relaxed);
}

/// A set of samples with nearest-rank percentiles.
class Samples {
 public:
  void add(double v) { v_.push_back(v); sorted_ = false; }
  void add_all(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_ = false;
  }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] double pct(double p) {
    if (v_.empty()) return 0.0;
    sort();
    auto rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v_.size()));
    return v_[std::min(rank, v_.size() - 1)];
  }
  [[nodiscard]] double median() { return pct(50); }
  [[nodiscard]] double sum() const {
    double s = 0;
    for (double x : v_) s += x;
    return s;
  }
  [[nodiscard]] double mean() const {
    return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
  }

 private:
  void sort() {
    if (!sorted_) std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  std::vector<double> v_;
  bool sorted_ = false;
};

/// One reported metric: value, unit and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t n = 0;
};

/// The run's outcome: every metric by name, plus operation and failure
/// counts. Printed as a table for people and as one machine-readable line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::uint64_t n) {
    metrics_.push_back({name, value, unit, n});
  }
  /// An operation was attempted; `ok` false counts it as failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A program output was wrong (counted as a failed operation by the
  /// caller too); it makes the whole run incorrect.
  void wrong(const std::string& what) {
    correct_ = false;
    note("WRONG: " + what);
  }
  void flag(const std::string& what) { note("FLAG: " + what); }
  void note(const std::string& what) {
    std::printf("  %s\n", what.c_str());
    std::fflush(stdout);
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  void print_table(const char* workload) const {
    std::printf("\n%-40s %16s  %-8s %8s   [%s]\n", "metric", "value", "unit",
                "samples", workload);
    for (const auto& m : metrics_)
      std::printf("%-40s %16.6g  %-8s %8llu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.n));
    std::printf("%-40s %16llu\n%-40s %16llu\n", "attempted",
                static_cast<unsigned long long>(attempted_), "failed",
                static_cast<unsigned long long>(failed_));
  }

  /// `RESULT {...}`: every metric with unit and sample count.
  void print_result_line() const {
    std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"n\": %llu}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.n));
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// One span recorded by the benchmark around a call into a layer.
/// `group` is shared by every span of one program run or pool job.
struct Span {
  std::uint64_t start = 0, end = 0;  ///< steady-clock ns
  std::uint64_t id = 0, parent = 0;  ///< parent 0 = root
  std::uint64_t group = 0;
  std::uint32_t track = 0;           ///< worker id, or kMainTrack
  const char* name = "";             ///< static string
};

inline constexpr std::uint32_t kMainTrack = 0xFFFFu;

/// In-memory span log. Worker threads append to their own lane (single
/// writer each); lanes are read after the threads that wrote them joined.
/// Disabled logs record nothing and cost one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t worker_lanes = 0, bool enabled = false)
      : enabled_(enabled), lanes_(worker_lanes + 1) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// A fresh span id (ids are unique across lanes).
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void record(std::uint32_t lane, const Span& s) {
    if (enabled_) lanes_[lane].push_back(s);
  }
  /// Main-thread span; `id` 0 draws a fresh one (pass an id taken earlier
  /// when children had to point at the span before it ended).
  std::uint64_t main(const char* name, std::uint64_t start, std::uint64_t end,
                     std::uint64_t parent = 0, std::uint64_t group = 0,
                     std::uint64_t id = 0) {
    if (!enabled_) return 0;
    if (id == 0) id = next_id();
    lanes_.back().push_back({start, end, id, parent, group, kMainTrack, name});
    return id;
  }
  void reserve(std::uint32_t lane, std::size_t n) {
    if (enabled_) lanes_[lane].reserve(n);
  }
  [[nodiscard]] std::vector<Span> all() const {
    std::vector<Span> out;
    for (const auto& l : lanes_) out.insert(out.end(), l.begin(), l.end());
    return out;
  }

 private:
  bool enabled_;
  std::vector<std::vector<Span>> lanes_;
  std::atomic<std::uint64_t> next_id_{1};
};

/// Self time per span name: a span's duration minus the part of it that its
/// child spans cover (the union of the children's intervals, clipped to the
/// parent). Printed as the traced run's per-layer table.
struct SelfTime {
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

inline std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids;
  for (const auto& s : spans)
    if (s.parent != 0) kids[s.parent].push_back({s.start, s.end});
  std::map<std::string, SelfTime> out;
  for (const auto& s : spans) {
    std::uint64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    SelfTime& st = out[s.name];
    const std::uint64_t dur = s.end - s.start;
    ++st.count;
    st.total_ms += static_cast<double>(dur) / 1e6;
    st.self_ms += static_cast<double>(dur - std::min(dur, covered)) / 1e6;
  }
  return out;
}

inline void print_self_times(const char* workload,
                             const std::map<std::string, SelfTime>& t) {
  std::printf("\nself time by span [%s]\n%-24s %10s %14s %14s\n", workload,
              "span", "count", "total ms", "self ms");
  for (const auto& [name, st] : t)
    std::printf("%-24s %10llu %14.3f %14.3f\n", name.c_str(),
                static_cast<unsigned long long>(st.count), st.total_ms,
                st.self_ms);
}

}  // namespace rb
