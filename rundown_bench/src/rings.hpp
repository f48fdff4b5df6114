// rings.hpp — reading the program's own obs::TraceBuffer rings in the traced
// run, and writing them merged with the benchmark's spans to one file.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_ring.hpp"

namespace rb {

/// Where worker wall time went, summed over traced runs.
struct RingTotals {
  std::uint64_t body_ns = 0;   ///< matched exec begin/end pairs
  std::uint64_t sleep_ns = 0;  ///< matched sleep/wake pairs
  std::uint64_t dropped = 0;

  void add(const pax::obs::TraceBuffer& buf) {
    for (std::uint64_t b : pax::obs::busy_ns_by_worker(buf)) body_ns += b;
    std::vector<pax::obs::TraceRecord> ring;
    for (std::uint32_t w = 0; w < buf.workers(); ++w) {
      ring.clear();
      buf.ring(w).snapshot_into(ring);
      std::uint64_t since = 0;
      bool asleep = false;
      for (const auto& r : ring) {
        if (r.kind == pax::obs::TraceKind::kSleep) {
          since = r.ts_ns;
          asleep = true;
        } else if (r.kind == pax::obs::TraceKind::kWake && asleep) {
          sleep_ns += r.ts_ns - since;
          asleep = false;
        }
      }
    }
    dropped += buf.total_dropped();
  }
};

/// Ring capacity that holds `tasks` executions spread over `workers` with
/// room for refill, steal and sleep records (TraceRing rounds it up to a
/// power of two).
inline std::size_t ring_capacity_for(std::uint64_t tasks, std::uint32_t workers) {
  return static_cast<std::size_t>(
      std::max<std::uint64_t>(1u << 14, 8 * tasks / workers + 4096));
}

/// Chrome trace-event JSON (opens in ui.perfetto.dev): the benchmark's spans
/// as complete events on their tracks, the program's ring records as
/// instants, all in one array sorted by the shared steady-clock timestamp.
inline bool write_merged_trace(const std::string& path, std::vector<Span> spans,
                               std::vector<pax::obs::TraceRecord> records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.ts_ns < b.ts_ns; });
  std::uint64_t t0 = ~std::uint64_t{0};
  if (!spans.empty()) t0 = spans.front().start;
  if (!records.empty()) t0 = std::min(t0, records.front().ts_ns);
  auto us = [t0](std::uint64_t ns) { return static_cast<double>(ns - t0) / 1e3; };
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  std::size_t i = 0, j = 0;
  while (i < spans.size() || j < records.size()) {
    const bool take_span =
        j == records.size() || (i < spans.size() && spans[i].start <= records[j].ts_ns);
    std::fputs(first ? "" : ",\n", f);
    first = false;
    if (take_span) {
      const Span& s = spans[i++];
      std::fprintf(f,
                   "{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"name\": \"%s\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                   "\"parent\": %llu, \"group\": %llu}}",
                   s.track, s.name, us(s.start),
                   static_cast<double>(s.end - s.start) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.group));
    } else {
      const auto& r = records[j++];
      std::fprintf(f,
                   "{\"ph\": \"i\", \"s\": \"t\", \"pid\": 2, \"tid\": %u, "
                   "\"name\": \"%s\", \"ts\": %.3f, \"args\": {\"job\": %lld, "
                   "\"phase\": %u, \"lo\": %u, \"hi\": %u, \"aux\": %u}}",
                   static_cast<unsigned>(r.worker), pax::obs::to_string(r.kind),
                   us(r.ts_ns),
                   r.job == pax::obs::kNoTraceJob ? -1LL : static_cast<long long>(r.job),
                   static_cast<unsigned>(r.phase), static_cast<unsigned>(r.range.lo),
                   static_cast<unsigned>(r.range.hi), static_cast<unsigned>(r.aux));
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace rb
