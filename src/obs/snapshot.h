// One unified observability snapshot, as a value: the MetricsRegistry's
// counters, gauges and histograms (with their buckets; the module.*
// histograms are the Figure-12 self-time table, Profiler::Modules), the
// derived ratios (cache hit rates, log utilization, cleaning overhead)
// computed from those same counters and gauges, and the trace journal's
// totals and most recent events.
//
// TakeSnapshot collects it and ToJson renders it. The server ships it
// pickled over the wire (kStats, src/server/wire.h), `examples/tdb_stats`
// prints it, local or fetched, with one set of printers, and every `--json`
// bench embeds its JSON alongside its timings.

#ifndef SRC_OBS_SNAPSHOT_H_
#define SRC_OBS_SNAPSHOT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"

namespace tdb::obs {

struct StatsSnapshot {
  // A trace event that owns its module name (TraceEvent's points at a
  // static string of the emitting process).
  struct Event {
    uint64_t seq = 0;
    uint64_t t_us = 0;
    TraceKind kind = TraceKind::kCommit;
    std::string module;
    uint64_t a = 0;
    uint64_t b = 0;
    std::string detail;
  };

  // Whether each source was recording. A snapshot with everything disabled
  // is still valid: it reflects whatever was recorded while enabled.
  bool metrics_enabled = false;
  bool trace_enabled = false;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::vector<MetricsRegistry::HistogramSnapshot> histograms;  // by name
  // Only ratios whose denominators are nonzero are present (DerivedRatios).
  std::map<std::string, double> derived;
  uint64_t trace_capacity = 0;
  uint64_t trace_total_emitted = 0;
  std::array<uint64_t, kNumTraceKinds> trace_counts{};  // exact, by kind
  std::vector<Event> trace_events;                      // oldest first
};

// Convenience toggles for the whole observability stack (MetricsRegistry +
// TraceJournal).
void EnableAll();
void DisableAll();
void ResetAll();

// Collects every source into one snapshot. At most `max_trace_events` of
// the most recent trace events are kept; exact per-kind totals always are.
StatsSnapshot TakeSnapshot(size_t max_trace_events = 64);

// The snapshot as a JSON object (pretty-printed, two-space indent). Its
// "modules" array is Profiler::Modules of the histograms.
std::string ToJson(const StatsSnapshot& snapshot);

// Derived ratios computed from live counters/gauges; only ratios whose
// denominators are nonzero are present. Keys include
// "object_cache_hit_ratio", "xdb_page_cache_hit_ratio", "log_utilization",
// "write_amplification", and "cleaning_overhead" (see DESIGN.md
// "Observability" for the formulas).
std::map<std::string, double> DerivedRatios();

// ToJson(TakeSnapshot(max_trace_events)).
std::string SnapshotJson(size_t max_trace_events = 64);

}  // namespace tdb::obs

#endif  // SRC_OBS_SNAPSHOT_H_
