#include "src/obs/snapshot.h"

#include <cstdio>
#include <utility>

namespace tdb::obs {
namespace {

// Escapes a string for embedding in JSON (quotes not included).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendF(std::string& out, const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  out += buf;
}

void AppendU(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

// Appends `"key": {"name": value, ...},` at the top level of the document;
// `append_value` renders one value.
template <typename Map, typename AppendValue>
void AppendObject(std::string& out, const char* key, const Map& map,
                  AppendValue append_value) {
  out += "  \"";
  out += key;
  out += "\": {";
  size_t i = 0;
  for (const auto& [name, v] : map) {
    out += i++ == 0 ? "\n" : ",\n";
    out += "    \"" + JsonEscape(name) + "\": ";
    append_value(v);
  }
  out += map.empty() ? "},\n" : "\n  },\n";
}

// The quantiles each histogram reports, by JSON key.
constexpr std::pair<const char*, double> kQuantiles[] = {
    {"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}, {"p999", 0.999}};

// Adds num/den to `out` under `key` when the denominator is nonzero.
void AddRatio(std::map<std::string, double>& out, const char* key,
              uint64_t num, uint64_t den) {
  if (den != 0) {
    out[key] = static_cast<double>(num) / static_cast<double>(den);
  }
}

std::map<std::string, double> Derive(
    const std::map<std::string, uint64_t>& counters,
    const std::map<std::string, double>& gauges) {
  auto counter = [&counters](const char* name) -> uint64_t {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };

  std::map<std::string, double> out;
  AddRatio(out, "object_cache_hit_ratio", counter("object.cache_hits"),
           counter("object.cache_hits") + counter("object.cache_misses"));
  AddRatio(out, "xdb_page_cache_hit_ratio", counter("xdb.page_cache_hits"),
           counter("xdb.page_cache_hits") + counter("xdb.page_cache_misses"));
  // Bytes of log appended per byte of user plaintext committed (>= 1:
  // headers, maps, leaders, cleaning).
  AddRatio(out, "write_amplification", counter("chunk.log_bytes_appended"),
           counter("chunk.bytes_committed"));
  // Fraction of appended log bytes written by the cleaner (the paper's
  // cleaning overhead, driven by segment utilization u — §9.4).
  AddRatio(out, "cleaning_overhead", counter("cleaner.bytes_rewritten"),
           counter("chunk.log_bytes_appended"));

  auto live = gauges.find("chunk.live_log_bytes");
  auto used = gauges.find("chunk.used_log_bytes");
  if (live != gauges.end() && used != gauges.end() && used->second > 0) {
    out["log_utilization"] = live->second / used->second;
  }
  return out;
}

}  // namespace

void EnableAll() {
  MetricsRegistry::Instance().Enable();
  TraceJournal::Instance().Enable();
}

void DisableAll() {
  MetricsRegistry::Instance().Disable();
  TraceJournal::Instance().Disable();
}

void ResetAll() {
  MetricsRegistry::Instance().Reset();
  TraceJournal::Instance().Reset();
}

std::map<std::string, double> DerivedRatios() {
  MetricsRegistry& m = MetricsRegistry::Instance();
  return Derive(m.Counters(), m.Gauges());
}

StatsSnapshot TakeSnapshot(size_t max_trace_events) {
  MetricsRegistry& metrics = MetricsRegistry::Instance();
  TraceJournal& trace = TraceJournal::Instance();

  StatsSnapshot s;
  s.metrics_enabled = metrics.enabled();
  s.trace_enabled = trace.enabled();

  s.counters = metrics.Counters();
  s.gauges = metrics.Gauges();
  s.histograms = metrics.Histograms();
  s.derived = Derive(s.counters, s.gauges);

  s.trace_capacity = trace.capacity();
  s.trace_total_emitted = trace.TotalEmitted();
  for (size_t k = 0; k < kNumTraceKinds; ++k) {
    s.trace_counts[k] = trace.CountOf(static_cast<TraceKind>(k));
  }
  std::vector<TraceEvent> events = trace.Snapshot();
  size_t start =
      events.size() > max_trace_events ? events.size() - max_trace_events : 0;
  for (size_t i = start; i < events.size(); ++i) {
    TraceEvent& e = events[i];
    s.trace_events.push_back(StatsSnapshot::Event{
        e.seq, e.t_us, e.kind, e.module, e.a, e.b, std::move(e.detail)});
  }
  return s;
}

std::string ToJson(const StatsSnapshot& s) {
  std::string out;
  out.reserve(4096);
  out += "{\n";

  out += "  \"enabled\": {\"metrics\": ";
  out += s.metrics_enabled ? "true" : "false";
  out += ", \"trace\": ";
  out += s.trace_enabled ? "true" : "false";
  out += "},\n";

  // Per-module self time (Figure-12 style), largest first.
  const std::vector<Profiler::Entry> modules = Profiler::Modules(s.histograms);
  out += "  \"modules\": [";
  for (size_t i = 0; i < modules.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"module\": \"" + JsonEscape(modules[i].module) +
           "\", \"total_us\": ";
    AppendF(out, "%.3f", modules[i].total_us);
    out += ", \"calls\": ";
    AppendU(out, modules[i].calls);
    out += "}";
  }
  out += modules.empty() ? "],\n" : "\n  ],\n";

  AppendObject(out, "counters", s.counters,
               [&out](uint64_t n) { AppendU(out, n); });
  AppendObject(out, "gauges", s.gauges,
               [&out](double v) { AppendF(out, "%.3f", v); });

  out += "  \"histograms\": [";
  for (size_t i = 0; i < s.histograms.size(); ++i) {
    const MetricsRegistry::HistogramSnapshot& h = s.histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + JsonEscape(h.name) + "\", \"count\": ";
    AppendU(out, h.count);
    out += ", \"sum\": ";
    AppendF(out, "%.3f", h.sum);
    out += ", \"mean\": ";
    AppendF(out, "%.3f", h.mean());
    out += ", \"min\": ";
    AppendF(out, "%.3f", h.min);
    out += ", \"max\": ";
    AppendF(out, "%.3f", h.max);
    for (const auto& [key, q] : kQuantiles) {
      out += ", \"";
      out += key;
      out += "\": ";
      AppendF(out, "%.3f", h.Quantile(q));
    }
    out += "}";
  }
  out += s.histograms.empty() ? "],\n" : "\n  ],\n";

  AppendObject(out, "derived", s.derived,
               [&out](double v) { AppendF(out, "%.6f", v); });

  out += "  \"trace\": {\n    \"capacity\": ";
  AppendU(out, s.trace_capacity);
  out += ",\n    \"total_emitted\": ";
  AppendU(out, s.trace_total_emitted);
  out += ",\n    \"counts\": {";
  size_t kinds = 0;
  for (size_t k = 0; k < kNumTraceKinds; ++k) {
    if (s.trace_counts[k] == 0) {
      continue;
    }
    out += kinds++ == 0 ? "\n" : ",\n";
    out += "      \"";
    out += TraceKindName(static_cast<TraceKind>(k));
    out += "\": ";
    AppendU(out, s.trace_counts[k]);
  }
  out += kinds == 0 ? "},\n" : "\n    },\n";
  out += "    \"events\": [";
  for (size_t i = 0; i < s.trace_events.size(); ++i) {
    const StatsSnapshot::Event& e = s.trace_events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "      {\"seq\": ";
    AppendU(out, e.seq);
    out += ", \"t_us\": ";
    AppendU(out, e.t_us);
    out += ", \"kind\": \"";
    out += TraceKindName(e.kind);
    out += "\", \"module\": \"";
    out += JsonEscape(e.module);
    out += "\", \"a\": ";
    AppendU(out, e.a);
    out += ", \"b\": ";
    AppendU(out, e.b);
    out += ", \"detail\": \"" + JsonEscape(e.detail) + "\"}";
  }
  out += s.trace_events.empty() ? "]\n" : "\n    ]\n";
  out += "  }\n}\n";
  return out;
}

std::string SnapshotJson(size_t max_trace_events) {
  return ToJson(TakeSnapshot(max_trace_events));
}

}  // namespace tdb::obs
