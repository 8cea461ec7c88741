#include "src/server/wire.h"

#include <algorithm>
#include <bit>
#include <map>

#include "src/common/pickle.h"

namespace tdb::server {

namespace {

Status CheckHeader(PickleReader& r, const char* what) {
  uint8_t magic = r.ReadU8();
  uint8_t version = r.ReadU8();
  if (!r.ok() || magic != kWireMagic) {
    return CorruptionError(std::string("bad wire magic in ") + what);
  }
  if (version != kWireVersion) {
    return UnimplementedError("unsupported wire version " +
                              std::to_string(version));
  }
  return OkStatus();
}

// A frame's item count: at least one, at most kMaxFrameRequests, and no
// more than the bytes left (every item takes at least four), so a hostile
// count cannot force a large allocation.
Result<uint64_t> ReadCount(PickleReader& r, const char* what) {
  uint64_t count = r.ReadVarint();
  if (!r.ok() || count == 0 || count > kMaxFrameRequests ||
      count > r.remaining() / 4) {
    return CorruptionError(std::string("bad item count in ") + what);
  }
  return count;
}

// Most histograms a stats snapshot may carry. Histogram names are fixed in
// the code (a few dozen); the cap bounds the dense bucket arrays (5 KiB
// each) a hostile payload can make UnpickleSnapshot allocate to 20 MiB.
constexpr uint64_t kMaxSnapshotHistograms = 4096;

// A snapshot section's element count: no more than the bytes left can hold
// at `min_bytes` per element, so a hostile count cannot force a large
// allocation.
Result<uint64_t> ReadSectionCount(PickleReader& r, size_t min_bytes) {
  uint64_t count = r.ReadVarint();
  if (!r.ok() || count > r.remaining() / min_bytes) {
    return CorruptionError("bad element count in stats snapshot");
  }
  return count;
}

void WriteDouble(PickleWriter& w, double v) {
  w.WriteU64(std::bit_cast<uint64_t>(v));
}

double ReadDouble(PickleReader& r) {
  return std::bit_cast<double>(r.ReadU64());
}

// A name-keyed snapshot section: its size, then each name and value.
template <typename V, typename WriteValue>
void WriteSection(PickleWriter& w, const std::map<std::string, V>& section,
                  WriteValue write_value) {
  w.WriteVarint(section.size());
  for (const auto& [name, v] : section) {
    w.WriteString(name);
    write_value(v);
  }
}

template <typename V, typename ReadValue>
Status ReadSection(PickleReader& r, size_t min_bytes,
                   std::map<std::string, V>& section, ReadValue read_value) {
  TDB_ASSIGN_OR_RETURN(uint64_t count, ReadSectionCount(r, min_bytes));
  for (uint64_t i = 0; i < count; ++i) {
    std::string name = r.ReadString();
    section[std::move(name)] = read_value();
  }
  return OkStatus();
}

// The calls that need no answer, and so the only requests that may come
// before a frame's last one.
bool IsDeferred(Op op) {
  return op == Op::kBegin || op == Op::kBeginReadOnly || op == Op::kPut;
}

constexpr OpInfo kOpTable[] = {
    {Op::kPing, "ping", "wire.op.ping.us", "wire.rtt.ping.us"},
    {Op::kBegin, "begin", "wire.op.begin.us", "wire.rtt.begin.us"},
    {Op::kGet, "get", "wire.op.get.us", "wire.rtt.get.us"},
    {Op::kGetForUpdate, "get_for_update", "wire.op.get_for_update.us",
     "wire.rtt.get_for_update.us"},
    {Op::kInsert, "insert", "wire.op.insert.us", "wire.rtt.insert.us"},
    {Op::kPut, "put", "wire.op.put.us", "wire.rtt.put.us"},
    {Op::kDelete, "delete", "wire.op.delete.us", "wire.rtt.delete.us"},
    {Op::kCommit, "commit", "wire.op.commit.us", "wire.rtt.commit.us"},
    {Op::kAbort, "abort", "wire.op.abort.us", "wire.rtt.abort.us"},
    {Op::kBeginReadOnly, "begin_read_only", "wire.op.begin_read_only.us",
     "wire.rtt.begin_read_only.us"},
    {Op::kStats, "stats", "wire.op.stats.us", "wire.rtt.stats.us"},
    {Op::kStatsReset, "stats_reset", "wire.op.stats_reset.us",
     "wire.rtt.stats_reset.us"},
    {Op::kPartitionCreate, "partition_create", "wire.op.partition_create.us",
     "wire.rtt.partition_create.us"},
    {Op::kPartitionDrop, "partition_drop", "wire.op.partition_drop.us",
     "wire.rtt.partition_drop.us"},
    {Op::kPartitionList, "partition_list", "wire.op.partition_list.us",
     "wire.rtt.partition_list.us"},
    {Op::kPartitionLookup, "partition_lookup", "wire.op.partition_lookup.us",
     "wire.rtt.partition_lookup.us"},
    {Op::kHandoffExport, "handoff_export", "wire.op.handoff_export.us",
     "wire.rtt.handoff_export.us"},
    {Op::kHandoffImport, "handoff_import", "wire.op.handoff_import.us",
     "wire.rtt.handoff_import.us"},
    {Op::kHandoffCutover, "handoff_cutover", "wire.op.handoff_cutover.us",
     "wire.rtt.handoff_cutover.us"},
    {Op::kHandoffActivate, "handoff_activate", "wire.op.handoff_activate.us",
     "wire.rtt.handoff_activate.us"},
    {Op::kHandoffFinish, "handoff_finish", "wire.op.handoff_finish.us",
     "wire.rtt.handoff_finish.us"},
};

}  // namespace

const OpInfo* FindOpInfo(Op op) {
  for (const OpInfo& info : kOpTable) {
    if (info.op == op) {
      return &info;
    }
  }
  return nullptr;
}

const char* OpName(Op op) {
  const OpInfo* info = FindOpInfo(op);
  return info == nullptr ? "unknown" : info->name;
}

Bytes EncodeRequests(const std::vector<Request>& requests) {
  PickleWriter w;
  w.WriteU8(kWireMagic);
  w.WriteU8(kWireVersion);
  w.WriteVarint(requests.size());
  for (const Request& request : requests) {
    w.WriteU8(static_cast<uint8_t>(request.op));
    w.WriteVarint(request.partition);
    w.WriteVarint(request.object_id);
    w.WriteBytes(request.object);
  }
  return w.Take();
}

Result<std::vector<Request>> DecodeRequests(ByteView frame) {
  PickleReader r(frame);
  TDB_RETURN_IF_ERROR(CheckHeader(r, "request"));
  TDB_ASSIGN_OR_RETURN(uint64_t count, ReadCount(r, "request"));
  std::vector<Request> requests(count);
  for (uint64_t i = 0; i < count; ++i) {
    Request& request = requests[i];
    uint8_t op = r.ReadU8();
    if (FindOpInfo(static_cast<Op>(op)) == nullptr) {
      return CorruptionError("unknown request op " + std::to_string(op));
    }
    request.op = static_cast<Op>(op);
    // Only the last request may need an answer: a response frame then
    // carries at most one payload, however many requests came before it.
    if (i + 1 < count && !IsDeferred(request.op)) {
      return InvalidArgumentError(
          std::string("request ") + std::to_string(i + 1) + " of " +
          std::to_string(count) + " is " + OpName(request.op) +
          ": only a frame's last request may be other than a begin or a put");
    }
    request.partition = r.ReadVarint();
    request.object_id = r.ReadVarint();
    request.object = r.ReadBytes();
  }
  TDB_RETURN_IF_ERROR(r.Done());
  return requests;
}

Bytes EncodeResponses(const std::vector<Response>& responses) {
  PickleWriter w;
  w.WriteU8(kWireMagic);
  w.WriteU8(kWireVersion);
  w.WriteVarint(responses.size());
  for (const Response& response : responses) {
    w.WriteU8(static_cast<uint8_t>(response.code));
    w.WriteString(response.message);
    w.WriteVarint(response.object_id);
    w.WriteBytes(response.object);
  }
  return w.Take();
}

Result<std::vector<Response>> DecodeResponses(ByteView frame) {
  PickleReader r(frame);
  TDB_RETURN_IF_ERROR(CheckHeader(r, "response"));
  TDB_ASSIGN_OR_RETURN(uint64_t count, ReadCount(r, "response"));
  std::vector<Response> responses(count);
  for (Response& response : responses) {
    uint8_t code = r.ReadU8();
    if (code > static_cast<uint8_t>(StatusCode::kMoved)) {
      return CorruptionError("unknown status code " + std::to_string(code));
    }
    response.code = static_cast<StatusCode>(code);
    response.message = r.ReadString();
    response.object_id = r.ReadVarint();
    response.object = r.ReadBytes();
  }
  TDB_RETURN_IF_ERROR(r.Done());
  return responses;
}

Response ResponseFromStatus(const Status& status) {
  Response response;
  response.code = status.code();
  response.message = status.message();
  return response;
}

Status StatusFromResponse(const Response& response) {
  return Status(response.code, response.message);
}

Bytes PickleSnapshot(const obs::StatsSnapshot& s) {
  PickleWriter w;
  w.WriteBool(s.profiler_enabled);
  w.WriteBool(s.metrics_enabled);
  w.WriteBool(s.trace_enabled);
  w.WriteVarint(s.modules.size());
  for (const Profiler::Entry& m : s.modules) {
    w.WriteString(m.module);
    WriteDouble(w, m.total_us);
    w.WriteVarint(m.calls);
  }
  auto write_double = [&w](double v) { WriteDouble(w, v); };
  WriteSection(w, s.counters, [&w](uint64_t n) { w.WriteVarint(n); });
  WriteSection(w, s.gauges, write_double);
  w.WriteVarint(s.histograms.size());
  for (const obs::MetricsRegistry::HistogramSnapshot& h : s.histograms) {
    w.WriteString(h.name);
    w.WriteVarint(h.count);
    WriteDouble(w, h.sum);
    WriteDouble(w, h.min);
    WriteDouble(w, h.max);
    // Buckets are empty or in the registry's kNumLatencyBuckets layout;
    // only the nonzero ones travel, as (index, count).
    w.WriteBool(!h.buckets.empty());
    if (!h.buckets.empty()) {
      w.WriteVarint(static_cast<uint64_t>(
          h.buckets.size() -
          std::count(h.buckets.begin(), h.buckets.end(), uint64_t{0})));
      for (size_t i = 0; i < h.buckets.size(); ++i) {
        if (h.buckets[i] != 0) {
          w.WriteVarint(i);
          w.WriteVarint(h.buckets[i]);
        }
      }
    }
  }
  WriteSection(w, s.derived, write_double);
  w.WriteVarint(s.trace_capacity);
  w.WriteVarint(s.trace_total_emitted);
  w.WriteVarint(static_cast<uint64_t>(
      s.trace_counts.size() -
      std::count(s.trace_counts.begin(), s.trace_counts.end(), uint64_t{0})));
  for (size_t k = 0; k < s.trace_counts.size(); ++k) {
    if (s.trace_counts[k] != 0) {
      w.WriteU8(static_cast<uint8_t>(k));
      w.WriteVarint(s.trace_counts[k]);
    }
  }
  w.WriteVarint(s.trace_events.size());
  for (const obs::StatsSnapshot::Event& e : s.trace_events) {
    w.WriteVarint(e.seq);
    w.WriteVarint(e.t_us);
    w.WriteU8(static_cast<uint8_t>(e.kind));
    w.WriteString(e.module);
    w.WriteVarint(e.a);
    w.WriteVarint(e.b);
    w.WriteString(e.detail);
  }
  return w.Take();
}

Result<obs::StatsSnapshot> UnpickleSnapshot(ByteView data) {
  PickleReader r(data);
  obs::StatsSnapshot s;
  s.profiler_enabled = r.ReadBool();
  s.metrics_enabled = r.ReadBool();
  s.trace_enabled = r.ReadBool();
  // Each count's minimum element size: one byte per length prefix and
  // varint, eight per double.
  TDB_ASSIGN_OR_RETURN(uint64_t modules, ReadSectionCount(r, 10));
  s.modules.resize(modules);
  for (Profiler::Entry& m : s.modules) {
    m.module = r.ReadString();
    m.total_us = ReadDouble(r);
    m.calls = r.ReadVarint();
  }
  auto read_double = [&r] { return ReadDouble(r); };
  TDB_RETURN_IF_ERROR(
      ReadSection(r, 2, s.counters, [&r] { return r.ReadVarint(); }));
  TDB_RETURN_IF_ERROR(ReadSection(r, 9, s.gauges, read_double));
  TDB_ASSIGN_OR_RETURN(uint64_t histograms, ReadSectionCount(r, 27));
  if (histograms > kMaxSnapshotHistograms) {
    return CorruptionError("too many histograms in stats snapshot");
  }
  s.histograms.resize(histograms);
  for (obs::MetricsRegistry::HistogramSnapshot& h : s.histograms) {
    h.name = r.ReadString();
    h.count = r.ReadVarint();
    h.sum = ReadDouble(r);
    h.min = ReadDouble(r);
    h.max = ReadDouble(r);
    if (h.max < h.min) {  // Quantile clamps to [min, max]
      return CorruptionError("histogram " + h.name +
                             " has its min above its max in stats snapshot");
    }
    if (!r.ReadBool()) {
      continue;
    }
    TDB_ASSIGN_OR_RETURN(uint64_t nonzero, ReadSectionCount(r, 2));
    h.buckets.resize(obs::kNumLatencyBuckets);
    for (uint64_t i = 0; i < nonzero; ++i) {
      uint64_t index = r.ReadVarint();
      uint64_t n = r.ReadVarint();
      if (index >= obs::kNumLatencyBuckets) {
        return CorruptionError("bucket index " + std::to_string(index) +
                               " out of range in stats snapshot");
      }
      h.buckets[index] = n;
    }
  }
  TDB_RETURN_IF_ERROR(ReadSection(r, 9, s.derived, read_double));
  s.trace_capacity = r.ReadVarint();
  s.trace_total_emitted = r.ReadVarint();
  auto read_kind = [&r]() -> Result<obs::TraceKind> {
    uint8_t kind = r.ReadU8();
    if (kind >= obs::kNumTraceKinds) {
      return CorruptionError("unknown trace kind " + std::to_string(kind) +
                             " in stats snapshot");
    }
    return static_cast<obs::TraceKind>(kind);
  };
  TDB_ASSIGN_OR_RETURN(uint64_t kinds, ReadSectionCount(r, 2));
  for (uint64_t i = 0; i < kinds; ++i) {
    TDB_ASSIGN_OR_RETURN(obs::TraceKind kind, read_kind());
    s.trace_counts[static_cast<size_t>(kind)] = r.ReadVarint();
  }
  TDB_ASSIGN_OR_RETURN(uint64_t events, ReadSectionCount(r, 7));
  s.trace_events.resize(events);
  for (obs::StatsSnapshot::Event& e : s.trace_events) {
    e.seq = r.ReadVarint();
    e.t_us = r.ReadVarint();
    TDB_ASSIGN_OR_RETURN(e.kind, read_kind());
    e.module = r.ReadString();
    e.a = r.ReadVarint();
    e.b = r.ReadVarint();
    e.detail = r.ReadString();
  }
  TDB_RETURN_IF_ERROR(r.Done());
  return s;
}

}  // namespace tdb::server
