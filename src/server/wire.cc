#include "src/server/wire.h"

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

Bytes PickleEntryList(const std::vector<shard::PartitionEntry>& entries) {
  PickleWriter w;
  w.WriteVarint(entries.size());
  for (const shard::PartitionEntry& e : entries) {
    w.WriteVarint(e.id);
    w.WriteString(e.name);
    w.WriteU8(e.moved ? 1 : 0);
    w.WriteString(e.moved_to);
    w.WriteVarint(e.epoch);
  }
  return w.Take();
}

Result<std::vector<shard::PartitionEntry>> UnpickleEntryList(ByteView data) {
  PickleReader r(data);
  uint64_t count = r.ReadVarint();
  std::vector<shard::PartitionEntry> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    shard::PartitionEntry e;
    e.id = static_cast<PartitionId>(r.ReadVarint());
    e.name = r.ReadString();
    e.moved = r.ReadU8() != 0;
    e.moved_to = r.ReadString();
    e.epoch = r.ReadVarint();
    entries.push_back(std::move(e));
  }
  TDB_RETURN_IF_ERROR(r.Done());
  return entries;
}

}  // namespace tdb::server
