// The TDB service wire format: pickled requests and responses, one batch
// per transport frame, built on the same PickleWriter/PickleReader streams
// used for chunk headers and stored objects (src/common/pickle.h).
//
// Every message starts with a magic byte and a protocol version so a
// mis-directed or corrupted frame fails decoding instead of being
// misinterpreted. Object payloads cross the wire in their *pickled* form
// (type tag + fields) — exactly the representation the object store
// persists — so client and server only need a shared TypeRegistry, and the
// server never sees plaintext-specific structure it doesn't already know.
//
// The protocol is synchronous per connection: one request frame, one
// response frame, in order. A request frame carries one or more requests;
// the server runs them in order until the first failure and answers with
// one response per request it ran, so the last response is either the
// first failure or the answer to the frame's last request. This is what
// lets TdbClient send a transaction's begin and puts together with its
// next call (client.h). Every request but a frame's last one must be a
// begin or a put, the calls that need no answer, so a response frame
// carries at most one payload; a frame of any other shape is refused with
// kInvalidArgument and the server hangs up. A session holds at most one
// open transaction; Begin/Commit/Abort delimit it.

#ifndef SRC_SERVER_WIRE_H_
#define SRC_SERVER_WIRE_H_

#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/obs/snapshot.h"

namespace tdb::server {

inline constexpr uint8_t kWireMagic = 0xDB;
// Version 2 added the partition id to every request (sharded service) and
// the directory/hand-off op family; version 3 made a frame carry a count
// and then that many requests (or responses); version 4 kept the frame
// layout and made kStats answer with a pickled snapshot (PickleSnapshot)
// instead of JSON text; version 5 dropped the snapshot's profiler flag and
// module list (module self time travels as module.* histograms). Decoding
// rejects any other version: an older peer gets a clear kUnimplemented
// status, never a misparsed frame or payload.
inline constexpr uint8_t kWireVersion = 5;

// Most requests (or responses) one frame may carry. TdbClient's pending
// bound keeps its frames far below it (client.cc); the cap keeps one
// hostile frame from making the server build millions of decoded requests
// and responses.
inline constexpr size_t kMaxFrameRequests = size_t{1} << 16;

enum class Op : uint8_t {
  kPing = 1,
  kBegin = 2,
  kGet = 3,
  kGetForUpdate = 4,
  kInsert = 5,
  kPut = 6,
  kDelete = 7,
  kCommit = 8,
  kAbort = 9,
  // Begins a read-only snapshot transaction (lock-free reads; writes and
  // GetForUpdate are rejected server-side).
  kBeginReadOnly = 10,
  // Returns the server's full observability snapshot (obs::TakeSnapshot,
  // server gauges refreshed first) in the response object, pickled by
  // PickleSnapshot. Allowed outside a transaction.
  kStats = 11,
  // Resets the server's metrics and trace state. Allowed outside a
  // transaction.
  kStatsReset = 12,

  // --- partition directory CRUD (sharded servers; outside a transaction) ---
  // Creates + catalogs + serves a fresh partition named by request.object;
  // response.object_id = its partition id.
  kPartitionCreate = 13,
  // Drops the partition named by request.object (data and catalog entry).
  kPartitionDrop = 14,
  // response.object = pickled directory listing (shard::PickleEntryList).
  kPartitionList = 15,
  // Looks up the name in request.object; response.object = a one-entry
  // listing, response.object_id = its partition id. Serves as the "moved"
  // redirect query: a moved entry carries the new server's address.
  kPartitionLookup = 16,

  // --- live hand-off (admin ops on the source/target server) ---
  // Source: snapshots request.partition and returns a backup stream in
  // response.object — full when request.object_id (the base snapshot) is 0,
  // else incremental against it. response.object_id = the new snapshot's
  // id, the base for the next incremental in the chain.
  kHandoffExport = 17,
  // Target: applies a backup stream (request.object) to the local chunk
  // store; the partition keeps its id but is not served yet.
  kHandoffImport = 18,
  // Source: atomic ownership cut-over of request.partition. Stops admitting
  // transactions (clients get a retryable kMoved status pointing at the
  // address in request.object), drains the in-flight ones, then exports the
  // final incremental (base = request.object_id) exactly like kHandoffExport.
  // The partition stays in the draining state until kHandoffFinish.
  kHandoffCutover = 19,
  // Target: catalogs the imported request.partition under the name in
  // request.object and starts serving it.
  kHandoffActivate = 20,
  // Source: finalizes — marks the directory entry moved to the address in
  // request.object, stops routing to the engine, and deallocates the
  // hand-off snapshot chain. The partition's data is retained until an
  // explicit kPartitionDrop.
  kHandoffFinish = 21,
};

// Static metadata for one wire op. The table in wire.cc is the single
// source of truth: request decoding, OpName, and the per-op histogram names
// used by the server and client span instrumentation all derive from it.
struct OpInfo {
  Op op;
  const char* name;              // stable snake_case wire name
  const char* server_histogram;  // "wire.op.<name>.us" (server handle+send)
  const char* client_histogram;  // "wire.rtt.<name>.us" (client round trip)
};

// Table entry for `op`, or nullptr when the byte is not a valid wire op.
const OpInfo* FindOpInfo(Op op);

const char* OpName(Op op);

struct Request {
  Op op = Op::kPing;
  // Partition the request addresses: Begin/BeginReadOnly (0 = the server's
  // sole partition, rejected when it serves several) and the hand-off ops.
  // Carried on every frame; ignored by ops that don't route by partition.
  uint64_t partition = 0;
  uint64_t object_id = 0;  // packed ChunkId: Get/GetForUpdate/Put/Delete
  Bytes object;            // pickled object: Insert/Put; name/stream: admin
};

struct Response {
  StatusCode code = StatusCode::kOk;
  std::string message;     // status message when code != kOk
  uint64_t object_id = 0;  // Insert: new id; Begin: transaction id
  Bytes object;            // Get/GetForUpdate: pickled object
};

// A request frame: magic, version, a request count (at least one, at most
// kMaxFrameRequests), then each request's op, partition, object id and
// object bytes. Decoding refuses a frame with a request other than a begin
// or a put before its last one (kInvalidArgument).
Bytes EncodeRequests(const std::vector<Request>& requests);
Result<std::vector<Request>> DecodeRequests(ByteView frame);

// A response frame: magic, version, a response count (at least one, at
// most kMaxFrameRequests), then each response's status code, message,
// object id and object bytes.
Bytes EncodeResponses(const std::vector<Response>& responses);
Result<std::vector<Response>> DecodeResponses(ByteView frame);

// Builds the error/ok response corresponding to a Status (payload fields
// left empty), and the inverse for the client side.
Response ResponseFromStatus(const Status& status);
Status StatusFromResponse(const Response& response);

// The kStats payload. Every field travels exactly: doubles as their IEEE
// bits, histograms with their (nonzero) buckets, trace events with their
// module name, so the client's HistogramSnapshot::Quantile and obs::ToJson
// give the server's numbers and bytes. Unpickling checks every element
// count against the bytes left, bucket indexes against kNumLatencyBuckets,
// trace kinds against kNumTraceKinds and each histogram's min against its
// max, and fails with kCorruption on malformed input.
Bytes PickleSnapshot(const obs::StatsSnapshot& snapshot);
Result<obs::StatsSnapshot> UnpickleSnapshot(ByteView data);

}  // namespace tdb::server

#endif  // SRC_SERVER_WIRE_H_
