// TdbClient: the client side of the TDB service protocol.
//
// Mirrors the Transaction API (Begin/Get/GetForUpdate/Insert/Put/Delete/
// Commit/Abort) over a Transport connection. Objects are pickled with the
// client's TypeRegistry before they cross the wire and unpickled on the way
// back, so application code handles ObjectPtr values exactly as it would
// against an in-process ObjectStore.
//
// Calls that need no answer are deferred: Begin/BeginReadOnly check only
// local state and queue the begin, and Put queues the pickled write (the
// server's object store keeps a transaction's writes until commit anyway).
// Every other call sends everything queued plus itself in one frame (wire.h)
// and waits for the answer, so a blind write — Begin, Put, Commit — costs
// one round trip. The wait polls the connection for a few tens of
// microseconds before it parks, so a prompt answer does not pay a thread
// wake-up (kAnswerPollBudget in client.cc). Abort of a transaction the
// server never saw sends nothing. A Put that would grow the queue past
// kMaxPendingBytes sends the queue first.
//
// The contract that follows: a deferred call's error is reported by the
// call that sends it. A begin's kMoved, kNotFound or kInvalidArgument, and a
// queued Put's lock timeout or foreign-id kInvalidArgument, come back from
// the next Get, GetForUpdate, Insert, Delete, Commit (or any other call
// that reaches the server), with the status code and message the server
// gave. The server runs a frame's requests in order and stops at the first
// failure, so nothing after it ran. A failed begin leaves in_transaction()
// false; a frame that ends in Commit finishes the transaction whatever
// failed, exactly like a failed commit. Callers retry the whole
// transaction, as they do after a failed Begin or a kTimeout.
//
// A TdbClient drives one connection and is confined to one thread at a time
// (the protocol allows one outstanding frame per connection). For
// concurrent traffic, open one client per thread — the server coalesces
// their commits via group commit.

#ifndef SRC_SERVER_CLIENT_H_
#define SRC_SERVER_CLIENT_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/chunk/chunk_id.h"
#include "src/net/transport.h"
#include "src/object/pickler.h"
#include "src/server/wire.h"
#include "src/shard/directory.h"

namespace tdb::server {

using ObjectId = ChunkId;

struct TdbClientOptions {
  // Per-request timeout: covers the round trip including server-side lock
  // waits and the (group-) commit flush.
  std::chrono::milliseconds request_timeout{30000};
  std::chrono::milliseconds connect_timeout{5000};
};

class TdbClient {
 public:
  // `registry` must outlive the client and know every type exchanged.
  explicit TdbClient(const TypeRegistry* registry,
                     TdbClientOptions options = {});
  ~TdbClient();

  TdbClient(const TdbClient&) = delete;
  TdbClient& operator=(const TdbClient&) = delete;

  Status Connect(net::Transport* transport, const std::string& address);
  void Disconnect();
  bool connected() const { return conn_ != nullptr; }

  Status Ping();

  // A Put that would grow the pending frame past this many bytes sends the
  // pending frame first; well under TcpTransport's 16 MiB frame cap and,
  // since every request takes at least 31 bytes, under wire.h's
  // kMaxFrameRequests.
  static constexpr size_t kMaxPendingBytes = 1 << 20;

  // Transaction control. The server allows one open transaction per
  // session; Commit/Abort end it. `partition` routes the transaction on a
  // sharded server (0 = the server's sole partition, an error when it
  // serves several). Begin fails here only when the client is not
  // connected or already in a transaction; the server's answer comes back
  // from the next call that reaches it (see the contract above). A kMoved
  // status is retryable: its message is the address of the server now
  // owning the partition.
  Status Begin(PartitionId partition = 0);
  // Begins a read-only snapshot transaction: the server serves every Get
  // from a pinned COW partition copy without taking locks; GetForUpdate and
  // writes are rejected until Commit/Abort.
  Status BeginReadOnly(PartitionId partition = 0);
  // Ends the transaction whatever the outcome.
  Status Commit();
  Status Abort();
  bool in_transaction() const { return in_transaction_; }

  Result<ObjectPtr> Get(ObjectId id);
  Result<ObjectPtr> GetForUpdate(ObjectId id);
  Result<ObjectId> Insert(const Pickled& object);
  // Queues the write; fails here only outside a transaction or when
  // sending the full queue first fails.
  Status Put(ObjectId id, const Pickled& object);
  Status Delete(ObjectId id);

  // Remote stats: the server's full observability snapshot (gauges
  // refreshed), exactly as obs::TakeSnapshot took it there, and a reset of
  // the server's metrics/profiler/trace state. Both work outside a
  // transaction.
  Result<obs::StatsSnapshot> FetchStats();
  Status ResetStats();

  // --- partition directory (sharded servers; outside a transaction) ---
  Result<PartitionId> PartitionCreate(const std::string& name);
  Status PartitionDrop(const std::string& name);
  Result<std::vector<shard::PartitionEntry>> PartitionList();
  Result<shard::PartitionEntry> PartitionLookup(const std::string& name);

  // --- live hand-off admin (see wire.h for the protocol) ---
  struct HandoffStream {
    PartitionId snapshot = 0;  // base for the next incremental
    Bytes stream;              // backup stream to import on the target
  };
  // Source: export a full (base 0) or incremental backup of `partition`.
  Result<HandoffStream> HandoffExport(PartitionId partition, PartitionId base);
  // Target: stage a stream (a full stream resets the staging buffer).
  Status HandoffImport(PartitionId partition, PartitionId base,
                       ByteView stream);
  // Source: drain + final incremental; clients are redirected to `target`.
  Result<HandoffStream> HandoffCutover(PartitionId partition,
                                       const std::string& target,
                                       PartitionId base);
  // Target: apply the staged chain atomically and start serving.
  Status HandoffActivate(PartitionId partition, const std::string& name);
  // Source: persist the move (empty `target` aborts and resumes serving).
  Status HandoffFinish(PartitionId partition, const std::string& target);

 private:
  // Sends the pending requests plus `request` as one frame; returns the
  // last response the server ran: the first failure, or `request`'s answer.
  Result<Response> RoundTrip(Request request);
  // Appends `request` to the pending frame, sending the frame first when
  // the request would grow it past kMaxPendingBytes.
  Status Queue(Request request);
  Result<Response> SendPending();
  Status BeginInternal(Op op, PartitionId partition);
  Result<ObjectPtr> GetInternal(ObjectId id, Op op);

  const TypeRegistry* registry_;
  TdbClientOptions options_;
  std::unique_ptr<net::Connection> conn_;
  bool in_transaction_ = false;
  // Requests not yet sent (a begin, then puts) and their encoded size.
  std::vector<Request> pending_;
  size_t pending_bytes_ = 0;
};

}  // namespace tdb::server

#endif  // SRC_SERVER_CLIENT_H_
