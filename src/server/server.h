// TdbServer: the networked front end over the partition engines (service
// layer).
//
// Many clients connect over a Transport; each accepted connection becomes a
// Session serviced by a worker from the shared ThreadPool. A session maps
// its connection to at most one open transaction on one PartitionEngine
// (begin names the partition; the engine registry routes), runs each
// frame's requests in order until the first failure (wire.h), and enforces a
// per-session idle timeout (idle sessions lose their locks: the open
// transaction is aborted and the connection closed). New connections beyond
// `max_sessions` are rejected with a busy response before a session or a
// worker is committed to them — the backpressure cap.
//
// A server is either *sharded* — constructed over a PartitionDirectory, it
// serves every cataloged partition, answers the directory CRUD ops, and
// participates in live hand-off — or *single-partition* (the legacy
// constructor), which serves exactly one partition and rejects directory
// ops. Either way each served partition gets its own engine (ObjectStore:
// locks, cache), and with group commit on every engine parks its write
// commits on the server's one queue (group_commit.h), so concurrent commits
// of different partitions share a flush.
//
// Live hand-off (kHandoffExport/Import/Cutover/Activate/Finish; see wire.h
// and the DESIGN.md §10 crash contract): the source ships a COW snapshot
// and chained incrementals; the target stages the streams and applies them
// in one atomic restore at activate; cut-over drains the source engine and
// returns a final incremental; finish persists the moved state so clients
// are redirected (retryable kMoved status carrying the new address) even
// across a source restart.
//
// Shutdown is graceful: Stop() stops the acceptor, closes every live
// session connection (which aborts their open transactions), and joins the
// workers; acknowledged commits are durable before their response is sent,
// so a shutdown (or crash) never takes back an acknowledged commit.

#ifndef SRC_SERVER_SERVER_H_
#define SRC_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/net/transport.h"
#include "src/object/object_store.h"
#include "src/server/wire.h"
#include "src/shard/directory.h"
#include "src/shard/partition_engine.h"

namespace tdb::server {

struct TdbServerOptions {
  // Concurrent sessions admitted; further connections get a busy response.
  // The pool has this many workers: each live session occupies one for its
  // lifetime.
  size_t max_sessions = 64;
  // A session idle longer than this has its transaction aborted and its
  // connection closed.
  std::chrono::milliseconds idle_timeout{30000};
  // Per-frame send timeout for responses.
  std::chrono::milliseconds io_timeout{5000};
  // A request whose handle+send time reaches this emits a slow_request
  // trace event (when tracing is enabled). The recv stage is excluded from
  // the threshold — under the poll loop it mostly measures client think
  // time — but is still reported in the event's stage breakdown. Zero
  // disables slow-request events.
  std::chrono::microseconds slow_request_threshold{100000};

  // Per-partition object-store configuration. With group_commit set, every
  // engine's write commits park on the server's one queue (group_commit.h);
  // without it, each commits straight to the chunk store.
  bool group_commit = true;
  std::chrono::milliseconds lock_timeout{500};
  size_t cache_capacity = 4096;

  // Cipher/hash/key for partitions created via kPartitionCreate. The create
  // op is refused while the key is empty.
  CryptoParams new_partition_params;
};

class TdbServer {
 public:
  // Single-partition server: serves objects of `partition` from `chunks`;
  // both must outlive the server, and `registry` must know every type
  // clients may store. Directory and hand-off ops are rejected.
  TdbServer(ChunkStore* chunks, PartitionId partition,
            const TypeRegistry* registry, TdbServerOptions options = {});

  // Sharded server: serves every partition cataloged in `directory` (minus
  // the moved ones) and answers directory CRUD and hand-off ops. The
  // directory must be the one for `chunks` and must outlive the server.
  TdbServer(ChunkStore* chunks, shard::PartitionDirectory* directory,
            const TypeRegistry* registry, TdbServerOptions options = {});

  ~TdbServer();

  TdbServer(const TdbServer&) = delete;
  TdbServer& operator=(const TdbServer&) = delete;

  // Binds `address` on `transport` (which must outlive the server) and
  // starts accepting. Call once.
  Status Start(net::Transport* transport, const std::string& address);

  // Graceful shutdown; idempotent, also run by the destructor.
  void Stop();

  // The bound address (ephemeral ports resolved) once Start succeeded.
  std::string address() const;

  // The sole served partition's store — shared with in-process callers
  // (e.g. tests driving tamper checks or local transactions against the
  // same partition). nullptr unless exactly one partition is served.
  ObjectStore* object_store() {
    std::shared_ptr<shard::PartitionEngine> solo = engines_.Solo();
    return solo == nullptr ? nullptr : solo->store();
  }

  shard::EngineRegistry* engines() { return &engines_; }
  shard::PartitionDirectory* directory() { return directory_; }

 private:
  // One live connection's server-side state. Lives on its worker's stack.
  struct Session {
    uint64_t id = 0;
    // Engine the open transaction runs on; set by begin, cleared (with a
    // TxnFinished) when the transaction ends.
    std::shared_ptr<shard::PartitionEngine> engine;
    std::unique_ptr<Transaction> txn;
    std::chrono::steady_clock::time_point last_activity;
  };

  void AcceptLoop();
  void ServeSession(std::shared_ptr<net::Connection> conn);
  Response Handle(Session& session, const Request& request);
  Response HandleBegin(Session& session, const Request& request);
  Response HandleAdmin(const Request& request);
  // Ends the session's transaction bookkeeping (engine pin + drain count).
  void FinishTxn(Session& session);
  // Aborts the session's open transaction, if any, and finishes it.
  void AbortTxn(Session& session);

  // Snapshots `partition` (incremental against `base` when nonzero) into a
  // backup stream; records the new snapshot id in the hand-off chain.
  Result<Bytes> ExportPartition(PartitionId partition, PartitionId base,
                                PartitionId* snapshot_out);
  // Deallocates the snapshot chain accumulated for `partition`.
  void DropHandoffSnapshots(PartitionId partition);

  // Publishes session/queue state plus the per-partition
  // `shard.partition.<id>.*` gauges, erases those of partitions no longer
  // served, and refreshes the chunk store's gauges, so a snapshot taken
  // right after (kStats) reflects the live server.
  void PublishGauges();

  ChunkStore* chunks_;
  const TypeRegistry* registry_;
  TdbServerOptions options_;
  shard::EngineRegistry engines_;
  shard::PartitionDirectory* directory_ = nullptr;  // null = single-partition

  std::unique_ptr<net::Listener> listener_;
  std::unique_ptr<ThreadPool> workers_;
  std::thread acceptor_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  // Live sessions' connections, so Stop can unblock their Recv calls.
  std::mutex sessions_mu_;
  std::map<uint64_t, net::Connection*> live_sessions_;
  uint64_t next_session_id_ = 1;

  // Hand-off state: the source's snapshot chain per partition, and the
  // target's staged (not yet applied) import streams. In-memory by design —
  // a crashed hand-off is restarted by the coordinator; only the directory
  // state (ownership) is durable.
  std::mutex handoff_mu_;
  std::map<PartitionId, std::vector<PartitionId>> handoff_snapshots_;
  std::map<PartitionId, Bytes> staged_imports_;
};

}  // namespace tdb::server

#endif  // SRC_SERVER_SERVER_H_
