// The sharded-service engine layer: one partition, one engine.
//
// A PartitionEngine owns everything per-partition that the service layer
// needs — an ObjectStore (its own LockManager and object cache) over the
// shared ChunkStore — plus the ownership state machine that live hand-off
// drives:
//
//   kServing  --StartDraining-->  kDraining  --MarkMoved-->  kMoved
//       ^                             |
//       +---------ResumeServing------+
//
// While draining or moved, new transactions are refused with a retryable
// kMoved status carrying the target address; transactions already admitted
// run to completion (they hold 2PL locks and are counted), and WaitDrained
// blocks until the last one finishes — the quiesce step of an ownership
// cut-over.
//
// The EngineRegistry owns the set of engines a server serves, keyed by
// partition id, and the server's one GroupCommitQueue. With group commit
// on, every engine's ObjectStore parks its write commits there, and the
// leader merges batches of any partition — disjoint by construction, since
// each partition has exactly one engine and lock table — into a single
// chunk-store commit. One flush amortizes across partitions, which is what
// makes aggregate commit throughput scale with served partitions even
// though the chunk store serializes commits.

#ifndef SRC_SHARD_PARTITION_ENGINE_H_
#define SRC_SHARD_PARTITION_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/object/object_store.h"

namespace tdb::shard {

enum class PartitionState : uint8_t {
  kServing = 0,
  kDraining = 1,  // cut-over in progress: no new transactions, drain old
  kMoved = 2,     // ownership transferred; clients are redirected
};

const char* PartitionStateName(PartitionState state);

class PartitionEngine {
 public:
  // `chunks` and `registry` must outlive the engine. The engine serves
  // `partition`, which must already exist in the chunk store.
  PartitionEngine(ChunkStore* chunks, PartitionId partition,
                  const TypeRegistry* registry, ObjectStoreOptions options);

  PartitionEngine(const PartitionEngine&) = delete;
  PartitionEngine& operator=(const PartitionEngine&) = delete;

  // Admission-checked transaction entry points. Refused with kMoved while
  // draining or moved (message = target address). Every admitted
  // transaction must be balanced by exactly one TxnFinished call once it is
  // committed/aborted/destroyed.
  Result<std::unique_ptr<Transaction>> Begin();
  Result<std::unique_ptr<Transaction>> BeginReadOnly();
  void TxnFinished();

  // Hand-off state machine. StartDraining fails unless currently serving;
  // ResumeServing aborts a cut-over (fails if already moved); MarkMoved
  // finalizes it (valid from serving or draining).
  Status StartDraining(const std::string& target);
  Status ResumeServing();
  Status MarkMoved(const std::string& target);

  // Blocks until no admitted transaction remains, or `timeout` elapses.
  // Returns true when drained.
  bool WaitDrained(std::chrono::milliseconds timeout);

  PartitionState state() const;
  // Target address once draining/moved; empty while serving.
  std::string moved_to() const;

  PartitionId partition() const { return store_.partition(); }
  ObjectStore* store() { return &store_; }
  // Transactions admitted and not yet finished (the `sessions` gauge).
  size_t active_txns() const;

 private:
  Status AdmitLocked() const;

  ObjectStore store_;

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  PartitionState state_ = PartitionState::kServing;
  std::string moved_to_;
  size_t active_txns_ = 0;
};

// With group commit on, every engine's commits park on the registry's one
// queue, so concurrent commits of different partitions share a flush.
class EngineRegistry {
 public:
  // `chunks` and `registry` must outlive this object (and all engines).
  // `store_options` configure every engine; their commit_queue is replaced
  // by the registry's queue.
  EngineRegistry(ChunkStore* chunks, const TypeRegistry* registry,
                 ObjectStoreOptions store_options = {});

  EngineRegistry(const EngineRegistry&) = delete;
  EngineRegistry& operator=(const EngineRegistry&) = delete;

  // Starts serving `partition` (which must exist in the chunk store).
  Result<std::shared_ptr<PartitionEngine>> Add(PartitionId partition);
  // Stops serving `partition`. The engine object stays alive until the last
  // session holding it lets go, but is no longer routable.
  Status Remove(PartitionId partition);

  // nullptr when the partition is not served here.
  std::shared_ptr<PartitionEngine> Find(PartitionId partition) const;
  // The single served engine, or nullptr unless exactly one is served —
  // the default route for clients that do not name a partition.
  std::shared_ptr<PartitionEngine> Solo() const;

  std::vector<std::shared_ptr<PartitionEngine>> Engines() const;
  size_t size() const;

  // Commits parked on the queue right now; 0 while group commit is off.
  size_t commit_queue_depth() const { return commit_queue_.depth(); }

 private:
  ChunkStore* chunks_;
  const TypeRegistry* registry_;
  ObjectStoreOptions store_options_;
  GroupCommitQueue commit_queue_;

  mutable std::mutex mu_;
  std::map<PartitionId, std::shared_ptr<PartitionEngine>> engines_;
};

}  // namespace tdb::shard

#endif  // SRC_SHARD_PARTITION_ENGINE_H_
