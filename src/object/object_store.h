// The object store (§7): type-safe, transactional access to named objects.
//
// Each object is stored in its own chunk (the paper's choice: smaller commit
// volume, simpler cache, at the cost of inter-object clustering — which the
// cache makes unimportant). Transactions use two-phase locking with timeout
// deadlock breaking and no-steal buffering: modified objects stay in the
// transaction's write set until commit, when they are committed to the chunk
// store in one atomic batch.
//
// Read-only transactions (BeginReadOnly) bypass two-phase locking entirely:
// they pin a copy-on-write partition snapshot (§5.1 CopyPartition) and read
// from it. Snapshots are created lazily — the first read-only transaction
// after a write commit copies the partition; later read-only transactions
// share that copy until the next write commit retires it — and a snapshot is
// deallocated when its last reader drains. A read-only transaction therefore
// sees a consistent image as of its Begin, never blocks or is blocked by
// writers, and never touches the LockManager.
//
// The object cache holds decrypted, validated, unpickled objects — caching
// at this level is what makes repeated access cheap (§3). It is sharded
// (per-shard mutex + LRU) so concurrent readers do not serialize on one
// cache lock; snapshot reads are cached under the snapshot copy's partition
// id, so they can never observe post-snapshot writes.
//
// Threading contract (audited for the networked service layer):
//  * ObjectStore itself is thread-safe: Begin(), BeginReadOnly(), the object
//    cache, the counters, the lock manager, and the underlying ChunkStore
//    may all be driven from many threads at once.
//  * A Transaction is confined to one thread at a time — calls on the same
//    transaction must not race (including its destructor). Different
//    transactions may run on different threads concurrently; two-phase
//    locking with timeout deadlock breaking keeps read-write transactions
//    serializable, and a caller whose operation returns kTimeout must abort
//    and retry.
//  * Read-only transactions take no locks: their reads go through the
//    sharded object cache (leaf mutexes, held for pointer operations only)
//    and, below it, the chunk store. They serialize before every write
//    commit that follows their snapshot and after every one that precedes
//    it.
//  * The TypeRegistry must be fully registered before the first Begin() and
//    is read-only afterwards; ObjectPtr values are immutable, so a cached
//    object may be handed to any number of threads.
//  * With options.group_commit set, concurrent Transaction::Commit calls
//    park on a GroupCommitQueue and a leader flushes them as one chunk-store
//    batch. Each caller still holds its write locks while parked and is
//    acknowledged only after the shared flush, so a successful Commit()
//    implies durability exactly as in the solo path. See group_commit.h for
//    the failure-coupling caveat.

#ifndef SRC_OBJECT_OBJECT_STORE_H_
#define SRC_OBJECT_OBJECT_STORE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "src/chunk/chunk_store.h"
#include "src/common/sharded_cache.h"
#include "src/object/group_commit.h"
#include "src/object/lock_manager.h"
#include "src/object/pickler.h"

namespace tdb {

using ObjectId = ChunkId;

struct ObjectStoreOptions {
  std::chrono::milliseconds lock_timeout{500};
  size_t cache_capacity = 4096;  // objects

  // Coalesce concurrent Transaction::Commit calls into shared chunk-store
  // batch commits (group commit), at most kGroupCommitMaxBatch per leader.
  // Worth it when many threads/sessions commit concurrently; a solo
  // committer pays one extra queue hop.
  bool group_commit = false;
  // Optional store-level queue this store's commits chain into (two-level
  // group commit; see group_commit.h). With group_commit set, the store's
  // own queue leader submits merged batches there; without it, every write
  // commit parks there directly. The sharded service points every partition
  // engine at one combiner so batches from different partitions share a
  // flush. Must outlive the store. nullptr = commit straight to the chunk
  // store.
  GroupCommitQueue* commit_chain = nullptr;
};

class ObjectStore;

// A pinned copy-on-write snapshot shared by concurrent read-only
// transactions. Guarded by ObjectStore::snap_mu_ (refs/retired); copy_id and
// version are immutable once published.
struct SnapshotState {
  PartitionId copy_id = 0;
  uint64_t version = 0;  // data_version_ the copy was taken at
  size_t refs = 0;       // read-only transactions currently pinning it
  bool retired = false;  // superseded; deallocate when refs drains to 0
};

// A serializable transaction. Not thread-safe itself; different transactions
// may run on different threads. Destroying an uncommitted transaction aborts
// it.
class Transaction {
 public:
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  // Reads an object under a shared lock (lock-free against a pinned snapshot
  // for read-only transactions).
  Result<ObjectPtr> Get(ObjectId id);
  // Reads under an exclusive lock (avoids upgrade deadlocks when the caller
  // knows it will write). Fails on read-only transactions.
  Result<ObjectPtr> GetForUpdate(ObjectId id);

  // Creates a new object; its id is stable immediately (usable in other
  // objects written by this same transaction, §4.1).
  Result<ObjectId> Insert(ObjectPtr object);
  // Replaces an object's state.
  Status Put(ObjectId id, ObjectPtr object);
  // Removes an object.
  Status Delete(ObjectId id);

  // Atomically applies all buffered writes. The transaction is finished
  // afterwards (success or not). For a read-only transaction this just
  // releases the snapshot pin and always succeeds.
  Status Commit();
  // Discards all buffered writes and releases locks (or the snapshot pin).
  void Abort();

  bool active() const { return active_; }
  uint64_t id() const { return txn_id_; }
  bool read_only() const { return read_only_; }
  // Partition id of the pinned snapshot copy; 0 for read-write transactions.
  PartitionId snapshot_partition() const {
    return snapshot_ != nullptr ? snapshot_->copy_id : 0;
  }

 private:
  friend class ObjectStore;
  Transaction(ObjectStore* store, uint64_t txn_id)
      : store_(store), txn_id_(txn_id) {}
  Transaction(ObjectStore* store, uint64_t txn_id,
              std::shared_ptr<SnapshotState> snapshot)
      : store_(store),
        txn_id_(txn_id),
        read_only_(true),
        snapshot_(std::move(snapshot)) {}

  Result<ObjectPtr> GetInternal(ObjectId id, LockMode mode);
  Result<ObjectPtr> GetSnapshot(ObjectId id);
  void ReleasePin();

  ObjectStore* store_;
  uint64_t txn_id_;
  bool active_ = true;
  bool read_only_ = false;
  std::shared_ptr<SnapshotState> snapshot_;  // set iff read_only_
  // nullopt value = delete. No-steal: everything stays here until commit.
  std::unordered_map<ObjectId, std::optional<ObjectPtr>> write_set_;
};

class ObjectStore {
 public:
  // Objects live as chunks of `partition`; `registry` must outlive the store
  // and know every stored type.
  ObjectStore(ChunkStore* chunks, PartitionId partition,
              const TypeRegistry* registry, ObjectStoreOptions options = {});
  // Deallocates the current snapshot if no reader still pins it. Transactions
  // must not outlive the store.
  ~ObjectStore();

  std::unique_ptr<Transaction> Begin();

  // Begins a read-only snapshot transaction: pins the current COW partition
  // copy (creating one if the last write commit retired it) and serves every
  // Get from it without touching the LockManager. Fails only if the copy
  // cannot be created (e.g. the chunk store is poisoned or out of space).
  Result<std::unique_ptr<Transaction>> BeginReadOnly();

  PartitionId partition() const { return partition_; }
  ChunkStore* chunk_store() { return chunks_; }
  const TypeRegistry& registry() const { return *registry_; }

  // Operation counters in the shape of Figure 10. Maintained as relaxed
  // atomics so concurrent transactions never contend on a counter lock;
  // counts() is a consistent-enough snapshot for reporting, not a fence.
  struct OpCounts {
    uint64_t reads = 0;
    uint64_t updates = 0;
    uint64_t deletes = 0;
    uint64_t adds = 0;
    uint64_t commits = 0;
  };
  OpCounts counts() const;
  void ResetCounts();

  size_t cache_size() const;
  // Read-only transactions currently pinning a snapshot (snapshot.pins).
  size_t snapshot_pins() const;
  // Commits parked on the group-commit queue right now; 0 when group commit
  // is disabled.
  size_t group_commit_queue_depth() const {
    return group_commit_ == nullptr ? 0 : group_commit_->depth();
  }

 private:
  friend class Transaction;

  // Cache access (sharded; see sharded_cache.h).
  std::optional<ObjectPtr> CacheGet(const ObjectId& id);
  void CachePut(const ObjectId& id, ObjectPtr object);
  void CacheErase(const ObjectId& id);

  Result<ObjectPtr> LoadObject(const ObjectId& id);

  // Snapshot lifecycle (snap_mu_). Release decrements the pin and
  // deallocates a retired snapshot when the last reader drains; Dealloc
  // commits the partition deallocation and purges the object cache.
  void ReleaseSnapshot(const std::shared_ptr<SnapshotState>& snap);
  void DeallocSnapshotLocked(const SnapshotState& snap);

  ChunkStore* chunks_;
  PartitionId partition_;
  const TypeRegistry* registry_;
  ObjectStoreOptions options_;
  LockManager locks_;
  std::unique_ptr<GroupCommitQueue> group_commit_;  // null when disabled

  ShardedLruCache<ObjectPtr> cache_;

  // Version of the partition's committed state: bumped by every successful
  // write commit. A snapshot taken at version V is current until the counter
  // moves past V; BeginReadOnly retires a stale snapshot and copies afresh.
  std::atomic<uint64_t> data_version_{0};

  // snap_mu_ guards snapshot_ and every SnapshotState's refs/retired. It is
  // ordered before the chunk store's mutex (snapshot creation/deallocation
  // commit under it) and is never taken by the write-commit path, so writers
  // do not serialize with snapshot bookkeeping.
  std::mutex snap_mu_;
  std::shared_ptr<SnapshotState> snapshot_;  // current (non-retired) snapshot
  std::atomic<size_t> pins_{0};

  std::atomic<uint64_t> next_txn_id_{1};
  struct CountCells {
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> updates{0};
    std::atomic<uint64_t> deletes{0};
    std::atomic<uint64_t> adds{0};
    std::atomic<uint64_t> commits{0};
  };
  CountCells counts_;
};

}  // namespace tdb

#endif  // SRC_OBJECT_OBJECT_STORE_H_
