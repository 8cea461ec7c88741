#include "src/object/object_store.h"

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"

namespace tdb {

ObjectStore::ObjectStore(ChunkStore* chunks, PartitionId partition,
                         const TypeRegistry* registry,
                         ObjectStoreOptions options)
    : chunks_(chunks),
      partition_(partition),
      registry_(registry),
      options_(options),
      locks_(options.lock_timeout),
      cache_(options.cache_capacity,
             {"object.cache_evictions", "object_cache"}) {
  if (options_.group_commit) {
    commit_queue_ = options_.commit_queue;
    if (commit_queue_ == nullptr) {
      own_queue_ = std::make_unique<GroupCommitQueue>(chunks_);
      commit_queue_ = own_queue_.get();
    }
  }
  obs::SetGauge("cache.shards", cache_.shard_count());
}

ObjectStore::~ObjectStore() {
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (snapshot_ != nullptr && snapshot_->refs == 0) {
    DeallocSnapshotLocked(*snapshot_);
  }
}

std::unique_ptr<Transaction> ObjectStore::Begin() {
  return std::unique_ptr<Transaction>(
      new Transaction(this, next_txn_id_.fetch_add(1)));
}

Result<std::unique_ptr<Transaction>> ObjectStore::BeginReadOnly() {
  std::shared_ptr<SnapshotState> snap;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    uint64_t version = data_version_.load(std::memory_order_acquire);
    if (snapshot_ != nullptr && snapshot_->version != version) {
      // A write commit moved the partition past this snapshot. Retire it;
      // the last pinned reader (or this call, if none is left) deallocates.
      snapshot_->retired = true;
      if (snapshot_->refs == 0) {
        DeallocSnapshotLocked(*snapshot_);
      }
      snapshot_ = nullptr;
    }
    if (snapshot_ == nullptr) {
      TDB_ASSIGN_OR_RETURN(PartitionId copy_id, chunks_->AllocatePartition());
      ChunkStore::Batch batch;
      batch.CopyPartition(copy_id, partition_);
      TDB_RETURN_IF_ERROR(chunks_->Commit(std::move(batch)));
      snapshot_ = std::make_shared<SnapshotState>();
      snapshot_->copy_id = copy_id;
      snapshot_->version = version;
      obs::Count("snapshot.created");
    } else {
      obs::Count("snapshot.reused");
    }
    snapshot_->refs++;
    snap = snapshot_;
  }
  obs::SetGauge("snapshot.pins", pins_.fetch_add(1) + 1);
  return std::unique_ptr<Transaction>(
      new Transaction(this, next_txn_id_.fetch_add(1), std::move(snap)));
}

void ObjectStore::ReleaseSnapshot(const std::shared_ptr<SnapshotState>& snap) {
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    snap->refs--;
    if (snap->refs == 0 && snap->retired) {
      DeallocSnapshotLocked(*snap);
    }
  }
  obs::SetGauge("snapshot.pins", pins_.fetch_sub(1) - 1);
}

void ObjectStore::DeallocSnapshotLocked(const SnapshotState& snap) {
  // Best effort: a failed deallocation (e.g. poisoned store) strands the
  // copy until the store reopens, which recovery handles anyway.
  ChunkStore::Batch batch;
  batch.DeallocatePartition(snap.copy_id);
  Status st = chunks_->Commit(std::move(batch));
  (void)st;
  cache_.ErasePartition(snap.copy_id);
  obs::Count("snapshot.deallocated");
}

size_t ObjectStore::snapshot_pins() const {
  return pins_.load(std::memory_order_relaxed);
}

std::optional<ObjectPtr> ObjectStore::CacheGet(const ObjectId& id) {
  std::optional<ObjectPtr> hit = cache_.Get(id);
  if (hit.has_value()) {
    obs::Count("cache.shard_hits");
    obs::Count("object.cache_hits");
    obs::TraceEmit(obs::TraceKind::kCacheHit, "object_cache",
                   id.position.rank);
  } else {
    obs::Count("cache.shard_misses");
    obs::Count("object.cache_misses");
    obs::TraceEmit(obs::TraceKind::kCacheMiss, "object_cache",
                   id.position.rank);
  }
  return hit;
}

void ObjectStore::CachePut(const ObjectId& id, ObjectPtr object) {
  cache_.Put(id, std::move(object));
}

void ObjectStore::CacheErase(const ObjectId& id) { cache_.Erase(id); }

Result<ObjectPtr> ObjectStore::LoadObject(const ObjectId& id) {
  TDB_ASSIGN_OR_RETURN(Bytes pickled, chunks_->Read(id));
  return registry_->Unpickle(pickled);
}

size_t ObjectStore::cache_size() const { return cache_.size(); }

// ---------------------------------------------------------------------------
// Transaction

Transaction::~Transaction() {
  if (active_) {
    Abort();
  }
}

void Transaction::ReleasePin() {
  if (snapshot_ != nullptr) {
    store_->ReleaseSnapshot(snapshot_);
    snapshot_.reset();
  }
}

Result<ObjectPtr> Transaction::GetSnapshot(ObjectId id) {
  // The snapshot copy shares positions with the source partition, so the
  // caller-visible id maps to the copy by swapping the partition. No locks:
  // the copy is immutable while pinned.
  ObjectId snap_id(snapshot_->copy_id, id.position);
  if (std::optional<ObjectPtr> cached = store_->CacheGet(snap_id)) {
    return *cached;
  }
  TDB_ASSIGN_OR_RETURN(ObjectPtr object, store_->LoadObject(snap_id));
  store_->CachePut(snap_id, object);
  return object;
}

Result<ObjectPtr> Transaction::GetInternal(ObjectId id, LockMode mode) {
  ProfileScope scope("module.object_store");
  if (!active_) {
    return FailedPreconditionError("transaction is finished");
  }
  if (read_only_) {
    if (mode != LockMode::kShared) {
      return FailedPreconditionError(
          "cannot lock for update in a read-only transaction");
    }
    return GetSnapshot(id);
  }
  TDB_RETURN_IF_ERROR(store_->locks_.Acquire(txn_id_, id, mode));
  auto pending = write_set_.find(id);
  if (pending != write_set_.end()) {
    if (!pending->second.has_value()) {
      return NotFoundError("object deleted in this transaction");
    }
    return *pending->second;
  }
  if (std::optional<ObjectPtr> cached = store_->CacheGet(id)) {
    return *cached;
  }
  TDB_ASSIGN_OR_RETURN(ObjectPtr object, store_->LoadObject(id));
  store_->CachePut(id, object);
  return object;
}

Result<ObjectPtr> Transaction::Get(ObjectId id) {
  return GetInternal(id, LockMode::kShared);
}

Result<ObjectPtr> Transaction::GetForUpdate(ObjectId id) {
  return GetInternal(id, LockMode::kExclusive);
}

Result<ObjectId> Transaction::Insert(ObjectPtr object) {
  ProfileScope scope("module.object_store");
  if (!active_) {
    return FailedPreconditionError("transaction is finished");
  }
  if (read_only_) {
    return FailedPreconditionError("read-only transaction cannot insert");
  }
  if (object == nullptr) {
    return InvalidArgumentError("cannot insert a null object");
  }
  TDB_ASSIGN_OR_RETURN(ObjectId id,
                       store_->chunks_->AllocateChunk(store_->partition_));
  TDB_RETURN_IF_ERROR(
      store_->locks_.Acquire(txn_id_, id, LockMode::kExclusive));
  write_set_[id] = std::move(object);
  return id;
}

Status Transaction::Put(ObjectId id, ObjectPtr object) {
  ProfileScope scope("module.object_store");
  if (!active_) {
    return FailedPreconditionError("transaction is finished");
  }
  if (read_only_) {
    return FailedPreconditionError("read-only transaction cannot put");
  }
  if (object == nullptr) {
    return InvalidArgumentError("cannot put a null object");
  }
  TDB_RETURN_IF_ERROR(
      store_->locks_.Acquire(txn_id_, id, LockMode::kExclusive));
  write_set_[id] = std::move(object);
  return OkStatus();
}

Status Transaction::Delete(ObjectId id) {
  ProfileScope scope("module.object_store");
  if (!active_) {
    return FailedPreconditionError("transaction is finished");
  }
  if (read_only_) {
    return FailedPreconditionError("read-only transaction cannot delete");
  }
  TDB_RETURN_IF_ERROR(
      store_->locks_.Acquire(txn_id_, id, LockMode::kExclusive));
  auto pending = write_set_.find(id);
  bool inserted_here =
      pending != write_set_.end() && pending->second.has_value() &&
      !store_->chunks_->ChunkWritten(id);
  if (inserted_here) {
    // Inserted and deleted within this transaction: nothing to persist.
    write_set_.erase(pending);
  } else {
    if (pending == write_set_.end() && !store_->chunks_->ChunkWritten(id)) {
      return NotFoundError("object " + id.ToString() + " does not exist");
    }
    write_set_[id] = std::nullopt;
  }
  return OkStatus();
}

Status Transaction::Commit() {
  ProfileScope scope("module.object_store");
  if (!active_) {
    return FailedPreconditionError("transaction is finished");
  }
  if (read_only_) {
    ReleasePin();
    active_ = false;
    return OkStatus();
  }
  ChunkStore::Batch batch;
  for (const auto& [id, value] : write_set_) {
    if (value.has_value()) {
      batch.WriteChunk(id, store_->registry_->Pickle(**value));
    } else if (store_->chunks_->ChunkWritten(id)) {
      batch.DeallocateChunk(id);
    }
  }
  bool wrote = !batch.empty();
  // With group commit enabled the call parks on the queue and a leader
  // flushes a merged batch; either way the call returns only once this
  // transaction's writes are durable (or failed). The write locks acquired
  // above are held across the wait, which is what makes merging safe.
  Status status = store_->commit_queue_ != nullptr
                      ? store_->commit_queue_->Commit(std::move(batch))
                      : store_->chunks_->Commit(std::move(batch));
  if (status.ok()) {
    for (auto& [id, value] : write_set_) {
      if (value.has_value()) {
        store_->CachePut(id, std::move(*value));
      } else {
        store_->CacheErase(id);
      }
    }
    if (wrote) {
      // Retires the current read snapshot: the next BeginReadOnly copies
      // afresh. An atomic bump, not snap_mu_ — writers never wait on
      // snapshot bookkeeping.
      store_->data_version_.fetch_add(1, std::memory_order_acq_rel);
    }
    obs::Count("object.txn_commits");
  }
  write_set_.clear();
  store_->locks_.ReleaseAll(txn_id_);
  active_ = false;
  return status;
}

void Transaction::Abort() {
  if (read_only_) {
    ReleasePin();
    active_ = false;
    return;
  }
  write_set_.clear();
  store_->locks_.ReleaseAll(txn_id_);
  active_ = false;
}

}  // namespace tdb
