// The partition directory: the durable catalog of a sharded server's
// partitions.
//
// Each entry maps a tenant-visible name to a chunk-store partition id plus
// its ownership state (serving here, or moved to another server's address).
// The whole table is pickled into a single chunk of a dedicated directory
// partition inside the same chunk store that holds the data, so every
// directory mutation rides the store's ordinary trusted commit machinery:
// it is crypto-validated on read, atomic with respect to crashes, and —
// crucially — committed in the *same batch* as the partition mutation it
// describes (Create writes the new partition and the new table in one
// commit; Drop deallocates and updates the table in one commit). A crash
// can therefore never leave a partition allocated but uncataloged, or
// cataloged but missing.
//
// The directory partition announces itself with a magic header in its
// first chunk, so Open() finds it by scanning the store's partitions — no
// out-of-band root pointer is needed, and a store that has never had a
// directory gets one created on first open.

#ifndef SRC_SHARD_DIRECTORY_H_
#define SRC_SHARD_DIRECTORY_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/chunk/chunk_store.h"

namespace tdb::shard {

struct PartitionEntry {
  PartitionId id = 0;
  std::string name;
  // Mirrors PartitionState (serving/moved); draining is a transient
  // in-memory engine state and is never persisted.
  bool moved = false;
  std::string moved_to;  // target server address once moved
  // Bumped on every ownership change; lets operators order hand-off events.
  uint64_t epoch = 0;
};

// A list of entries, as the directory's table chunk holds it after its magic
// and version, and as kPartitionList and kPartitionLookup answers carry it: a
// varint count, then each entry's id, name, moved flag, moved_to and epoch.
Bytes PickleEntryList(const std::vector<PartitionEntry>& entries);
// Reads a PickleEntryList payload. The count is checked against the bytes
// left (an entry takes at least 5 B) before anything is allocated, so a
// hostile count cannot force a large allocation.
Result<std::vector<PartitionEntry>> UnpickleEntryList(ByteView data);

class PartitionDirectory {
 public:
  // Opens the store's directory, creating an empty one (its own partition,
  // keyed with `params`) if the store has none. `chunks` must outlive the
  // directory.
  static Result<std::unique_ptr<PartitionDirectory>> Open(ChunkStore* chunks,
                                                          CryptoParams params);

  PartitionDirectory(const PartitionDirectory&) = delete;
  PartitionDirectory& operator=(const PartitionDirectory&) = delete;

  // Allocates a fresh partition keyed with `params` and catalogs it under
  // `name` — one atomic commit. Names are unique.
  Result<PartitionEntry> Create(const std::string& name, CryptoParams params);

  // Catalogs an *existing* partition (e.g. one restored by a hand-off
  // import) under `name`.
  Result<PartitionEntry> Adopt(PartitionId id, const std::string& name);

  // Deallocates the partition (all chunks and copies) and removes its entry
  // — one atomic commit.
  Status Drop(const std::string& name);

  Result<PartitionEntry> Lookup(const std::string& name) const;
  Result<PartitionEntry> Find(PartitionId id) const;
  std::vector<PartitionEntry> List() const;

  // Ownership transitions, persisted immediately. MarkMoved keeps the
  // partition's data (the source retains it until the operator drops it);
  // MarkServing reclaims ownership (hand-off rollback or import activate).
  Status MarkMoved(PartitionId id, const std::string& address);
  Status MarkServing(PartitionId id);

  PartitionId directory_partition() const { return chunk_.partition; }

 private:
  PartitionDirectory(ChunkStore* chunks, ChunkId chunk,
                     std::vector<PartitionEntry> entries)
      : chunks_(chunks), chunk_(chunk), entries_(std::move(entries)) {}

  Bytes PickleLocked() const;
  // Applies `batch` (which must already carry the table write) atomically.
  Status CommitLocked(ChunkStore::Batch batch);

  ChunkStore* chunks_;
  const ChunkId chunk_;  // the table's chunk in the directory partition

  mutable std::mutex mu_;
  std::vector<PartitionEntry> entries_;
};

}  // namespace tdb::shard

#endif  // SRC_SHARD_DIRECTORY_H_
