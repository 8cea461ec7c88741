// The descriptor cache of the chunk map (§4.5, §4.6).
//
// Validated descriptors are cached by chunk id. Descriptors updated by
// commits are buffered here as *dirty* entries: they are pinned (never
// evicted) until a checkpoint writes the affected map chunks, and the
// bottom-up search during reads guarantees a stale descriptor stored in a
// parent map chunk is never used while a dirty entry exists.

#ifndef SRC_CHUNK_CHUNK_MAP_H_
#define SRC_CHUNK_CHUNK_MAP_H_

#include <list>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/chunk/descriptor.h"

namespace tdb {

class DescriptorCache {
 public:
  explicit DescriptorCache(size_t capacity) : capacity_(capacity) {}

  // Looks up a descriptor, refreshing its LRU position.
  std::optional<Descriptor> Get(const ChunkId& id);

  // Inserts a clean (validated, persisted) descriptor if no entry exists;
  // may evict the least recently used clean entry.
  void PutClean(const ChunkId& id, const Descriptor& desc);

  // Inserts or overwrites with a dirty (buffered) descriptor.
  void PutDirty(const ChunkId& id, const Descriptor& desc);

  // Transitions one dirty entry to clean (after its map chunk was written).
  void MarkClean(const ChunkId& id);

  void Drop(const ChunkId& id);
  void DropPartition(PartitionId partition);

  size_t size() const { return entries_.size(); }
  size_t dirty_count() const { return dirty_count_; }

  // Dirty entries of one partition at one tree height, ordered by rank.
  std::vector<std::pair<ChunkId, Descriptor>> DirtyEntries(
      PartitionId partition, uint8_t height) const;

  // Partitions that currently have dirty entries, at any height.
  std::vector<PartitionId> DirtyPartitions() const;

 private:
  struct Entry {
    Descriptor desc;
    bool dirty = false;
    std::list<ChunkId>::iterator lru_it;  // valid iff !dirty
  };

  void EvictIfNeeded();

  size_t capacity_;
  size_t dirty_count_ = 0;
  std::unordered_map<ChunkId, Entry> entries_;
  std::list<ChunkId> lru_;  // front = most recent; clean entries only
};

}  // namespace tdb

#endif  // SRC_CHUNK_CHUNK_MAP_H_
