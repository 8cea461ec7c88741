#include "src/chunk/chunk_map.h"

#include <algorithm>

namespace tdb {

std::optional<Descriptor> DescriptorCache::Get(const ChunkId& id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  if (!it->second.dirty) {
    lru_.erase(it->second.lru_it);
    lru_.push_front(id);
    it->second.lru_it = lru_.begin();
  }
  return it->second.desc;
}

void DescriptorCache::PutClean(const ChunkId& id, const Descriptor& desc) {
  if (entries_.count(id) > 0) {
    return;  // never downgrade an existing (possibly dirty) entry
  }
  lru_.push_front(id);
  entries_[id] = Entry{desc, false, lru_.begin()};
  EvictIfNeeded();
}

void DescriptorCache::PutDirty(const ChunkId& id, const Descriptor& desc) {
  auto it = entries_.find(id);
  if (it != entries_.end()) {
    if (!it->second.dirty) {
      lru_.erase(it->second.lru_it);
      it->second.dirty = true;
      ++dirty_count_;
    }
    it->second.desc = desc;
    return;
  }
  entries_[id] = Entry{desc, true, lru_.end()};
  ++dirty_count_;
}

void DescriptorCache::MarkClean(const ChunkId& id) {
  auto it = entries_.find(id);
  if (it == entries_.end() || !it->second.dirty) {
    return;
  }
  it->second.dirty = false;
  --dirty_count_;
  lru_.push_front(id);
  it->second.lru_it = lru_.begin();
  EvictIfNeeded();
}

void DescriptorCache::Drop(const ChunkId& id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return;
  }
  if (it->second.dirty) {
    --dirty_count_;
  } else {
    lru_.erase(it->second.lru_it);
  }
  entries_.erase(it);
}

void DescriptorCache::DropPartition(PartitionId partition) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.partition == partition) {
      if (it->second.dirty) {
        --dirty_count_;
      } else {
        lru_.erase(it->second.lru_it);
      }
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<std::pair<ChunkId, Descriptor>> DescriptorCache::DirtyEntries(
    PartitionId partition, uint8_t height) const {
  std::vector<std::pair<ChunkId, Descriptor>> out;
  for (const auto& [id, entry] : entries_) {
    if (entry.dirty && id.partition == partition &&
        id.position.height == height) {
      out.emplace_back(id, entry.desc);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<PartitionId> DescriptorCache::DirtyPartitions() const {
  std::vector<PartitionId> out;
  for (const auto& [id, entry] : entries_) {
    if (entry.dirty) {
      out.push_back(id.partition);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void DescriptorCache::EvictIfNeeded() {
  while (entries_.size() > capacity_ && !lru_.empty()) {
    ChunkId victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
  }
}

}  // namespace tdb
