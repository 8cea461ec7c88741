// A sharded LRU cache keyed by ChunkId, built for read-path concurrency:
// the key space is split across N shards (N = next power of two >= the
// machine's hardware concurrency by default), each with its own mutex,
// hash table, and LRU list, so concurrent readers touching different
// shards never contend and readers contending on one shard serialize on
// a leaf mutex held for a few pointer operations — never across I/O,
// crypto, or another lock.
//
// Used by the object store (decoded-object cache) and the chunk store
// (validated-chunk cache). Values are returned by copy; both users store
// cheap-to-copy values (shared_ptr / refcounted byte buffers).
//
// Metric emission: lookup hit/miss counters are the caller's business
// (callers may veto a hit, e.g. on a generation mismatch); evictions are
// only visible here, so the cache emits them itself under the configured
// name plus the generic `cache.shard_evictions`.

#ifndef SRC_COMMON_SHARDED_CACHE_H_
#define SRC_COMMON_SHARDED_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/chunk/chunk_id.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace tdb {

inline size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

// Shard count used when the caller does not pin one: enough shards that
// every hardware thread can hold a different shard mutex at once.
inline size_t DefaultCacheShards() {
  return NextPow2(HardwareConcurrency());
}

template <typename Value>
class ShardedLruCache {
 public:
  struct Metrics {
    const char* evictions = nullptr;     // e.g. "object.cache_evictions"
    const char* trace_module = nullptr;  // e.g. "object_cache"
  };

  // `capacity` is the total entry budget across all shards (0 disables the
  // cache entirely); `shards` is rounded up to a power of two, 0 meaning the
  // default. The cache never holds more than `capacity` entries: when there
  // are fewer entries than shards, it uses fewer shards.
  ShardedLruCache(size_t capacity, size_t shards, Metrics metrics)
      : metrics_(metrics) {
    size_t n = shards != 0 ? NextPow2(shards) : DefaultCacheShards();
    while (n > 1 && n > capacity) {
      n >>= 1;
    }
    shard_mask_ = n - 1;
    per_shard_capacity_ = capacity / n;
    shards_ = std::vector<Shard>(n);
  }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  bool enabled() const { return per_shard_capacity_ != 0; }
  size_t shard_count() const { return shards_.size(); }

  std::optional<Value> Get(const ChunkId& key) {
    if (!enabled()) {
      return std::nullopt;
    }
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return it->second.value;
  }

  void Put(const ChunkId& key, Value value) {
    if (!enabled()) {
      return;
    }
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second.value = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      return;
    }
    shard.lru.push_front(key);
    shard.map.emplace(key, Entry{std::move(value), shard.lru.begin()});
    while (shard.map.size() > per_shard_capacity_ && !shard.lru.empty()) {
      ChunkId victim = shard.lru.back();
      shard.lru.pop_back();
      shard.map.erase(victim);
      obs::Count("cache.shard_evictions");
      if (metrics_.evictions != nullptr) {
        obs::Count(metrics_.evictions);
      }
      if (metrics_.trace_module != nullptr) {
        obs::TraceEmit(obs::TraceKind::kCacheEviction, metrics_.trace_module,
                       victim.position.rank);
      }
    }
  }

  void Erase(const ChunkId& key) {
    if (!enabled()) {
      return;
    }
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.erase(it->second.lru_it);
      shard.map.erase(it);
    }
  }

  // Drops every entry of `partition` — used when a partition (e.g. a
  // drained snapshot copy) is deallocated and its ids may be reused.
  void ErasePartition(PartitionId partition) {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto it = shard.map.begin(); it != shard.map.end();) {
        if (it->first.partition == partition) {
          shard.lru.erase(it->second.lru_it);
          it = shard.map.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.clear();
      shard.lru.clear();
    }
  }

  size_t size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.map.size();
    }
    return total;
  }

 private:
  struct Entry {
    Value value;
    std::list<ChunkId>::iterator lru_it;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<ChunkId, Entry> map;
    std::list<ChunkId> lru;
  };

  Shard& ShardFor(const ChunkId& key) {
    // Pack() concentrates entropy in the low rank bits; a multiplicative
    // mix spreads sequential ranks across shards.
    uint64_t h = key.Pack() * 0x9E3779B97F4A7C15ULL;
    return shards_[(h >> 32) & shard_mask_];
  }

  Metrics metrics_;
  size_t shard_mask_ = 0;
  size_t per_shard_capacity_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace tdb

#endif  // SRC_COMMON_SHARDED_CACHE_H_
