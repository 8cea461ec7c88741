// Trusted paging (§10 "Potential extensions"): the trusted processing
// environment protects only a bounded amount of volatile memory, so a
// trusted program whose state outgrows it must page to untrusted storage.
// "This problem may be solved by using a page fault handler to store
// encrypted and validated pages in the chunk store."
//
// TrustedPager models that handler: a flat page-addressed space with a
// bounded resident set. Faulted-in pages are decrypted and validated by the
// chunk store; evicted dirty pages are encrypted, hashed, and committed.
// Any tampering with a paged-out page surfaces as kTamperDetected at
// fault-in time. Hits, faults, evictions and writebacks are counted in the
// metrics registry (paging.*).

#ifndef SRC_PAGING_TRUSTED_PAGER_H_
#define SRC_PAGING_TRUSTED_PAGER_H_

#include <list>
#include <map>
#include <memory>

#include "src/chunk/chunk_store.h"

namespace tdb {

struct TrustedPagerOptions {
  size_t page_size = 4096;
  // Maximum pages held in trusted memory; beyond this, LRU pages are paged
  // out to the chunk store.
  size_t resident_pages = 16;
  // Dirty evictions are buffered and committed in groups of this many pages
  // to amortize commit overhead.
  size_t writeback_batch = 4;
};

class TrustedPager {
 public:
  // Pages live in their own partition with the given parameters.
  static Result<std::unique_ptr<TrustedPager>> Create(
      ChunkStore* chunks, CryptoParams params, TrustedPagerOptions options = {});

  // Byte-addressed access across page boundaries; pages are faulted in and
  // allocated on demand (unbacked reads return zeros).
  Status Write(uint64_t address, ByteView data);
  Result<Bytes> Read(uint64_t address, size_t length);

  // Pages out all dirty state (e.g., before the trusted environment is
  // suspended).
  Status FlushAll();

  size_t resident_count() const { return resident_.size(); }
  PartitionId partition() const { return partition_; }

 private:
  TrustedPager(ChunkStore* chunks, PartitionId partition,
               TrustedPagerOptions options)
      : chunks_(chunks), partition_(partition), options_(options) {}

  struct Page {
    Bytes data;
    bool dirty = false;
    std::list<uint64_t>::iterator lru_it;
  };

  // Faults the page in (or materializes a zero page) and returns it.
  Result<Page*> Touch(uint64_t page_no, bool will_write);
  Status EvictIfNeeded();
  Status WriteBack(const std::vector<uint64_t>& page_numbers);

  ChunkStore* chunks_;
  PartitionId partition_;
  TrustedPagerOptions options_;
  std::map<uint64_t, Page> resident_;
  std::list<uint64_t> lru_;  // front = most recent
  std::map<uint64_t, ChunkId> backing_;  // page -> chunk (once paged out)
};

}  // namespace tdb

#endif  // SRC_PAGING_TRUSTED_PAGER_H_
