#include "src/paging/trusted_pager.h"

#include <algorithm>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace tdb {

Result<std::unique_ptr<TrustedPager>> TrustedPager::Create(
    ChunkStore* chunks, CryptoParams params, TrustedPagerOptions options) {
  if (options.page_size == 0 || options.resident_pages == 0) {
    return InvalidArgumentError("page size and resident capacity must be > 0");
  }
  TDB_ASSIGN_OR_RETURN(PartitionId partition, chunks->AllocatePartition());
  ChunkStore::Batch batch;
  batch.WritePartition(partition, std::move(params));
  TDB_RETURN_IF_ERROR(chunks->Commit(std::move(batch)));
  return std::unique_ptr<TrustedPager>(
      new TrustedPager(chunks, partition, options));
}

Result<TrustedPager::Page*> TrustedPager::Touch(uint64_t page_no,
                                                bool will_write) {
  auto it = resident_.find(page_no);
  if (it != resident_.end()) {
    lru_.erase(it->second.lru_it);
    lru_.push_front(page_no);
    it->second.lru_it = lru_.begin();
    it->second.dirty |= will_write;
    obs::Count("paging.page_hits");
    obs::TraceEmit(obs::TraceKind::kCacheHit, "paging", page_no);
    return &it->second;
  }
  // Page fault: load from the chunk store (validated) or make a zero page.
  Bytes data;
  auto backing = backing_.find(page_no);
  if (backing != backing_.end()) {
    TDB_ASSIGN_OR_RETURN(data, chunks_->Read(backing->second));
    if (data.size() != options_.page_size) {
      return TamperDetectedError("paged-out page has wrong size");
    }
    obs::Count("paging.faults");
    obs::TraceEmit(obs::TraceKind::kPageFault, "paging", page_no);
  } else {
    data.assign(options_.page_size, 0);
    obs::Count("paging.zero_fills");
  }
  TDB_RETURN_IF_ERROR(EvictIfNeeded());
  lru_.push_front(page_no);
  Page& page = resident_[page_no];
  page.data = std::move(data);
  page.dirty = will_write;
  page.lru_it = lru_.begin();
  return &page;
}

Status TrustedPager::EvictIfNeeded() {
  if (resident_.size() < options_.resident_pages) {
    return OkStatus();
  }
  // Gather LRU victims; write dirty ones back in one commit.
  std::vector<uint64_t> dirty_victims;
  std::vector<uint64_t> victims;
  size_t needed = resident_.size() + 1 - options_.resident_pages;
  size_t batch = std::max(needed, options_.writeback_batch);
  for (auto it = lru_.rbegin(); it != lru_.rend() && victims.size() < batch;
       ++it) {
    victims.push_back(*it);
    if (resident_[*it].dirty) {
      dirty_victims.push_back(*it);
    }
  }
  TDB_RETURN_IF_ERROR(WriteBack(dirty_victims));
  for (uint64_t page_no : victims) {
    auto it = resident_.find(page_no);
    lru_.erase(it->second.lru_it);
    resident_.erase(it);
    obs::TraceEmit(obs::TraceKind::kCacheEviction, "paging", page_no);
  }
  obs::Count("paging.evictions", victims.size());
  return OkStatus();
}

Status TrustedPager::WriteBack(const std::vector<uint64_t>& page_numbers) {
  if (page_numbers.empty()) {
    return OkStatus();
  }
  ChunkStore::Batch batch;
  for (uint64_t page_no : page_numbers) {
    if (backing_.count(page_no) == 0) {
      TDB_ASSIGN_OR_RETURN(ChunkId id, chunks_->AllocateChunk(partition_));
      backing_[page_no] = id;
    }
    batch.WriteChunk(backing_[page_no], resident_[page_no].data);
  }
  TDB_RETURN_IF_ERROR(chunks_->Commit(std::move(batch)));
  for (uint64_t page_no : page_numbers) {
    resident_[page_no].dirty = false;
    obs::TraceEmit(obs::TraceKind::kPageWriteback, "paging", page_no);
  }
  obs::Count("paging.writebacks", page_numbers.size());
  return OkStatus();
}

Status TrustedPager::Write(uint64_t address, ByteView data) {
  size_t written = 0;
  while (written < data.size()) {
    uint64_t page_no = (address + written) / options_.page_size;
    size_t offset = (address + written) % options_.page_size;
    size_t take = std::min(data.size() - written, options_.page_size - offset);
    TDB_ASSIGN_OR_RETURN(Page * page, Touch(page_no, /*will_write=*/true));
    std::memcpy(page->data.data() + offset, data.data() + written, take);
    written += take;
  }
  return OkStatus();
}

Result<Bytes> TrustedPager::Read(uint64_t address, size_t length) {
  Bytes out;
  out.reserve(length);
  size_t read = 0;
  while (read < length) {
    uint64_t page_no = (address + read) / options_.page_size;
    size_t offset = (address + read) % options_.page_size;
    size_t take = std::min(length - read, options_.page_size - offset);
    TDB_ASSIGN_OR_RETURN(Page * page, Touch(page_no, /*will_write=*/false));
    out.insert(out.end(), page->data.begin() + offset,
               page->data.begin() + offset + take);
    read += take;
  }
  return out;
}

Status TrustedPager::FlushAll() {
  std::vector<uint64_t> dirty;
  for (const auto& [page_no, page] : resident_) {
    if (page.dirty) {
      dirty.push_back(page_no);
    }
  }
  return WriteBack(dirty);
}

}  // namespace tdb
