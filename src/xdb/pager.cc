#include "src/xdb/pager.h"

#include <algorithm>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace tdb {

Result<Bytes> MemPageFile::ReadPage(uint32_t page_no) const {
  if (page_no >= pages_.size()) {
    return InvalidArgumentError("page out of range");
  }
  return pages_[page_no];
}

Status MemPageFile::WritePage(uint32_t page_no, ByteView data) {
  if (page_no >= pages_.size()) {
    return InvalidArgumentError("page out of range");
  }
  if (data.size() > page_size_) {
    return InvalidArgumentError("page data too large");
  }
  Bytes& page = pages_[page_no];
  page.assign(data.begin(), data.end());
  page.resize(page_size_, 0);
  ++pages_written_;
  return OkStatus();
}

Status MemPageFile::Extend(uint32_t new_page_count) {
  if (new_page_count < pages_.size()) {
    return InvalidArgumentError("cannot shrink page file");
  }
  pages_.resize(new_page_count, Bytes(page_size_, 0));
  return OkStatus();
}

Status MemPageFile::Flush() {
  ++flush_count_;
  return OkStatus();
}

Status MemAppendFile::Append(ByteView data) {
  tdb::Append(data_, data);
  return OkStatus();
}

Status MemAppendFile::Flush() {
  ++flush_count_;
  return OkStatus();
}

Status MemAppendFile::Truncate() {
  data_.clear();
  return OkStatus();
}

void Pager::Touch(uint32_t page_no) {
  auto it = cache_.find(page_no);
  if (it != cache_.end()) {
    lru_.erase(it->second.lru_it);
    lru_.push_front(page_no);
    it->second.lru_it = lru_.begin();
  }
}

void Pager::InsertClean(uint32_t page_no, Bytes data) {
  lru_.push_front(page_no);
  cache_[page_no] = Entry{std::move(data), lru_.begin()};
  while (cache_.size() > capacity_ && !lru_.empty()) {
    // Evict the least recently used non-dirty page.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (dirty_.count(*it) == 0) {
        uint32_t victim = *it;
        lru_.erase(std::next(it).base());
        cache_.erase(victim);
        obs::Count("xdb.page_cache_evictions");
        obs::TraceEmit(obs::TraceKind::kCacheEviction, "xdb_pager", victim);
        break;
      }
    }
    break;  // only one eviction attempt per insert
  }
}

Result<Bytes> Pager::Read(uint32_t page_no) {
  auto dirty_it = dirty_.find(page_no);
  if (dirty_it != dirty_.end()) {
    obs::Count("xdb.page_cache_hits");
    obs::TraceEmit(obs::TraceKind::kCacheHit, "xdb_pager", page_no);
    return dirty_it->second;
  }
  auto it = cache_.find(page_no);
  if (it != cache_.end()) {
    obs::Count("xdb.page_cache_hits");
    obs::TraceEmit(obs::TraceKind::kCacheHit, "xdb_pager", page_no);
    Touch(page_no);
    return it->second.data;
  }
  obs::Count("xdb.page_cache_misses");
  obs::TraceEmit(obs::TraceKind::kCacheMiss, "xdb_pager", page_no);
  TDB_ASSIGN_OR_RETURN(Bytes data, file_->ReadPage(page_no));
  InsertClean(page_no, data);
  return data;
}

Status Pager::Write(uint32_t page_no, Bytes data) {
  if (data.size() > page_size()) {
    return InvalidArgumentError("page data exceeds page size");
  }
  dirty_[page_no] = std::move(data);
  return OkStatus();
}

Result<uint32_t> Pager::AllocatePage() {
  if (!free_pages_.empty()) {
    uint32_t page = free_pages_.back();
    free_pages_.pop_back();
    return page;
  }
  uint32_t page = file_->page_count();
  TDB_RETURN_IF_ERROR(file_->Extend(page + 1));
  return page;
}

void Pager::SetFreeList(std::vector<uint32_t> free_pages) {
  free_pages_ = std::move(free_pages);
}

void Pager::FreePage(uint32_t page_no) {
  dirty_.erase(page_no);
  auto it = cache_.find(page_no);
  if (it != cache_.end()) {
    lru_.erase(it->second.lru_it);
    cache_.erase(it);
  }
  free_pages_.push_back(page_no);
}

Status Pager::FlushDirty() {
  // Write in page-number order: deterministic device traffic (crash-point
  // replays must see the same write sequence every run) and sequential I/O.
  std::vector<uint32_t> order;
  order.reserve(dirty_.size());
  for (const auto& [page_no, data] : dirty_) {
    order.push_back(page_no);
  }
  std::sort(order.begin(), order.end());
  for (uint32_t page_no : order) {
    const Bytes& data = dirty_[page_no];
    TDB_RETURN_IF_ERROR(file_->WritePage(page_no, data));
    // Refresh the clean cache with the flushed contents.
    auto it = cache_.find(page_no);
    if (it != cache_.end()) {
      it->second.data = data;
    } else {
      InsertClean(page_no, data);
    }
  }
  dirty_.clear();
  return file_->Flush();
}

void Pager::DropCache() {
  cache_.clear();
  lru_.clear();
  dirty_.clear();
}

}  // namespace tdb
