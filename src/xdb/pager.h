// Page-oriented storage for XDB, the conventional embedded-database baseline
// of §9.5. XDB is deliberately built the way embedded databases of the
// paper's era were: fixed-size pages updated in place, a page cache, and a
// write-ahead redo log — which is why it performs "multiple disk writes at
// commit" (§9.5.2), the cost TDB's log-structured design avoids.

#ifndef SRC_XDB_PAGER_H_
#define SRC_XDB_PAGER_H_

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace tdb {

// Random-access fixed-page storage.
class PageFile {
 public:
  virtual ~PageFile() = default;
  virtual size_t page_size() const = 0;
  virtual uint32_t page_count() const = 0;
  virtual Result<Bytes> ReadPage(uint32_t page_no) const = 0;
  virtual Status WritePage(uint32_t page_no, ByteView data) = 0;
  virtual Status Extend(uint32_t new_page_count) = 0;
  virtual Status Flush() = 0;
};

// Append-only byte stream with truncation (the WAL device).
class AppendFile {
 public:
  virtual ~AppendFile() = default;
  virtual Status Append(ByteView data) = 0;
  virtual Status Flush() = 0;
  virtual Result<Bytes> ReadAll() const = 0;
  virtual Status Truncate() = 0;
  virtual uint64_t size() const = 0;
};

class MemPageFile final : public PageFile {
 public:
  explicit MemPageFile(size_t page_size) : page_size_(page_size) {}

  size_t page_size() const override { return page_size_; }
  uint32_t page_count() const override {
    return static_cast<uint32_t>(pages_.size());
  }
  Result<Bytes> ReadPage(uint32_t page_no) const override;
  Status WritePage(uint32_t page_no, ByteView data) override;
  Status Extend(uint32_t new_page_count) override;
  Status Flush() override;

  uint64_t flush_count() const { return flush_count_; }
  uint64_t pages_written() const { return pages_written_; }

 private:
  size_t page_size_;
  std::vector<Bytes> pages_;
  uint64_t flush_count_ = 0;
  uint64_t pages_written_ = 0;
};

class MemAppendFile final : public AppendFile {
 public:
  Status Append(ByteView data) override;
  Status Flush() override;
  Result<Bytes> ReadAll() const override { return data_; }
  Status Truncate() override;
  uint64_t size() const override { return data_.size(); }

  uint64_t flush_count() const { return flush_count_; }

 private:
  Bytes data_;
  uint64_t flush_count_ = 0;
};

// LRU page cache over a PageFile, with dirty-page tracking. Pages are plain
// byte buffers; callers parse/serialize node structures.
class Pager {
 public:
  Pager(PageFile* file, size_t cache_pages)
      : file_(file), capacity_(cache_pages) {}

  size_t page_size() const { return file_->page_size(); }

  // Returns a copy of the page contents (through the cache).
  Result<Bytes> Read(uint32_t page_no);
  // Buffers new contents for the page; durable only after FlushDirty.
  Status Write(uint32_t page_no, Bytes data);

  Result<uint32_t> AllocatePage();
  // Note: freed pages are recycled through an in-memory free list persisted
  // in the header by the caller (XDB keeps it in page 0).
  void SetFreeList(std::vector<uint32_t> free_pages);
  std::vector<uint32_t> free_list() const { return free_pages_; }
  void FreePage(uint32_t page_no);

  const std::unordered_map<uint32_t, Bytes>& dirty_pages() const {
    return dirty_;
  }
  // Writes all dirty pages in place and flushes the device.
  Status FlushDirty();
  // Discards all cached state (transaction abort / crash simulation).
  void DropCache();

 private:
  void Touch(uint32_t page_no);
  void InsertClean(uint32_t page_no, Bytes data);

  PageFile* file_;
  size_t capacity_;
  struct Entry {
    Bytes data;
    std::list<uint32_t>::iterator lru_it;
  };
  std::unordered_map<uint32_t, Entry> cache_;
  std::list<uint32_t> lru_;
  std::unordered_map<uint32_t, Bytes> dirty_;  // pinned until flush
  std::vector<uint32_t> free_pages_;
};

}  // namespace tdb

#endif  // SRC_XDB_PAGER_H_
