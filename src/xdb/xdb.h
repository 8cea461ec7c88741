// XDB: a conventional page-based embedded database, the baseline system of
// §9.5. Named B+-trees over a pager with a write-ahead redo log. Commits
// flush the log and then write dirty pages in place and flush the data file
// — the "multiple disk writes at commit" the paper measures against TDB's
// single sequential log append.
//
// XDB provides NO trust properties on its own; SecureXdb (crypto_layer.h)
// layers encryption and MACs on top of it, the architecture the paper argues
// against (§1.2: the layer "would not protect the metadata inside the
// database system").

#ifndef SRC_XDB_XDB_H_
#define SRC_XDB_XDB_H_

#include <map>
#include <memory>
#include <string>

#include "src/xdb/btree.h"
#include "src/xdb/wal.h"

namespace tdb {

struct XdbOptions {
  size_t cache_pages = 512;
  // Test hook: the next Commit makes the log durable but "crashes" before
  // writing the data pages, to exercise WAL recovery.
  bool simulate_crash_after_log = false;
};

class Xdb {
 public:
  static Result<std::unique_ptr<Xdb>> Create(PageFile* data, AppendFile* log,
                                             XdbOptions options = {});
  // Opens an existing database, replaying the write-ahead log.
  static Result<std::unique_ptr<Xdb>> Open(PageFile* data, AppendFile* log,
                                           XdbOptions options = {});

  Status CreateTree(const std::string& name);
  bool HasTree(const std::string& name) const;
  std::vector<std::string> TreeNames() const;

  // Mutations are buffered in the page cache until Commit.
  Status Put(const std::string& tree, ByteView key, ByteView value);
  Result<Bytes> Get(const std::string& tree, ByteView key);
  Status Delete(const std::string& tree, ByteView key);
  Status Scan(const std::string& tree, ByteView lo, ByteView hi,
              const BTree::ScanFn& fn);
  Status ScanAll(const std::string& tree, const BTree::ScanFn& fn);

  // Atomically applies all buffered mutations (log flush + in-place page
  // writes + data flush).
  Status Commit();
  // Discards all buffered mutations.
  void Abort();

  // Truncates the WAL once the data file is known durable.
  Status Checkpoint() { return wal_.Checkpoint(); }

  void set_simulate_crash_after_log(bool v) {
    options_.simulate_crash_after_log = v;
  }

 private:
  Xdb(PageFile* data, AppendFile* log, XdbOptions options)
      : options_(options), pager_(data, options.cache_pages), wal_(log) {}

  Status LoadHeader();
  Status StoreHeader();
  Result<BTree> TreeFor(const std::string& name);
  Status SaveRoot(const std::string& name, uint32_t root);

  XdbOptions options_;
  Pager pager_;
  Wal wal_;
  std::map<std::string, uint32_t> roots_;
  bool header_dirty_ = false;
};

}  // namespace tdb

#endif  // SRC_XDB_XDB_H_
