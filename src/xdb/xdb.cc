#include "src/xdb/xdb.h"

#include "src/common/pickle.h"

namespace tdb {

namespace {
constexpr uint32_t kXdbMagic = 0x58444201;  // "XDB" v1
}  // namespace

Result<std::unique_ptr<Xdb>> Xdb::Create(PageFile* data, AppendFile* log,
                                         XdbOptions options) {
  auto db = std::unique_ptr<Xdb>(new Xdb(data, log, options));
  if (data->page_count() == 0) {
    TDB_RETURN_IF_ERROR(data->Extend(1));  // header page
  }
  db->header_dirty_ = true;
  TDB_RETURN_IF_ERROR(db->StoreHeader());
  TDB_RETURN_IF_ERROR(db->pager_.FlushDirty());
  return db;
}

Result<std::unique_ptr<Xdb>> Xdb::Open(PageFile* data, AppendFile* log,
                                       XdbOptions options) {
  auto db = std::unique_ptr<Xdb>(new Xdb(data, log, options));
  // Redo: replay complete commits onto the data file, then drop the log.
  TDB_RETURN_IF_ERROR(db->wal_.Recover(
      [data](uint32_t page_no, ByteView contents) -> Status {
        if (page_no >= data->page_count()) {
          TDB_RETURN_IF_ERROR(data->Extend(page_no + 1));
        }
        return data->WritePage(page_no, contents);
      }));
  TDB_RETURN_IF_ERROR(data->Flush());
  TDB_RETURN_IF_ERROR(db->wal_.Checkpoint());
  TDB_RETURN_IF_ERROR(db->LoadHeader());
  return db;
}

Status Xdb::LoadHeader() {
  TDB_ASSIGN_OR_RETURN(Bytes page, pager_.Read(0));
  PickleReader r(page);
  if (r.ReadU32() != kXdbMagic) {
    return CorruptionError("not an XDB database");
  }
  uint64_t num_roots = r.ReadCount(5);  // a length-prefixed name and a page
  TDB_RETURN_IF_ERROR(r.Check());
  roots_.clear();
  for (uint64_t i = 0; i < num_roots; ++i) {
    std::string name = r.ReadString();
    uint32_t root = r.ReadU32();
    roots_[name] = root;
  }
  uint64_t num_free = r.ReadCount(4);
  TDB_RETURN_IF_ERROR(r.Check());
  std::vector<uint32_t> free_pages;
  for (uint64_t i = 0; i < num_free; ++i) {
    free_pages.push_back(r.ReadU32());
  }
  TDB_RETURN_IF_ERROR(r.Check());
  pager_.SetFreeList(std::move(free_pages));
  return OkStatus();
}

Status Xdb::StoreHeader() {
  if (!header_dirty_) {
    return OkStatus();
  }
  PickleWriter w;
  w.WriteU32(kXdbMagic);
  w.WriteVarint(roots_.size());
  for (const auto& [name, root] : roots_) {
    w.WriteString(name);
    w.WriteU32(root);
  }
  std::vector<uint32_t> free_pages = pager_.free_list();
  w.WriteVarint(free_pages.size());
  for (uint32_t page : free_pages) {
    w.WriteU32(page);
  }
  TDB_RETURN_IF_ERROR(pager_.Write(0, w.Take()));
  header_dirty_ = false;
  return OkStatus();
}

Status Xdb::CreateTree(const std::string& name) {
  if (roots_.count(name) > 0) {
    return AlreadyExistsError("tree '" + name + "' exists");
  }
  TDB_ASSIGN_OR_RETURN(uint32_t root, BTree::CreateEmpty(&pager_));
  roots_[name] = root;
  header_dirty_ = true;
  return OkStatus();
}

bool Xdb::HasTree(const std::string& name) const {
  return roots_.count(name) > 0;
}

std::vector<std::string> Xdb::TreeNames() const {
  std::vector<std::string> names;
  names.reserve(roots_.size());
  for (const auto& [name, _] : roots_) {
    names.push_back(name);
  }
  return names;
}

Result<BTree> Xdb::TreeFor(const std::string& name) {
  auto it = roots_.find(name);
  if (it == roots_.end()) {
    return NotFoundError("no tree named '" + name + "'");
  }
  return BTree(&pager_, it->second);
}

Status Xdb::SaveRoot(const std::string& name, uint32_t root) {
  if (roots_[name] != root) {
    roots_[name] = root;
    header_dirty_ = true;
  }
  return OkStatus();
}

Status Xdb::Put(const std::string& tree, ByteView key, ByteView value) {
  TDB_ASSIGN_OR_RETURN(BTree btree, TreeFor(tree));
  TDB_RETURN_IF_ERROR(btree.Put(key, value));
  return SaveRoot(tree, btree.root());
}

Result<Bytes> Xdb::Get(const std::string& tree, ByteView key) {
  TDB_ASSIGN_OR_RETURN(BTree btree, TreeFor(tree));
  return btree.Get(key);
}

Status Xdb::Delete(const std::string& tree, ByteView key) {
  TDB_ASSIGN_OR_RETURN(BTree btree, TreeFor(tree));
  TDB_RETURN_IF_ERROR(btree.Delete(key));
  return SaveRoot(tree, btree.root());
}

Status Xdb::Scan(const std::string& tree, ByteView lo, ByteView hi,
                 const BTree::ScanFn& fn) {
  TDB_ASSIGN_OR_RETURN(BTree btree, TreeFor(tree));
  return btree.Scan(lo, hi, fn);
}

Status Xdb::ScanAll(const std::string& tree, const BTree::ScanFn& fn) {
  TDB_ASSIGN_OR_RETURN(BTree btree, TreeFor(tree));
  return btree.ScanAll(fn);
}

Status Xdb::Commit() {
  TDB_RETURN_IF_ERROR(StoreHeader());
  const auto& dirty = pager_.dirty_pages();
  if (dirty.empty()) {
    return OkStatus();
  }
  // 1. Make the redo log durable.
  TDB_RETURN_IF_ERROR(wal_.LogCommit(dirty));
  if (options_.simulate_crash_after_log) {
    // Test hook: the data pages never reach the device; Open() must recover
    // them from the log.
    options_.simulate_crash_after_log = false;
    pager_.DropCache();
    return OkStatus();
  }
  // 2. Write the pages in place and flush the data file.
  return pager_.FlushDirty();
}

void Xdb::Abort() {
  pager_.DropCache();
  header_dirty_ = false;
  // Header and roots may have diverged from disk; reload.
  (void)LoadHeader();
}

}  // namespace tdb
