#include "src/collect/object_btree.h"

#include <algorithm>

namespace tdb {

namespace {

using Entry = std::pair<Bytes, uint64_t>;

bool EntryLess(const Entry& a, const Entry& b) {
  if (a.first != b.first) {
    return a.first < b.first;
  }
  return a.second < b.second;
}

}  // namespace

void BTreeNodeObject::PickleFields(PickleWriter& w) const {
  w.WriteBool(leaf);
  if (leaf) {
    w.WriteVarint(entries.size());
    for (const auto& [key, value] : entries) {
      w.WriteBytes(key);
      w.WriteU64(value);
    }
  } else {
    w.WriteVarint(separators.size());
    for (const auto& [key, value] : separators) {
      w.WriteBytes(key);
      w.WriteU64(value);
    }
    for (uint64_t child : children) {
      w.WriteU64(child);
    }
  }
}

Result<ObjectPtr> BTreeNodeObject::UnpickleFields(PickleReader& r) {
  auto node = std::make_shared<BTreeNodeObject>();
  node->leaf = r.ReadBool();
  uint64_t n = r.ReadCount(9);  // a length-prefixed key and a value or child
  TDB_RETURN_IF_ERROR(r.Check());
  if (node->leaf) {
    node->entries.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      Bytes key = r.ReadBytes();
      uint64_t value = r.ReadU64();
      node->entries.emplace_back(std::move(key), value);
    }
  } else {
    node->separators.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      Bytes key = r.ReadBytes();
      uint64_t value = r.ReadU64();
      node->separators.emplace_back(std::move(key), value);
    }
    node->children.reserve(n + 1);
    for (uint64_t i = 0; i < n + 1; ++i) {
      node->children.push_back(r.ReadU64());
    }
  }
  TDB_RETURN_IF_ERROR(r.Check());
  return ObjectPtr(node);
}

Status ObjectBTree::RegisterTypes(TypeRegistry& registry) {
  return RegisterType<BTreeNodeObject>(registry);
}

Result<ObjectId> ObjectBTree::Create(Transaction& txn) {
  return txn.Insert(std::make_shared<BTreeNodeObject>());
}

Result<std::shared_ptr<const BTreeNodeObject>> ObjectBTree::ReadNode(
    ObjectId id, bool for_update) {
  TDB_ASSIGN_OR_RETURN(ObjectPtr object,
                       for_update ? txn_->GetForUpdate(id) : txn_->Get(id));
  auto node = std::dynamic_pointer_cast<const BTreeNodeObject>(object);
  if (node == nullptr) {
    return CorruptionError("b-tree node object has wrong type");
  }
  return node;
}

Result<std::optional<ObjectBTree::SplitResult>> ObjectBTree::InsertRec(
    ObjectId node_id, const Bytes& key, uint64_t value, bool is_root) {
  TDB_ASSIGN_OR_RETURN(auto node, ReadNode(node_id, /*for_update=*/true));
  auto updated = std::make_shared<BTreeNodeObject>(*node);
  if (updated->leaf) {
    Entry entry{key, value};
    auto pos = std::lower_bound(updated->entries.begin(),
                                updated->entries.end(), entry, EntryLess);
    if (pos != updated->entries.end() && *pos == entry) {
      return std::optional<SplitResult>{};  // duplicate pair: no-op
    }
    updated->entries.insert(pos, std::move(entry));
    if (updated->entries.size() <= kMaxNodeEntries) {
      TDB_RETURN_IF_ERROR(txn_->Put(node_id, updated));
      return std::optional<SplitResult>{};
    }
    // Split.
    auto right = std::make_shared<BTreeNodeObject>();
    size_t mid = updated->entries.size() / 2;
    right->entries.assign(updated->entries.begin() + mid,
                          updated->entries.end());
    updated->entries.resize(mid);
    Entry separator = right->entries.front();
    if (is_root) {
      // Keep the root id stable: both halves become children.
      auto left = std::make_shared<BTreeNodeObject>(*updated);
      TDB_ASSIGN_OR_RETURN(ObjectId left_id, txn_->Insert(left));
      TDB_ASSIGN_OR_RETURN(ObjectId right_id, txn_->Insert(right));
      auto new_root = std::make_shared<BTreeNodeObject>();
      new_root->leaf = false;
      new_root->separators.push_back(separator);
      new_root->children = {left_id.Pack(), right_id.Pack()};
      TDB_RETURN_IF_ERROR(txn_->Put(node_id, new_root));
      return std::optional<SplitResult>{};
    }
    TDB_ASSIGN_OR_RETURN(ObjectId right_id, txn_->Insert(right));
    TDB_RETURN_IF_ERROR(txn_->Put(node_id, updated));
    SplitResult split;
    split.separator = std::move(separator);
    split.right_id = right_id.Pack();
    return std::optional<SplitResult>(std::move(split));
  }

  Entry probe{key, value};
  size_t idx = std::upper_bound(updated->separators.begin(),
                                updated->separators.end(), probe, EntryLess) -
               updated->separators.begin();
  TDB_ASSIGN_OR_RETURN(
      std::optional<SplitResult> child_split,
      InsertRec(ChunkId::Unpack(updated->children[idx]), key, value,
                /*is_root=*/false));
  if (!child_split.has_value()) {
    return std::optional<SplitResult>{};
  }
  updated->separators.insert(updated->separators.begin() + idx,
                             child_split->separator);
  updated->children.insert(updated->children.begin() + idx + 1,
                           child_split->right_id);
  if (updated->separators.size() <= kMaxNodeEntries) {
    TDB_RETURN_IF_ERROR(txn_->Put(node_id, updated));
    return std::optional<SplitResult>{};
  }
  // Split interior node; the middle separator moves up.
  size_t mid = updated->separators.size() / 2;
  Entry separator = updated->separators[mid];
  auto right = std::make_shared<BTreeNodeObject>();
  right->leaf = false;
  right->separators.assign(updated->separators.begin() + mid + 1,
                           updated->separators.end());
  right->children.assign(updated->children.begin() + mid + 1,
                         updated->children.end());
  updated->separators.resize(mid);
  updated->children.resize(mid + 1);
  if (is_root) {
    auto left = std::make_shared<BTreeNodeObject>(*updated);
    TDB_ASSIGN_OR_RETURN(ObjectId left_id, txn_->Insert(left));
    TDB_ASSIGN_OR_RETURN(ObjectId right_id, txn_->Insert(right));
    auto new_root = std::make_shared<BTreeNodeObject>();
    new_root->leaf = false;
    new_root->separators.push_back(separator);
    new_root->children = {left_id.Pack(), right_id.Pack()};
    TDB_RETURN_IF_ERROR(txn_->Put(node_id, new_root));
    return std::optional<SplitResult>{};
  }
  TDB_ASSIGN_OR_RETURN(ObjectId right_id, txn_->Insert(right));
  TDB_RETURN_IF_ERROR(txn_->Put(node_id, updated));
  SplitResult split;
  split.separator = std::move(separator);
  split.right_id = right_id.Pack();
  return std::optional<SplitResult>(std::move(split));
}

Status ObjectBTree::Insert(const Bytes& key, uint64_t value) {
  return InsertRec(root_, key, value, /*is_root=*/true).status();
}

Result<bool> ObjectBTree::RemoveRec(ObjectId node_id, const Bytes& key,
                                    uint64_t value) {
  TDB_ASSIGN_OR_RETURN(auto node, ReadNode(node_id, /*for_update=*/true));
  if (node->leaf) {
    Entry entry{key, value};
    auto updated = std::make_shared<BTreeNodeObject>(*node);
    auto pos = std::lower_bound(updated->entries.begin(),
                                updated->entries.end(), entry, EntryLess);
    if (pos == updated->entries.end() || !(*pos == entry)) {
      return false;
    }
    updated->entries.erase(pos);
    TDB_RETURN_IF_ERROR(txn_->Put(node_id, updated));
    return true;
  }
  // Underfull/empty leaves are tolerated (no rebalancing): secondary-index
  // deletions are comparatively rare and lookups stay correct.
  Entry probe{key, value};
  size_t idx = std::upper_bound(node->separators.begin(),
                                node->separators.end(), probe, EntryLess) -
               node->separators.begin();
  return RemoveRec(ChunkId::Unpack(node->children[idx]), key, value);
}

Status ObjectBTree::Remove(const Bytes& key, uint64_t value) {
  TDB_ASSIGN_OR_RETURN(bool removed, RemoveRec(root_, key, value));
  if (!removed) {
    return NotFoundError("(key, value) pair not in index");
  }
  return OkStatus();
}

Status ObjectBTree::CollectRange(ObjectId node_id, const Bytes& lo,
                                 const Bytes& hi, std::vector<uint64_t>& out) {
  TDB_ASSIGN_OR_RETURN(auto node, ReadNode(node_id, /*for_update=*/false));
  if (node->leaf) {
    for (const auto& [key, value] : node->entries) {
      if (key < lo) {
        continue;
      }
      if (hi < key) {
        break;
      }
      out.push_back(value);
    }
    return OkStatus();
  }
  // Visit every child whose key range can intersect [lo, hi]. Child i holds
  // entries in [separators[i-1], separators[i]) by (key, value) order, so by
  // key it covers [separators[i-1].key, separators[i].key] inclusive (equal
  // keys with smaller values stay left of a separator).
  for (size_t i = 0; i < node->children.size(); ++i) {
    if (i > 0 && hi < node->separators[i - 1].first) {
      break;  // this child and everything after it starts above hi
    }
    if (i < node->separators.size() && node->separators[i].first < lo) {
      continue;  // everything in this child is below lo
    }
    TDB_RETURN_IF_ERROR(
        CollectRange(ChunkId::Unpack(node->children[i]), lo, hi, out));
  }
  return OkStatus();
}

Result<std::vector<uint64_t>> ObjectBTree::Exact(const Bytes& key) {
  return Range(key, key);
}

Result<std::vector<uint64_t>> ObjectBTree::Range(const Bytes& lo,
                                                 const Bytes& hi) {
  std::vector<uint64_t> out;
  TDB_RETURN_IF_ERROR(CollectRange(root_, lo, hi, out));
  return out;
}

Result<uint64_t> ObjectBTree::Count() {
  // A full-range scan; Bytes supports any key, so count leaves directly.
  std::vector<ObjectId> stack{root_};
  uint64_t count = 0;
  while (!stack.empty()) {
    ObjectId id = stack.back();
    stack.pop_back();
    TDB_ASSIGN_OR_RETURN(auto node, ReadNode(id, /*for_update=*/false));
    if (node->leaf) {
      count += node->entries.size();
    } else {
      for (uint64_t child : node->children) {
        stack.push_back(ChunkId::Unpack(child));
      }
    }
  }
  return count;
}

}  // namespace tdb
