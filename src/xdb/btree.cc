#include "src/xdb/btree.h"

#include <algorithm>

#include "src/common/pickle.h"
#include "src/obs/metrics.h"

namespace tdb {

namespace {

bool Less(ByteView a, ByteView b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

bool Equal(ByteView a, ByteView b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

bool LessEqual(ByteView a, ByteView b) { return !Less(b, a); }

}  // namespace

Result<uint32_t> BTree::CreateEmpty(Pager* pager) {
  TDB_ASSIGN_OR_RETURN(uint32_t page, pager->AllocatePage());
  BTree tree(pager, page);
  Node node;
  node.is_leaf = true;
  TDB_RETURN_IF_ERROR(tree.WriteNode(page, node));
  return page;
}

Bytes BTree::Serialize(const Node& node) {
  PickleWriter w;
  w.WriteU8(node.is_leaf ? 1 : 2);
  if (node.is_leaf) {
    w.WriteU32(node.leaf.next_leaf);
    w.WriteVarint(node.leaf.entries.size());
    for (const auto& [key, value] : node.leaf.entries) {
      w.WriteBytes(key);
      w.WriteBytes(value);
    }
  } else {
    w.WriteVarint(node.interior.keys.size());
    for (const Bytes& key : node.interior.keys) {
      w.WriteBytes(key);
    }
    for (uint32_t child : node.interior.children) {
      w.WriteU32(child);
    }
  }
  return w.Take();
}

Result<BTree::Node> BTree::Deserialize(ByteView data) {
  PickleReader r(data);
  Node node;
  uint8_t type = r.ReadU8();
  if (type == 1) {
    node.is_leaf = true;
    node.leaf.next_leaf = r.ReadU32();
    uint64_t n = r.ReadCount(2);  // a length-prefixed key and value
    TDB_RETURN_IF_ERROR(r.Check());
    node.leaf.entries.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      Bytes key = r.ReadBytes();
      Bytes value = r.ReadBytes();
      node.leaf.entries.emplace_back(std::move(key), std::move(value));
    }
  } else if (type == 2) {
    node.is_leaf = false;
    uint64_t n = r.ReadCount(5);  // a length-prefixed key and a child page
    TDB_RETURN_IF_ERROR(r.Check());
    node.interior.keys.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      node.interior.keys.push_back(r.ReadBytes());
    }
    node.interior.children.reserve(n + 1);
    for (uint64_t i = 0; i < n + 1; ++i) {
      node.interior.children.push_back(r.ReadU32());
    }
  } else {
    return CorruptionError("unknown b-tree node type");
  }
  TDB_RETURN_IF_ERROR(r.Check());
  return node;
}

Result<BTree::Node> BTree::ReadNode(uint32_t page_no) {
  TDB_ASSIGN_OR_RETURN(Bytes page, pager_->Read(page_no));
  return Deserialize(page);
}

Status BTree::WriteNode(uint32_t page_no, const Node& node) {
  return pager_->Write(page_no, Serialize(node));
}

size_t BTree::NodeSizeLimit() const { return pager_->page_size() - 16; }

size_t BTree::max_record_size() const { return (NodeSizeLimit() - 32) / 2; }

Result<std::optional<BTree::SplitResult>> BTree::PutRec(uint32_t page_no,
                                                        ByteView key,
                                                        ByteView value) {
  TDB_ASSIGN_OR_RETURN(Node node, ReadNode(page_no));
  if (node.is_leaf) {
    auto pos = std::lower_bound(
        node.leaf.entries.begin(), node.leaf.entries.end(), key,
        [](const auto& entry, ByteView k) { return Less(entry.first, k); });
    if (pos != node.leaf.entries.end() && Equal(pos->first, key)) {
      pos->second.assign(value.begin(), value.end());
    } else {
      node.leaf.entries.insert(pos, {Bytes(key.begin(), key.end()),
                                     Bytes(value.begin(), value.end())});
    }
    if (Serialize(node).size() <= NodeSizeLimit()) {
      TDB_RETURN_IF_ERROR(WriteNode(page_no, node));
      return std::optional<SplitResult>{};
    }
    // Split the leaf in half.
    obs::Count("xdb.btree_leaf_splits");
    size_t mid = node.leaf.entries.size() / 2;
    Node right;
    right.is_leaf = true;
    right.leaf.entries.assign(node.leaf.entries.begin() + mid,
                              node.leaf.entries.end());
    node.leaf.entries.resize(mid);
    right.leaf.next_leaf = node.leaf.next_leaf;
    TDB_ASSIGN_OR_RETURN(uint32_t right_page, pager_->AllocatePage());
    node.leaf.next_leaf = right_page;
    TDB_RETURN_IF_ERROR(WriteNode(right_page, right));
    TDB_RETURN_IF_ERROR(WriteNode(page_no, node));
    SplitResult split;
    split.separator = right.leaf.entries.front().first;
    split.right_page = right_page;
    return std::optional<SplitResult>(std::move(split));
  }

  // Interior: pick the child whose range contains key.
  size_t idx = std::upper_bound(node.interior.keys.begin(),
                                node.interior.keys.end(), key,
                                [](ByteView k, const Bytes& sep) {
                                  return Less(k, sep);
                                }) -
               node.interior.keys.begin();
  TDB_ASSIGN_OR_RETURN(std::optional<SplitResult> child_split,
                       PutRec(node.interior.children[idx], key, value));
  if (!child_split.has_value()) {
    return std::optional<SplitResult>{};
  }
  node.interior.keys.insert(node.interior.keys.begin() + idx,
                            child_split->separator);
  node.interior.children.insert(node.interior.children.begin() + idx + 1,
                                child_split->right_page);
  if (Serialize(node).size() <= NodeSizeLimit()) {
    TDB_RETURN_IF_ERROR(WriteNode(page_no, node));
    return std::optional<SplitResult>{};
  }
  // Split the interior node: the middle key moves up.
  obs::Count("xdb.btree_interior_splits");
  size_t mid = node.interior.keys.size() / 2;
  Node right;
  right.is_leaf = false;
  Bytes separator = node.interior.keys[mid];
  right.interior.keys.assign(node.interior.keys.begin() + mid + 1,
                             node.interior.keys.end());
  right.interior.children.assign(node.interior.children.begin() + mid + 1,
                                 node.interior.children.end());
  node.interior.keys.resize(mid);
  node.interior.children.resize(mid + 1);
  TDB_ASSIGN_OR_RETURN(uint32_t right_page, pager_->AllocatePage());
  TDB_RETURN_IF_ERROR(WriteNode(right_page, right));
  TDB_RETURN_IF_ERROR(WriteNode(page_no, node));
  SplitResult split;
  split.separator = std::move(separator);
  split.right_page = right_page;
  return std::optional<SplitResult>(std::move(split));
}

Status BTree::Put(ByteView key, ByteView value) {
  if (key.size() + value.size() > max_record_size()) {
    return InvalidArgumentError("record too large for b-tree page");
  }
  TDB_ASSIGN_OR_RETURN(std::optional<SplitResult> split,
                       PutRec(root_, key, value));
  if (split.has_value()) {
    Node new_root;
    new_root.is_leaf = false;
    new_root.interior.keys.push_back(split->separator);
    new_root.interior.children.push_back(root_);
    new_root.interior.children.push_back(split->right_page);
    TDB_ASSIGN_OR_RETURN(uint32_t new_root_page, pager_->AllocatePage());
    TDB_RETURN_IF_ERROR(WriteNode(new_root_page, new_root));
    root_ = new_root_page;
  }
  return OkStatus();
}

Result<Bytes> BTree::Get(ByteView key) {
  uint32_t page_no = root_;
  while (true) {
    TDB_ASSIGN_OR_RETURN(Node node, ReadNode(page_no));
    if (node.is_leaf) {
      auto pos = std::lower_bound(
          node.leaf.entries.begin(), node.leaf.entries.end(), key,
          [](const auto& entry, ByteView k) { return Less(entry.first, k); });
      if (pos != node.leaf.entries.end() && Equal(pos->first, key)) {
        return pos->second;
      }
      return NotFoundError("key not found");
    }
    size_t idx = std::upper_bound(node.interior.keys.begin(),
                                  node.interior.keys.end(), key,
                                  [](ByteView k, const Bytes& sep) {
                                    return Less(k, sep);
                                  }) -
                 node.interior.keys.begin();
    page_no = node.interior.children[idx];
  }
}

Result<bool> BTree::DeleteRec(uint32_t page_no, ByteView key) {
  TDB_ASSIGN_OR_RETURN(Node node, ReadNode(page_no));
  if (node.is_leaf) {
    auto pos = std::lower_bound(
        node.leaf.entries.begin(), node.leaf.entries.end(), key,
        [](const auto& entry, ByteView k) { return Less(entry.first, k); });
    if (pos == node.leaf.entries.end() || !Equal(pos->first, key)) {
      return false;
    }
    node.leaf.entries.erase(pos);
    TDB_RETURN_IF_ERROR(WriteNode(page_no, node));
    return true;
  }
  size_t idx = std::upper_bound(node.interior.keys.begin(),
                                node.interior.keys.end(), key,
                                [](ByteView k, const Bytes& sep) {
                                  return Less(k, sep);
                                }) -
               node.interior.keys.begin();
  // Underfull nodes are tolerated (no rebalancing): deletes are rare in the
  // intended workloads and lookups remain correct.
  return DeleteRec(node.interior.children[idx], key);
}

Status BTree::Delete(ByteView key) {
  TDB_ASSIGN_OR_RETURN(bool removed, DeleteRec(root_, key));
  if (!removed) {
    return NotFoundError("key not found");
  }
  return OkStatus();
}

Status BTree::Scan(ByteView lo, ByteView hi, const ScanFn& fn) {
  // Descend to the leaf containing lo.
  uint32_t page_no = root_;
  while (true) {
    TDB_ASSIGN_OR_RETURN(Node node, ReadNode(page_no));
    if (node.is_leaf) {
      break;
    }
    size_t idx = std::upper_bound(node.interior.keys.begin(),
                                  node.interior.keys.end(), lo,
                                  [](ByteView k, const Bytes& sep) {
                                    return Less(k, sep);
                                  }) -
                 node.interior.keys.begin();
    page_no = node.interior.children[idx];
  }
  while (page_no != 0) {
    TDB_ASSIGN_OR_RETURN(Node node, ReadNode(page_no));
    for (const auto& [key, value] : node.leaf.entries) {
      if (Less(key, lo)) {
        continue;
      }
      if (!LessEqual(key, hi)) {
        return OkStatus();
      }
      if (!fn(key, value)) {
        return OkStatus();
      }
    }
    page_no = node.leaf.next_leaf;
  }
  return OkStatus();
}

Status BTree::ScanAll(const ScanFn& fn) {
  // Descend along the leftmost spine, then walk the leaf chain.
  uint32_t page_no = root_;
  while (true) {
    TDB_ASSIGN_OR_RETURN(Node node, ReadNode(page_no));
    if (node.is_leaf) {
      break;
    }
    page_no = node.interior.children[0];
  }
  while (page_no != 0) {
    TDB_ASSIGN_OR_RETURN(Node node, ReadNode(page_no));
    for (const auto& [key, value] : node.leaf.entries) {
      if (!fn(key, value)) {
        return OkStatus();
      }
    }
    page_no = node.leaf.next_leaf;
  }
  return OkStatus();
}

Result<uint64_t> BTree::Count() {
  uint64_t count = 0;
  TDB_RETURN_IF_ERROR(ScanAll([&count](ByteView, ByteView) {
    ++count;
    return true;
  }));
  return count;
}

}  // namespace tdb
