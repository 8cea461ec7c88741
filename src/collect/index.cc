#include "src/collect/index.h"

#include <algorithm>

namespace tdb {

Bytes EncodeU64Key(uint64_t value) {
  Bytes out(8);
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>(value >> (56 - 8 * i));  // big-endian
  }
  return out;
}

Bytes EncodeI64Key(int64_t value) {
  // Flip the sign bit so two's-complement order matches lexicographic order.
  return EncodeU64Key(static_cast<uint64_t>(value) ^ (1ULL << 63));
}

Bytes EncodeStringKey(std::string_view value) {
  return BytesFromString(value);
}

Status KeyFunctionRegistry::Register(const std::string& name, KeyFn fn) {
  auto [_, inserted] = functions_.emplace(name, std::move(fn));
  if (!inserted) {
    return AlreadyExistsError("key function '" + name + "' already registered");
  }
  return OkStatus();
}

Result<const KeyFunctionRegistry::KeyFn*> KeyFunctionRegistry::Get(
    const std::string& name) const {
  auto it = functions_.find(name);
  if (it == functions_.end()) {
    return NotFoundError("key function '" + name + "' is not registered");
  }
  return &it->second;
}

void IndexObject::PickleFields(PickleWriter& w) const {
  w.WriteString(index_name);
  w.WriteString(key_fn);
  w.WriteBool(sorted);
  w.WriteU64(btree_root);
  w.WriteVarint(entries.size());
  for (const auto& [key, id] : entries) {
    w.WriteBytes(key);
    w.WriteU64(id);
  }
}

Result<ObjectPtr> IndexObject::UnpickleFields(PickleReader& r) {
  auto index = std::make_shared<IndexObject>();
  index->index_name = r.ReadString();
  index->key_fn = r.ReadString();
  index->sorted = r.ReadBool();
  index->btree_root = r.ReadU64();
  uint64_t n = r.ReadCount(9);  // a length-prefixed key and an id
  TDB_RETURN_IF_ERROR(r.Check());
  index->entries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Bytes key = r.ReadBytes();
    uint64_t id = r.ReadU64();
    index->entries.emplace_back(std::move(key), id);
  }
  TDB_RETURN_IF_ERROR(r.Check());
  return ObjectPtr(index);
}

void IndexObject::Add(const Bytes& key, uint64_t packed_id) {
  auto pos = std::lower_bound(entries.begin(), entries.end(),
                              std::make_pair(key, packed_id));
  entries.insert(pos, {key, packed_id});
}

void IndexObject::Remove(const Bytes& key, uint64_t packed_id) {
  auto pos = std::lower_bound(entries.begin(), entries.end(),
                              std::make_pair(key, packed_id));
  if (pos != entries.end() && pos->first == key && pos->second == packed_id) {
    entries.erase(pos);
  }
}

std::vector<uint64_t> IndexObject::Exact(const Bytes& key) const {
  std::vector<uint64_t> out;
  auto pos = std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const auto& entry, const Bytes& k) { return entry.first < k; });
  for (; pos != entries.end() && pos->first == key; ++pos) {
    out.push_back(pos->second);
  }
  return out;
}

std::vector<uint64_t> IndexObject::Range(const Bytes& lo,
                                         const Bytes& hi) const {
  std::vector<uint64_t> out;
  auto pos = std::lower_bound(
      entries.begin(), entries.end(), lo,
      [](const auto& entry, const Bytes& k) { return entry.first < k; });
  for (; pos != entries.end() && pos->first <= hi; ++pos) {
    out.push_back(pos->second);
  }
  return out;
}

void CollectionObject::PickleFields(PickleWriter& w) const {
  w.WriteString(collection_name);
  w.WriteVarint(members.size());
  for (uint64_t id : members) {
    w.WriteU64(id);
  }
  w.WriteVarint(index_object_ids.size());
  for (uint64_t id : index_object_ids) {
    w.WriteU64(id);
  }
}

Result<ObjectPtr> CollectionObject::UnpickleFields(PickleReader& r) {
  auto collection = std::make_shared<CollectionObject>();
  collection->collection_name = r.ReadString();
  uint64_t num_members = r.ReadCount(8);
  TDB_RETURN_IF_ERROR(r.Check());
  collection->members.reserve(num_members);
  for (uint64_t i = 0; i < num_members; ++i) {
    collection->members.push_back(r.ReadU64());
  }
  uint64_t num_indexes = r.ReadCount(8);
  TDB_RETURN_IF_ERROR(r.Check());
  for (uint64_t i = 0; i < num_indexes; ++i) {
    collection->index_object_ids.push_back(r.ReadU64());
  }
  TDB_RETURN_IF_ERROR(r.Check());
  return ObjectPtr(collection);
}

void DirectoryObject::PickleFields(PickleWriter& w) const {
  w.WriteVarint(collections.size());
  for (const auto& [name, id] : collections) {
    w.WriteString(name);
    w.WriteU64(id);
  }
}

Result<ObjectPtr> DirectoryObject::UnpickleFields(PickleReader& r) {
  auto directory = std::make_shared<DirectoryObject>();
  uint64_t n = r.ReadCount(9);  // a length-prefixed name and an id
  TDB_RETURN_IF_ERROR(r.Check());
  for (uint64_t i = 0; i < n; ++i) {
    std::string name = r.ReadString();
    uint64_t id = r.ReadU64();
    directory->collections[name] = id;
  }
  TDB_RETURN_IF_ERROR(r.Check());
  return ObjectPtr(directory);
}

}  // namespace tdb
