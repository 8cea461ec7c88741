#include "src/collect/collection_store.h"

#include <algorithm>

#include "src/collect/object_btree.h"
#include "src/obs/profiler.h"

namespace tdb {

namespace {

template <typename T>
std::shared_ptr<T> CloneOf(const T& object) {
  return std::make_shared<T>(object);
}

}  // namespace

Status CollectionStore::RegisterTypes(TypeRegistry& registry) {
  TDB_RETURN_IF_ERROR(RegisterType<CollectionObject>(registry));
  TDB_RETURN_IF_ERROR(RegisterType<IndexObject>(registry));
  TDB_RETURN_IF_ERROR(ObjectBTree::RegisterTypes(registry));
  return RegisterType<DirectoryObject>(registry);
}

Status CollectionStore::IndexAddEntry(Transaction& txn, ObjectId index_id,
                                      const IndexObject& index,
                                      const Bytes& key,
                                      uint64_t packed_object_id) {
  if (index.btree_root != 0) {
    ObjectBTree tree(&txn, ChunkId::Unpack(index.btree_root));
    return tree.Insert(key, packed_object_id);
  }
  auto updated = std::make_shared<IndexObject>(index);
  updated->Add(key, packed_object_id);
  return txn.Put(index_id, updated);
}

Status CollectionStore::IndexRemoveEntry(Transaction& txn, ObjectId index_id,
                                         const IndexObject& index,
                                         const Bytes& key,
                                         uint64_t packed_object_id) {
  if (index.btree_root != 0) {
    ObjectBTree tree(&txn, ChunkId::Unpack(index.btree_root));
    Status removed = tree.Remove(key, packed_object_id);
    if (removed.code() == StatusCode::kNotFound) {
      return OkStatus();  // mirror IndexObject::Remove's tolerance
    }
    return removed;
  }
  auto updated = std::make_shared<IndexObject>(index);
  updated->Remove(key, packed_object_id);
  return txn.Put(index_id, updated);
}

Result<ObjectId> CollectionStore::Format(Transaction& txn) {
  return txn.Insert(std::make_shared<DirectoryObject>());
}

Result<std::shared_ptr<const CollectionObject>> CollectionStore::GetCollection(
    Transaction& txn, ObjectId id, bool for_update) {
  TDB_ASSIGN_OR_RETURN(ObjectPtr object,
                       for_update ? txn.GetForUpdate(id) : txn.Get(id));
  auto collection = std::dynamic_pointer_cast<const CollectionObject>(object);
  if (collection == nullptr) {
    return InvalidArgumentError("object " + id.ToString() +
                                " is not a collection");
  }
  return collection;
}

Result<std::pair<ObjectId, std::shared_ptr<const IndexObject>>>
CollectionStore::GetIndex(Transaction& txn, const CollectionObject& collection,
                          const std::string& index_name, bool for_update) {
  for (uint64_t packed : collection.index_object_ids) {
    ObjectId id = ChunkId::Unpack(packed);
    TDB_ASSIGN_OR_RETURN(ObjectPtr object,
                         for_update ? txn.GetForUpdate(id) : txn.Get(id));
    auto index = std::dynamic_pointer_cast<const IndexObject>(object);
    if (index == nullptr) {
      return CorruptionError("collection references a non-index object");
    }
    if (index->index_name == index_name) {
      return std::make_pair(id, index);
    }
  }
  return NotFoundError("collection has no index named '" + index_name + "'");
}

Result<Bytes> CollectionStore::KeyFor(const std::string& key_fn,
                                      const Pickled& object) {
  TDB_ASSIGN_OR_RETURN(const KeyFunctionRegistry::KeyFn* fn,
                       key_fns_->Get(key_fn));
  return (*fn)(object);
}

Result<ObjectId> CollectionStore::CreateCollection(
    Transaction& txn, const std::string& name,
    const std::vector<IndexSpec>& indexes) {
  ProfileScope scope("module.collection_store");
  TDB_ASSIGN_OR_RETURN(ObjectPtr dir_object, txn.GetForUpdate(directory_id_));
  auto directory = std::dynamic_pointer_cast<const DirectoryObject>(dir_object);
  if (directory == nullptr) {
    return CorruptionError("directory object has wrong type");
  }
  if (directory->collections.count(name) > 0) {
    return AlreadyExistsError("collection '" + name + "' exists");
  }
  auto collection = std::make_shared<CollectionObject>();
  collection->collection_name = name;
  for (const IndexSpec& spec : indexes) {
    TDB_RETURN_IF_ERROR(key_fns_->Get(spec.key_fn).status());
    auto index = std::make_shared<IndexObject>();
    index->index_name = spec.name;
    index->key_fn = spec.key_fn;
    index->sorted = spec.sorted || spec.scalable;
    if (spec.scalable) {
      TDB_ASSIGN_OR_RETURN(ObjectId root, ObjectBTree::Create(txn));
      index->btree_root = root.Pack();
    }
    TDB_ASSIGN_OR_RETURN(ObjectId index_id, txn.Insert(index));
    collection->index_object_ids.push_back(index_id.Pack());
  }
  TDB_ASSIGN_OR_RETURN(ObjectId collection_id, txn.Insert(collection));
  auto new_directory = CloneOf(*directory);
  new_directory->collections[name] = collection_id.Pack();
  TDB_RETURN_IF_ERROR(txn.Put(directory_id_, new_directory));
  return collection_id;
}

Result<ObjectId> CollectionStore::FindCollection(Transaction& txn,
                                                 const std::string& name) {
  ProfileScope scope("module.collection_store");
  TDB_ASSIGN_OR_RETURN(ObjectPtr dir_object, txn.Get(directory_id_));
  auto directory = std::dynamic_pointer_cast<const DirectoryObject>(dir_object);
  if (directory == nullptr) {
    return CorruptionError("directory object has wrong type");
  }
  auto it = directory->collections.find(name);
  if (it == directory->collections.end()) {
    return NotFoundError("no collection named '" + name + "'");
  }
  return ChunkId::Unpack(it->second);
}

Status CollectionStore::DropCollection(Transaction& txn,
                                       const std::string& name) {
  ProfileScope scope("module.collection_store");
  TDB_ASSIGN_OR_RETURN(ObjectId collection_id, FindCollection(txn, name));
  TDB_ASSIGN_OR_RETURN(auto collection,
                       GetCollection(txn, collection_id, /*for_update=*/true));
  // Drops the collection and its indexes; member objects stay (they may be
  // shared with other collections).
  for (uint64_t packed : collection->index_object_ids) {
    TDB_RETURN_IF_ERROR(txn.Delete(ChunkId::Unpack(packed)));
  }
  TDB_RETURN_IF_ERROR(txn.Delete(collection_id));
  TDB_ASSIGN_OR_RETURN(ObjectPtr dir_object, txn.GetForUpdate(directory_id_));
  auto directory = std::dynamic_pointer_cast<const DirectoryObject>(dir_object);
  auto new_directory = CloneOf(*directory);
  new_directory->collections.erase(name);
  return txn.Put(directory_id_, new_directory);
}

Result<std::vector<std::string>> CollectionStore::ListCollections(
    Transaction& txn) {
  TDB_ASSIGN_OR_RETURN(ObjectPtr dir_object, txn.Get(directory_id_));
  auto directory = std::dynamic_pointer_cast<const DirectoryObject>(dir_object);
  if (directory == nullptr) {
    return CorruptionError("directory object has wrong type");
  }
  std::vector<std::string> names;
  names.reserve(directory->collections.size());
  for (const auto& [name, _] : directory->collections) {
    names.push_back(name);
  }
  return names;
}

Status CollectionStore::AddIndex(Transaction& txn, ObjectId collection_id,
                                 const IndexSpec& spec) {
  ProfileScope scope("module.collection_store");
  TDB_ASSIGN_OR_RETURN(auto collection,
                       GetCollection(txn, collection_id, /*for_update=*/true));
  for (uint64_t packed : collection->index_object_ids) {
    TDB_ASSIGN_OR_RETURN(ObjectPtr object, txn.Get(ChunkId::Unpack(packed)));
    auto index = std::dynamic_pointer_cast<const IndexObject>(object);
    if (index != nullptr && index->index_name == spec.name) {
      return AlreadyExistsError("index '" + spec.name + "' exists");
    }
  }
  auto index = std::make_shared<IndexObject>();
  index->index_name = spec.name;
  index->key_fn = spec.key_fn;
  index->sorted = spec.sorted || spec.scalable;
  std::optional<ObjectBTree> tree;
  if (spec.scalable) {
    TDB_ASSIGN_OR_RETURN(ObjectId root, ObjectBTree::Create(txn));
    index->btree_root = root.Pack();
    tree.emplace(&txn, root);
  }
  // Backfill from the current members.
  for (uint64_t packed : collection->members) {
    ObjectId member_id = ChunkId::Unpack(packed);
    TDB_ASSIGN_OR_RETURN(ObjectPtr member, txn.Get(member_id));
    TDB_ASSIGN_OR_RETURN(Bytes key, KeyFor(spec.key_fn, *member));
    if (tree.has_value()) {
      TDB_RETURN_IF_ERROR(tree->Insert(key, packed));
    } else {
      index->Add(key, packed);
    }
  }
  TDB_ASSIGN_OR_RETURN(ObjectId index_id, txn.Insert(index));
  auto new_collection = CloneOf(*collection);
  new_collection->index_object_ids.push_back(index_id.Pack());
  return txn.Put(collection_id, new_collection);
}

Status CollectionStore::DropIndex(Transaction& txn, ObjectId collection_id,
                                  const std::string& index_name) {
  ProfileScope scope("module.collection_store");
  TDB_ASSIGN_OR_RETURN(auto collection,
                       GetCollection(txn, collection_id, /*for_update=*/true));
  TDB_ASSIGN_OR_RETURN(auto found,
                       GetIndex(txn, *collection, index_name, false));
  TDB_RETURN_IF_ERROR(txn.Delete(found.first));
  auto new_collection = CloneOf(*collection);
  std::erase(new_collection->index_object_ids, found.first.Pack());
  return txn.Put(collection_id, new_collection);
}

Result<ObjectId> CollectionStore::Insert(Transaction& txn,
                                         ObjectId collection_id,
                                         ObjectPtr object) {
  ProfileScope scope("module.collection_store");
  TDB_ASSIGN_OR_RETURN(auto collection,
                       GetCollection(txn, collection_id, /*for_update=*/true));
  TDB_ASSIGN_OR_RETURN(ObjectId object_id, txn.Insert(object));
  auto new_collection = CloneOf(*collection);
  new_collection->members.push_back(object_id.Pack());
  TDB_RETURN_IF_ERROR(txn.Put(collection_id, new_collection));
  for (uint64_t packed : collection->index_object_ids) {
    ObjectId index_id = ChunkId::Unpack(packed);
    TDB_ASSIGN_OR_RETURN(ObjectPtr index_object, txn.GetForUpdate(index_id));
    auto index = std::dynamic_pointer_cast<const IndexObject>(index_object);
    TDB_ASSIGN_OR_RETURN(Bytes key, KeyFor(index->key_fn, *object));
    TDB_RETURN_IF_ERROR(
        IndexAddEntry(txn, index_id, *index, key, object_id.Pack()));
  }
  return object_id;
}

Status CollectionStore::Update(Transaction& txn, ObjectId collection_id,
                               ObjectId object_id, ObjectPtr object) {
  ProfileScope scope("module.collection_store");
  TDB_ASSIGN_OR_RETURN(auto collection,
                       GetCollection(txn, collection_id, /*for_update=*/false));
  TDB_ASSIGN_OR_RETURN(ObjectPtr old_object, txn.GetForUpdate(object_id));
  for (uint64_t packed : collection->index_object_ids) {
    ObjectId index_id = ChunkId::Unpack(packed);
    TDB_ASSIGN_OR_RETURN(ObjectPtr index_object, txn.GetForUpdate(index_id));
    auto index = std::dynamic_pointer_cast<const IndexObject>(index_object);
    TDB_ASSIGN_OR_RETURN(Bytes old_key, KeyFor(index->key_fn, *old_object));
    TDB_ASSIGN_OR_RETURN(Bytes new_key, KeyFor(index->key_fn, *object));
    if (old_key != new_key) {
      if (index->btree_root != 0) {
        ObjectBTree tree(&txn, ChunkId::Unpack(index->btree_root));
        Status removed = tree.Remove(old_key, object_id.Pack());
        if (!removed.ok() && removed.code() != StatusCode::kNotFound) {
          return removed;
        }
        TDB_RETURN_IF_ERROR(tree.Insert(new_key, object_id.Pack()));
      } else {
        // One clone for both edits — separate clones would each start from
        // the same snapshot and the second Put would undo the first.
        auto updated = std::make_shared<IndexObject>(*index);
        updated->Remove(old_key, object_id.Pack());
        updated->Add(new_key, object_id.Pack());
        TDB_RETURN_IF_ERROR(txn.Put(index_id, updated));
      }
    }
  }
  return txn.Put(object_id, std::move(object));
}

Status CollectionStore::Remove(Transaction& txn, ObjectId collection_id,
                               ObjectId object_id) {
  ProfileScope scope("module.collection_store");
  TDB_ASSIGN_OR_RETURN(auto collection,
                       GetCollection(txn, collection_id, /*for_update=*/true));
  TDB_ASSIGN_OR_RETURN(ObjectPtr old_object, txn.GetForUpdate(object_id));
  for (uint64_t packed : collection->index_object_ids) {
    ObjectId index_id = ChunkId::Unpack(packed);
    TDB_ASSIGN_OR_RETURN(ObjectPtr index_object, txn.GetForUpdate(index_id));
    auto index = std::dynamic_pointer_cast<const IndexObject>(index_object);
    TDB_ASSIGN_OR_RETURN(Bytes key, KeyFor(index->key_fn, *old_object));
    TDB_RETURN_IF_ERROR(
        IndexRemoveEntry(txn, index_id, *index, key, object_id.Pack()));
  }
  auto new_collection = CloneOf(*collection);
  std::erase(new_collection->members, object_id.Pack());
  TDB_RETURN_IF_ERROR(txn.Put(collection_id, new_collection));
  return txn.Delete(object_id);
}

Result<std::vector<ObjectId>> CollectionStore::Scan(Transaction& txn,
                                                    ObjectId collection_id) {
  ProfileScope scope("module.collection_store");
  TDB_ASSIGN_OR_RETURN(auto collection,
                       GetCollection(txn, collection_id, /*for_update=*/false));
  std::vector<ObjectId> out;
  out.reserve(collection->members.size());
  for (uint64_t packed : collection->members) {
    out.push_back(ChunkId::Unpack(packed));
  }
  return out;
}

Result<std::vector<ObjectId>> CollectionStore::LookupExact(
    Transaction& txn, ObjectId collection_id, const std::string& index_name,
    const Bytes& key) {
  ProfileScope scope("module.collection_store");
  TDB_ASSIGN_OR_RETURN(auto collection,
                       GetCollection(txn, collection_id, /*for_update=*/false));
  TDB_ASSIGN_OR_RETURN(auto found,
                       GetIndex(txn, *collection, index_name, false));
  std::vector<uint64_t> hits;
  if (found.second->btree_root != 0) {
    ObjectBTree tree(&txn, ChunkId::Unpack(found.second->btree_root));
    TDB_ASSIGN_OR_RETURN(hits, tree.Exact(key));
  } else {
    hits = found.second->Exact(key);
  }
  std::vector<ObjectId> out;
  for (uint64_t packed : hits) {
    out.push_back(ChunkId::Unpack(packed));
  }
  return out;
}

Result<std::vector<ObjectId>> CollectionStore::LookupRange(
    Transaction& txn, ObjectId collection_id, const std::string& index_name,
    const Bytes& lo, const Bytes& hi) {
  ProfileScope scope("module.collection_store");
  TDB_ASSIGN_OR_RETURN(auto collection,
                       GetCollection(txn, collection_id, /*for_update=*/false));
  TDB_ASSIGN_OR_RETURN(auto found,
                       GetIndex(txn, *collection, index_name, false));
  if (!found.second->sorted) {
    return InvalidArgumentError("range lookup requires a sorted index");
  }
  std::vector<uint64_t> hits;
  if (found.second->btree_root != 0) {
    ObjectBTree tree(&txn, ChunkId::Unpack(found.second->btree_root));
    TDB_ASSIGN_OR_RETURN(hits, tree.Range(lo, hi));
  } else {
    hits = found.second->Range(lo, hi);
  }
  std::vector<ObjectId> out;
  for (uint64_t packed : hits) {
    out.push_back(ChunkId::Unpack(packed));
  }
  return out;
}

}  // namespace tdb
