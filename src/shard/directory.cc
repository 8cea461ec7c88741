#include "src/shard/directory.h"

#include <algorithm>
#include <utility>

#include "src/common/pickle.h"

namespace tdb::shard {

namespace {

// "TDBd" — identifies the directory partition's table chunk.
constexpr uint32_t kDirectoryMagic = 0x54444264;
constexpr uint8_t kDirectoryVersion = 1;

Bytes PickleTable(const std::vector<PartitionEntry>& entries) {
  PickleWriter w;
  w.WriteU32(kDirectoryMagic);
  w.WriteU8(kDirectoryVersion);
  w.WriteRaw(PickleEntryList(entries));
  return w.Take();
}

Result<std::vector<PartitionEntry>> UnpickleTable(ByteView data) {
  PickleReader r(data);
  uint32_t magic = r.ReadU32();
  uint8_t version = r.ReadU8();
  if (!r.ok() || magic != kDirectoryMagic) {
    return NotFoundError("not a partition directory chunk");
  }
  if (version != kDirectoryVersion) {
    return CorruptionError("unsupported partition directory version " +
                           std::to_string(version));
  }
  return UnpickleEntryList(r.ReadRaw(r.remaining()));
}

}  // namespace

Bytes PickleEntryList(const std::vector<PartitionEntry>& entries) {
  PickleWriter w;
  w.WriteVarint(entries.size());
  for (const PartitionEntry& e : entries) {
    w.WriteVarint(e.id);
    w.WriteString(e.name);
    w.WriteU8(e.moved ? 1 : 0);
    w.WriteString(e.moved_to);
    w.WriteVarint(e.epoch);
  }
  return w.Take();
}

Result<std::vector<PartitionEntry>> UnpickleEntryList(ByteView data) {
  PickleReader r(data);
  uint64_t count = r.ReadVarint();
  // One byte at least for each of an entry's five fields.
  if (!r.ok() || count > r.remaining() / 5) {
    return CorruptionError("bad partition entry count");
  }
  std::vector<PartitionEntry> entries(count);
  for (PartitionEntry& e : entries) {
    e.id = static_cast<PartitionId>(r.ReadVarint());
    e.name = r.ReadString();
    e.moved = r.ReadU8() != 0;
    e.moved_to = r.ReadString();
    e.epoch = r.ReadVarint();
  }
  TDB_RETURN_IF_ERROR(r.Done());
  return entries;
}

Result<std::unique_ptr<PartitionDirectory>> PartitionDirectory::Open(
    ChunkStore* chunks, CryptoParams params) {
  // The directory partition identifies itself by content: the magic header
  // of its first chunk. Scan for it — partitions without a written first
  // chunk or with other content simply fail the probe.
  for (PartitionId pid : chunks->ListPartitions()) {
    ChunkId probe(pid, ChunkPosition(0, 0));
    Result<Bytes> table = chunks->Read(probe);
    if (!table.ok()) {
      continue;
    }
    Result<std::vector<PartitionEntry>> entries = UnpickleTable(*table);
    if (!entries.ok()) {
      if (entries.status().code() == StatusCode::kNotFound) {
        continue;  // some tenant's chunk, not ours
      }
      return entries.status();
    }
    return std::unique_ptr<PartitionDirectory>(
        new PartitionDirectory(chunks, probe, std::move(*entries)));
  }

  // First open: create the directory partition and an empty table.
  TDB_ASSIGN_OR_RETURN(PartitionId pid, chunks->AllocatePartition());
  ChunkStore::Batch batch;
  batch.WritePartition(pid, std::move(params));
  TDB_RETURN_IF_ERROR(chunks->Commit(std::move(batch)));
  TDB_ASSIGN_OR_RETURN(ChunkId chunk, chunks->AllocateChunk(pid));
  TDB_RETURN_IF_ERROR(chunks->WriteChunk(chunk, PickleTable({})));
  return std::unique_ptr<PartitionDirectory>(
      new PartitionDirectory(chunks, chunk, {}));
}

Bytes PartitionDirectory::PickleLocked() const {
  return PickleTable(entries_);
}

Status PartitionDirectory::CommitLocked(ChunkStore::Batch batch) {
  return chunks_->Commit(std::move(batch));
}

Result<PartitionEntry> PartitionDirectory::Create(const std::string& name,
                                                  CryptoParams params) {
  if (name.empty()) {
    return InvalidArgumentError("partition name must not be empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const PartitionEntry& e : entries_) {
    if (e.name == name) {
      return AlreadyExistsError("partition '" + name + "' already exists");
    }
  }
  TDB_ASSIGN_OR_RETURN(PartitionId pid, chunks_->AllocatePartition());
  PartitionEntry entry;
  entry.id = pid;
  entry.name = name;
  entries_.push_back(entry);
  ChunkStore::Batch batch;
  batch.WritePartition(pid, std::move(params));
  batch.WriteChunk(chunk_, PickleLocked());
  Status status = CommitLocked(std::move(batch));
  if (!status.ok()) {
    entries_.pop_back();
    return status;
  }
  return entry;
}

Result<PartitionEntry> PartitionDirectory::Adopt(PartitionId id,
                                                 const std::string& name) {
  if (name.empty()) {
    return InvalidArgumentError("partition name must not be empty");
  }
  if (!chunks_->PartitionExists(id)) {
    return NotFoundError("partition " + std::to_string(id) +
                         " does not exist in the chunk store");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const PartitionEntry& e : entries_) {
    if (e.name == name || e.id == id) {
      return AlreadyExistsError("partition '" + name + "' (id " +
                                std::to_string(id) + ") already cataloged");
    }
  }
  PartitionEntry entry;
  entry.id = id;
  entry.name = name;
  entries_.push_back(entry);
  ChunkStore::Batch batch;
  batch.WriteChunk(chunk_, PickleLocked());
  Status status = CommitLocked(std::move(batch));
  if (!status.ok()) {
    entries_.pop_back();
    return status;
  }
  return entry;
}

Status PartitionDirectory::Drop(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const PartitionEntry& e) { return e.name == name; });
  if (it == entries_.end()) {
    return NotFoundError("partition '" + name + "' does not exist");
  }
  PartitionEntry removed = *it;
  entries_.erase(it);
  ChunkStore::Batch batch;
  // A moved partition's data was deallocated (or retained) at hand-off
  // finish time; only drop chunk-store state that is still ours.
  if (chunks_->PartitionExists(removed.id)) {
    batch.DeallocatePartition(removed.id);
  }
  batch.WriteChunk(chunk_, PickleLocked());
  Status status = CommitLocked(std::move(batch));
  if (!status.ok()) {
    entries_.push_back(std::move(removed));
  }
  return status;
}

Result<PartitionEntry> PartitionDirectory::Lookup(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const PartitionEntry& e : entries_) {
    if (e.name == name) {
      return e;
    }
  }
  return NotFoundError("partition '" + name + "' does not exist");
}

Result<PartitionEntry> PartitionDirectory::Find(PartitionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const PartitionEntry& e : entries_) {
    if (e.id == id) {
      return e;
    }
  }
  return NotFoundError("partition " + std::to_string(id) +
                       " is not cataloged");
}

std::vector<PartitionEntry> PartitionDirectory::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

Status PartitionDirectory::MarkMoved(PartitionId id,
                                     const std::string& address) {
  std::lock_guard<std::mutex> lock(mu_);
  for (PartitionEntry& e : entries_) {
    if (e.id == id) {
      PartitionEntry saved = e;
      e.moved = true;
      e.moved_to = address;
      ++e.epoch;
      ChunkStore::Batch batch;
      batch.WriteChunk(chunk_, PickleLocked());
      Status status = CommitLocked(std::move(batch));
      if (!status.ok()) {
        e = saved;
      }
      return status;
    }
  }
  return NotFoundError("partition " + std::to_string(id) +
                       " is not cataloged");
}

Status PartitionDirectory::MarkServing(PartitionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (PartitionEntry& e : entries_) {
    if (e.id == id) {
      PartitionEntry saved = e;
      e.moved = false;
      e.moved_to.clear();
      ++e.epoch;
      ChunkStore::Batch batch;
      batch.WriteChunk(chunk_, PickleLocked());
      Status status = CommitLocked(std::move(batch));
      if (!status.ok()) {
        e = saved;
      }
      return status;
    }
  }
  return NotFoundError("partition " + std::to_string(id) +
                       " is not cataloged");
}

}  // namespace tdb::shard
