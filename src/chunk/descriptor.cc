#include "src/chunk/descriptor.h"

namespace tdb {

void Descriptor::Pickle(PickleWriter& w) const {
  w.WriteU8(static_cast<uint8_t>(status));
  if (status == ChunkStatus::kWritten) {
    w.WriteU32(location.segment);
    w.WriteU32(location.offset);
    w.WriteU32(stored_size);
    w.WriteBytes(hash);
  }
}

Result<Descriptor> Descriptor::Unpickle(PickleReader& r) {
  Descriptor d;
  uint8_t status = r.ReadU8();
  if (status > static_cast<uint8_t>(ChunkStatus::kFree)) {
    return CorruptionError("bad chunk status in descriptor");
  }
  d.status = static_cast<ChunkStatus>(status);
  if (d.status == ChunkStatus::kWritten) {
    d.location.segment = r.ReadU32();
    d.location.offset = r.ReadU32();
    d.stored_size = r.ReadU32();
    d.hash = r.ReadBytes();
  }
  TDB_RETURN_IF_ERROR(r.Check());
  return d;
}

Bytes MapChunk::Pickle() const {
  PickleWriter w;
  for (const Descriptor& d : slots) {
    d.Pickle(w);
  }
  return w.Take();
}

Result<MapChunk> MapChunk::Unpickle(ByteView data) {
  PickleReader r(data);
  MapChunk map;
  for (uint64_t i = 0; i < kMapFanout; ++i) {
    TDB_ASSIGN_OR_RETURN(map.slots[i], Descriptor::Unpickle(r));
  }
  TDB_RETURN_IF_ERROR(r.Done());
  return map;
}

void PartitionLeader::Pickle(PickleWriter& w) const {
  params.Pickle(w);
  w.WriteU8(tree_height);
  root.Pickle(w);
  w.WriteVarint(num_positions);
  w.WriteVarint(free_ranks.size());
  for (uint64_t rank : free_ranks) {
    w.WriteVarint(rank);
  }
  w.WriteVarint(copies.size());
  for (PartitionId p : copies) {
    w.WriteU16(p);
  }
  w.WriteU16(copied_from);
}

Result<PartitionLeader> PartitionLeader::Unpickle(PickleReader& r) {
  PartitionLeader leader;
  TDB_ASSIGN_OR_RETURN(leader.params, CryptoParams::Unpickle(r));
  leader.tree_height = r.ReadU8();
  TDB_ASSIGN_OR_RETURN(leader.root, Descriptor::Unpickle(r));
  leader.num_positions = r.ReadVarint();
  uint64_t num_free = r.ReadCount(1);
  if (!r.ok()) {
    return CorruptionError("free list larger than input");
  }
  if (num_free > leader.num_positions) {
    return CorruptionError("free list larger than position space");
  }
  leader.free_ranks.reserve(num_free);
  for (uint64_t i = 0; i < num_free; ++i) {
    leader.free_ranks.push_back(r.ReadVarint());
  }
  uint64_t num_copies = r.ReadCount(2);
  if (!r.ok()) {
    return CorruptionError("bad copy list in leader");
  }
  leader.copies.reserve(num_copies);
  for (uint64_t i = 0; i < num_copies; ++i) {
    leader.copies.push_back(r.ReadU16());
  }
  leader.copied_from = r.ReadU16();
  TDB_RETURN_IF_ERROR(r.Check());
  return leader;
}

Bytes PartitionLeader::PickleToBytes() const {
  PickleWriter w;
  Pickle(w);
  return w.Take();
}

Result<PartitionLeader> PartitionLeader::UnpickleFromBytes(ByteView data) {
  PickleReader r(data);
  TDB_ASSIGN_OR_RETURN(PartitionLeader leader, Unpickle(r));
  TDB_RETURN_IF_ERROR(r.Done());
  return leader;
}

uint8_t PartitionLeader::HeightFor(uint64_t num_positions) {
  if (num_positions == 0) {
    return 0;
  }
  uint8_t height = 1;
  uint64_t covered = kMapFanout;
  while (covered < num_positions) {
    covered *= kMapFanout;
    ++height;
  }
  return height;
}

}  // namespace tdb
