#include "src/chunk/log_format.h"

namespace tdb {

size_t HeaderCipherSize(const CryptoSuite& system) {
  return system.CiphertextSize(kHeaderPlainSize);
}

Bytes EncodeHeader(const CryptoSuite& system, const VersionHeader& header) {
  Bytes plain;
  plain.reserve(kHeaderPlainSize);
  if (header.unnamed) {
    PutU16(plain, kUnnamedPartition);
    plain.push_back(static_cast<uint8_t>(header.type));
    PutU64(plain, 0);
  } else {
    PutU16(plain, header.id.partition);
    plain.push_back(header.id.position.height);
    PutU64(plain, header.id.position.rank);
  }
  PutU32(plain, header.body_size);
  return system.Encrypt(plain);
}

Result<VersionHeader> DecodeHeader(const CryptoSuite& system, ByteView ct) {
  TDB_ASSIGN_OR_RETURN(Bytes plain, system.Decrypt(ct));
  if (plain.size() != kHeaderPlainSize) {
    return CorruptionError("version header has wrong size");
  }
  VersionHeader h;
  uint16_t partition = GetU16(plain.data());
  uint8_t height_or_type = plain[2];
  uint64_t rank = GetU64(plain.data() + 3);
  h.body_size = GetU32(plain.data() + 11);
  if (partition == kUnnamedPartition) {
    h.unnamed = true;
    if (height_or_type < static_cast<uint8_t>(UnnamedType::kDeallocate) ||
        height_or_type > static_cast<uint8_t>(UnnamedType::kCleaner)) {
      return CorruptionError("unknown unnamed chunk type");
    }
    h.type = static_cast<UnnamedType>(height_or_type);
  } else {
    h.id = ChunkId(partition, height_or_type, rank);
  }
  return h;
}

Bytes DeallocateRecord::Pickle() const {
  PickleWriter w;
  w.WriteVarint(chunks.size());
  for (const ChunkId& id : chunks) {
    w.WriteU64(id.Pack());
  }
  w.WriteVarint(partitions.size());
  for (PartitionId p : partitions) {
    w.WriteU16(p);
  }
  return w.Take();
}

Result<DeallocateRecord> DeallocateRecord::Unpickle(ByteView data) {
  PickleReader r(data);
  DeallocateRecord rec;
  uint64_t num_chunks = r.ReadCount(8);
  if (!r.ok()) {
    return CorruptionError("bad deallocate record");
  }
  rec.chunks.reserve(num_chunks);
  for (uint64_t i = 0; i < num_chunks; ++i) {
    rec.chunks.push_back(ChunkId::Unpack(r.ReadU64()));
  }
  uint64_t num_partitions = r.ReadCount(2);
  if (!r.ok()) {
    return CorruptionError("bad deallocate record");
  }
  rec.partitions.reserve(num_partitions);
  for (uint64_t i = 0; i < num_partitions; ++i) {
    rec.partitions.push_back(r.ReadU16());
  }
  TDB_RETURN_IF_ERROR(r.Done());
  return rec;
}

namespace {
Bytes CommitMacInput(uint64_t count, ByteView digest) {
  Bytes input;
  PutU64(input, count);
  Append(input, digest);
  return input;
}
}  // namespace

void CommitRecord::Sign(const CryptoSuite& system) {
  mac = system.Mac(CommitMacInput(count, set_digest));
}

bool CommitRecord::VerifySignature(const CryptoSuite& system) const {
  return ConstantTimeEqual(system.Mac(CommitMacInput(count, set_digest)), mac);
}

Bytes CommitRecord::Pickle() const {
  PickleWriter w;
  w.WriteU64(count);
  w.WriteBytes(set_digest);
  w.WriteBytes(mac);
  return w.Take();
}

Result<CommitRecord> CommitRecord::Unpickle(ByteView data) {
  PickleReader r(data);
  CommitRecord rec;
  rec.count = r.ReadU64();
  rec.set_digest = r.ReadBytes();
  rec.mac = r.ReadBytes();
  TDB_RETURN_IF_ERROR(r.Done());
  return rec;
}

Bytes NextSegmentRecord::Pickle() const {
  PickleWriter w;
  w.WriteU32(next_segment);
  return w.Take();
}

Result<NextSegmentRecord> NextSegmentRecord::Unpickle(ByteView data) {
  PickleReader r(data);
  NextSegmentRecord rec;
  rec.next_segment = r.ReadU32();
  TDB_RETURN_IF_ERROR(r.Done());
  return rec;
}

Bytes CleanerRecord::Pickle() const {
  PickleWriter w;
  w.WriteVarint(entries.size());
  for (const CleanerEntry& e : entries) {
    w.WriteU64(e.original_id.Pack());
    w.WriteU64(e.new_location.Pack());
    w.WriteU32(e.stored_size);
    w.WriteVarint(e.current_in.size());
    for (PartitionId p : e.current_in) {
      w.WriteU16(p);
    }
  }
  return w.Take();
}

Result<CleanerRecord> CleanerRecord::Unpickle(ByteView data) {
  PickleReader r(data);
  CleanerRecord rec;
  // An entry is two 64-bit ids, a 32-bit size and a partition count.
  uint64_t num = r.ReadCount(21);
  if (!r.ok()) {
    return CorruptionError("bad cleaner record");
  }
  rec.entries.reserve(num);
  for (uint64_t i = 0; i < num; ++i) {
    CleanerEntry e;
    e.original_id = ChunkId::Unpack(r.ReadU64());
    e.new_location = Location::Unpack(r.ReadU64());
    e.stored_size = r.ReadU32();
    uint64_t num_parts = r.ReadCount(2);
    if (!r.ok()) {
      return CorruptionError("bad cleaner record");
    }
    e.current_in.reserve(num_parts);
    for (uint64_t j = 0; j < num_parts; ++j) {
      e.current_in.push_back(r.ReadU16());
    }
    rec.entries.push_back(std::move(e));
  }
  TDB_RETURN_IF_ERROR(r.Done());
  return rec;
}

}  // namespace tdb
