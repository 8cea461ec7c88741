#include "src/backup/backup_store.h"

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/crypto/sha256.h"

namespace tdb {

namespace {

// Per-chunk record header inside a partition backup (encrypted with the
// system cipher, like version headers in the log, §5.4).
struct ChunkRecordHeader {
  uint64_t position = 0;  // packed ChunkPosition (height always 0)
  bool written = true;    // false = deallocated since the base snapshot
  uint32_t body_size = 0;

  Bytes Pickle() const {
    PickleWriter w;
    w.WriteU64(position);
    w.WriteBool(written);
    w.WriteU32(body_size);
    return w.Take();
  }
  static Result<ChunkRecordHeader> Unpickle(ByteView data) {
    PickleReader r(data);
    ChunkRecordHeader h;
    h.position = r.ReadU64();
    h.written = r.ReadBool();
    h.body_size = r.ReadU32();
    TDB_RETURN_IF_ERROR(r.Done());
    return h;
  }
};

// Length-prefixed framing on the archival stream.
Status WriteFrame(ArchivalSink* sink, ByteView payload, Sha256* checksum) {
  Bytes frame;
  PutU32(frame, static_cast<uint32_t>(payload.size()));
  Append(frame, payload);
  if (checksum != nullptr) {
    checksum->Update(frame);
  }
  return sink->Write(frame);
}

// Reads one frame; empty optional at end of stream. A frame with zero length
// is returned as an empty Bytes.
Result<std::optional<Bytes>> ReadFrame(ArchivalSource* source,
                                       Sha256* checksum) {
  TDB_ASSIGN_OR_RETURN(Bytes len_bytes, source->Read(4));
  if (len_bytes.empty()) {
    return std::optional<Bytes>{};
  }
  if (len_bytes.size() != 4) {
    return CorruptionError("truncated frame length in backup stream");
  }
  uint32_t len = GetU32(len_bytes.data());
  if (len > (64u << 20)) {
    return CorruptionError("unreasonable frame length in backup stream");
  }
  TDB_ASSIGN_OR_RETURN(Bytes payload, source->Read(len));
  if (payload.size() != len) {
    return CorruptionError("truncated frame payload in backup stream");
  }
  if (checksum != nullptr) {
    checksum->Update(len_bytes);
    checksum->Update(payload);
  }
  return std::optional<Bytes>(std::move(payload));
}

Bytes SignatureInput(ByteView descriptor_plain, ByteView chunks_digest) {
  Bytes input(descriptor_plain.begin(), descriptor_plain.end());
  Append(input, chunks_digest);
  return input;
}

}  // namespace

Bytes BackupDescriptor::Pickle() const {
  PickleWriter w;
  w.WriteU16(source);
  w.WriteU16(snapshot);
  w.WriteU16(base_snapshot);
  w.WriteU64(backup_set_id);
  w.WriteU32(set_size);
  params.Pickle(w);
  w.WriteU64(created_unix);
  return w.Take();
}

Result<BackupDescriptor> BackupDescriptor::Unpickle(ByteView data) {
  PickleReader r(data);
  BackupDescriptor d;
  d.source = r.ReadU16();
  d.snapshot = r.ReadU16();
  d.base_snapshot = r.ReadU16();
  d.backup_set_id = r.ReadU64();
  d.set_size = r.ReadU32();
  TDB_ASSIGN_OR_RETURN(d.params, CryptoParams::Unpickle(r));
  d.created_unix = r.ReadU64();
  TDB_RETURN_IF_ERROR(r.Done());
  return d;
}

Result<BackupStore::CreateResult> BackupStore::CreateBackupSet(
    const std::vector<PartitionSpec>& specs, uint64_t set_id,
    uint64_t created_unix, ArchivalSink* sink) {
  ProfileScope scope("module.backup_store");
  if (specs.empty()) {
    return InvalidArgumentError("backup set must cover at least one partition");
  }
  // Snapshot all sources in one commit: a consistent cut (§6.1).
  CreateResult result;
  result.backup_set_id = set_id;
  ChunkStore::Batch batch;
  for (const PartitionSpec& spec : specs) {
    TDB_ASSIGN_OR_RETURN(PartitionId snap, chunks_->AllocatePartition());
    result.snapshots.push_back(snap);
    batch.CopyPartition(snap, spec.source);
  }
  TDB_RETURN_IF_ERROR(chunks_->Commit(std::move(batch)));

  // Stream each partition backup.
  for (size_t i = 0; i < specs.size(); ++i) {
    BackupDescriptor descriptor;
    descriptor.source = specs[i].source;
    descriptor.snapshot = result.snapshots[i];
    descriptor.base_snapshot = specs[i].base_snapshot;
    descriptor.backup_set_id = set_id;
    descriptor.set_size = static_cast<uint32_t>(specs.size());
    TDB_ASSIGN_OR_RETURN(descriptor.params,
                         chunks_->PartitionParams(specs[i].source));
    descriptor.created_unix = created_unix;
    TDB_RETURN_IF_ERROR(
        WritePartitionBackup(result.snapshots[i], descriptor, sink, result));
  }
  obs::Count("backup.sets_created");
  obs::Count("backup.chunks_written", result.chunks_written);
  obs::Count("backup.bytes_written", result.bytes_written);
  obs::TraceEmit(obs::TraceKind::kBackupWrite, "backup_store",
                 result.chunks_written, result.bytes_written);
  return result;
}

Status BackupStore::WritePartitionBackup(PartitionId snapshot,
                                         const BackupDescriptor& descriptor,
                                         ArchivalSink* sink,
                                         CreateResult& result) {
  const CryptoSuite& system = chunks_->system_suite();
  TDB_ASSIGN_OR_RETURN(CryptoSuite partition_suite,
                       CryptoSuite::Create(descriptor.params));

  Sha256 checksum;
  StreamingHash chunks_hash(descriptor.params.hash);

  Bytes descriptor_plain = descriptor.Pickle();
  TDB_RETURN_IF_ERROR(
      WriteFrame(sink, system.Encrypt(descriptor_plain), &checksum));

  // Which positions go into the backup?
  std::vector<ChunkPosition> positions;
  if (descriptor.incremental()) {
    TDB_ASSIGN_OR_RETURN(std::vector<ChunkPosition> diff,
                         chunks_->Diff(descriptor.base_snapshot, snapshot));
    positions = std::move(diff);
  } else {
    TDB_ASSIGN_OR_RETURN(uint64_t num_positions,
                         chunks_->PartitionNumPositions(snapshot));
    for (uint64_t rank = 0; rank < num_positions; ++rank) {
      positions.emplace_back(0, rank);
    }
  }

  // Chunks are framed in position order: each chunk's record header, then
  // its body. The signature's chunk digest absorbs each position and
  // Hp(body) (§6.2); RestoreStream mirrors this.
  for (const ChunkPosition& pos : positions) {
    Result<Bytes> body = chunks_->Read(ChunkId(snapshot, pos));
    if (!body.ok() && body.status().code() != StatusCode::kNotFound) {
      return body.status();
    }
    if (!body.ok() && !descriptor.incremental()) {
      continue;  // full backups carry only written chunks
    }
    ChunkRecordHeader header;
    header.position = (static_cast<uint64_t>(pos.height) << 40) | pos.rank;
    header.written = body.ok();
    Bytes pos_bytes;
    PutU64(pos_bytes, header.position);
    chunks_hash.Update(pos_bytes);
    Bytes body_ct;
    if (header.written) {
      chunks_hash.Update(partition_suite.Hash(*body));
      body_ct = partition_suite.Encrypt(*body);
      header.body_size = static_cast<uint32_t>(body_ct.size());
      result.bytes_written += body->size();
    } else {
      chunks_hash.Update(BytesFromString("<deallocated>"));
    }
    TDB_RETURN_IF_ERROR(
        WriteFrame(sink, system.Encrypt(header.Pickle()), &checksum));
    if (header.written) {
      TDB_RETURN_IF_ERROR(WriteFrame(sink, body_ct, &checksum));
    }
    ++result.chunks_written;
  }
  // End-of-chunks marker.
  TDB_RETURN_IF_ERROR(WriteFrame(sink, {}, &checksum));

  // Signature binds the descriptor to the chunk contents (§6.2).
  Bytes signature = system.Mac(
      SignatureInput(descriptor_plain, chunks_hash.Finish()));
  TDB_RETURN_IF_ERROR(WriteFrame(sink, signature, &checksum));

  // Plain checksum over every preceding frame of this partition backup.
  TDB_RETURN_IF_ERROR(WriteFrame(sink, checksum.Finish(), nullptr));
  return OkStatus();
}

Result<BackupStore::RestoreResult> BackupStore::RestoreStream(
    ArchivalSource* source, RestoreApprover approver) {
  ProfileScope scope("module.backup_store");
  const CryptoSuite& system = chunks_->system_suite();

  struct FoldedPartition {
    CryptoParams params;
    bool saw_full = false;
    PartitionId last_snapshot = 0;
    // rank -> new state; nullopt = deallocated
    std::map<uint64_t, std::optional<Bytes>> state;
  };
  std::map<PartitionId, FoldedPartition> folded;
  std::map<uint64_t, std::pair<uint32_t, uint32_t>> sets;  // id -> (size, seen)

  while (true) {
    Sha256 checksum;
    TDB_ASSIGN_OR_RETURN(std::optional<Bytes> desc_frame,
                         ReadFrame(source, &checksum));
    if (!desc_frame.has_value()) {
      break;  // end of stream
    }
    Result<Bytes> desc_plain = system.Decrypt(*desc_frame);
    if (!desc_plain.ok()) {
      return TamperDetectedError("backup descriptor fails to decrypt");
    }
    TDB_ASSIGN_OR_RETURN(BackupDescriptor descriptor,
                         BackupDescriptor::Unpickle(*desc_plain));
    if (approver) {
      TDB_RETURN_IF_ERROR(approver(descriptor));
    }
    TDB_ASSIGN_OR_RETURN(CryptoSuite partition_suite,
                         CryptoSuite::Create(descriptor.params));

    FoldedPartition& fp = folded[descriptor.source];
    if (descriptor.incremental()) {
      if (fp.last_snapshot == 0) {
        return FailedPreconditionError(
            "incremental backup without a preceding full backup for "
            "partition " +
            std::to_string(descriptor.source));
      }
      if (descriptor.base_snapshot != fp.last_snapshot) {
        return FailedPreconditionError(
            "incremental backup chain is broken for partition " +
            std::to_string(descriptor.source));
      }
    } else {
      fp.saw_full = true;
      fp.state.clear();
      fp.params = descriptor.params;
    }

    StreamingHash chunks_hash(descriptor.params.hash);
    uint64_t applied = 0;
    while (true) {
      TDB_ASSIGN_OR_RETURN(std::optional<Bytes> header_frame,
                           ReadFrame(source, &checksum));
      if (!header_frame.has_value()) {
        return CorruptionError("backup stream ends inside a partition backup");
      }
      if (header_frame->empty()) {
        break;  // end-of-chunks marker
      }
      Result<Bytes> header_plain = system.Decrypt(*header_frame);
      if (!header_plain.ok()) {
        return TamperDetectedError("backup chunk header fails to decrypt");
      }
      TDB_ASSIGN_OR_RETURN(ChunkRecordHeader header,
                           ChunkRecordHeader::Unpickle(*header_plain));
      uint64_t rank = header.position & 0xFFFFFFFFFFULL;
      Bytes pos_bytes;
      PutU64(pos_bytes, header.position);
      chunks_hash.Update(pos_bytes);
      if (header.written) {
        TDB_ASSIGN_OR_RETURN(std::optional<Bytes> body_frame,
                             ReadFrame(source, &checksum));
        if (!body_frame.has_value() ||
            body_frame->size() != header.body_size) {
          return CorruptionError("backup chunk body missing or mis-sized");
        }
        Result<Bytes> body = partition_suite.Decrypt(*body_frame);
        if (!body.ok()) {
          return TamperDetectedError("backup chunk body fails to decrypt");
        }
        // The signature covers Hp(body) per chunk (see WritePartitionBackup).
        chunks_hash.Update(partition_suite.Hash(*body));
        fp.state[rank] = std::move(*body);
      } else {
        chunks_hash.Update(BytesFromString("<deallocated>"));
        fp.state[rank] = std::nullopt;
      }
      ++applied;
    }

    // Verify the signature before trusting anything we just folded in.
    TDB_ASSIGN_OR_RETURN(std::optional<Bytes> signature_frame,
                         ReadFrame(source, &checksum));
    if (!signature_frame.has_value()) {
      return CorruptionError("backup stream missing signature");
    }
    Bytes expected_signature =
        system.Mac(SignatureInput(*desc_plain, chunks_hash.Finish()));
    if (!ConstantTimeEqual(*signature_frame, expected_signature)) {
      return TamperDetectedError("backup signature mismatch for partition " +
                                 std::to_string(descriptor.source));
    }
    Bytes checksum_expected = checksum.Finish();
    TDB_ASSIGN_OR_RETURN(std::optional<Bytes> checksum_frame,
                         ReadFrame(source, nullptr));
    if (!checksum_frame.has_value() ||
        !ConstantTimeEqual(*checksum_frame, checksum_expected)) {
      return CorruptionError("backup checksum mismatch");
    }

    fp.last_snapshot = descriptor.snapshot;
    fp.params = descriptor.params;
    auto& [size, seen] = sets[descriptor.backup_set_id];
    size = descriptor.set_size;
    ++seen;
    (void)applied;
  }

  // Set completeness (§6.3): partial backup sets cannot be restored.
  for (const auto& [set_id, counts] : sets) {
    if (counts.first != counts.second) {
      return FailedPreconditionError(
          "backup set " + std::to_string(set_id) +
          " is incomplete: " + std::to_string(counts.second) + " of " +
          std::to_string(counts.first) + " partition backups present");
    }
  }
  if (folded.empty()) {
    return InvalidArgumentError("backup stream contained no backups");
  }

  // Apply everything in one atomic commit.
  RestoreResult result;
  ChunkStore::Batch batch;
  for (auto& [source_id, fp] : folded) {
    batch.RestorePartition(source_id, fp.params);
    // A full backup replaces the partition: chunks present now but absent
    // from the folded state must go away.
    if (fp.saw_full && chunks_->PartitionExists(source_id)) {
      TDB_ASSIGN_OR_RETURN(uint64_t existing,
                           chunks_->PartitionNumPositions(source_id));
      for (uint64_t rank = 0; rank < existing; ++rank) {
        ChunkId id(source_id, 0, rank);
        if (fp.state.count(rank) == 0 && chunks_->ChunkWritten(id)) {
          batch.DeallocateChunk(id);
        }
      }
    }
    for (auto& [rank, state] : fp.state) {
      ChunkId id(source_id, 0, rank);
      if (state.has_value()) {
        batch.RestoreChunk(id, std::move(*state));
        ++result.chunks_applied;
      } else if (chunks_->ChunkWritten(id)) {
        batch.DeallocateChunk(id);
        ++result.chunks_applied;
      }
    }
    result.restored.push_back(source_id);
  }
  TDB_RETURN_IF_ERROR(chunks_->Commit(std::move(batch)));
  obs::Count("backup.restores");
  obs::Count("backup.chunks_restored", result.chunks_applied);
  obs::TraceEmit(obs::TraceKind::kBackupRestore, "backup_store",
                 result.chunks_applied, result.restored.size());
  return result;
}

}  // namespace tdb
