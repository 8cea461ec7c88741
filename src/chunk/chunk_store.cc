#include "src/chunk/chunk_store.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"

namespace tdb {

namespace {

constexpr uint32_t kSuperblockMagic = 0x54444201;  // "TDB" v1

// A commit cleans when fewer than one segment in this many is free.
constexpr size_t kCleanLowWaterDivisor = 8;

// The reserved id of the system leader chunk, whose tree position changes as
// the partition map grows (§4.3).
ChunkId SystemLeaderId() {
  return ChunkId(kSystemPartition, kLeaderHeight, 0);
}

ChunkId LeaderChunkId(PartitionId partition) {
  return ChunkId(kSystemPartition, 0, partition);
}

// The descriptor of a deallocated chunk, whose rank awaits reuse.
Descriptor FreeDescriptor() {
  Descriptor desc;
  desc.status = ChunkStatus::kFree;
  return desc;
}

}  // namespace

// ---------------------------------------------------------------------------
// Batch

void ChunkStore::Batch::WriteChunk(ChunkId id, Bytes state) {
  chunk_writes.push_back(ChunkWrite{id, std::move(state), false});
}

void ChunkStore::Batch::RestoreChunk(ChunkId id, Bytes state) {
  chunk_writes.push_back(ChunkWrite{id, std::move(state), true});
}

void ChunkStore::Batch::RestorePartition(PartitionId id, CryptoParams params) {
  PartitionOp op;
  op.id = id;
  op.is_restore = true;
  op.params = std::move(params);
  partition_writes.push_back(std::move(op));
}

void ChunkStore::Batch::DeallocateChunk(ChunkId id) {
  chunk_deallocs.push_back(id);
}

void ChunkStore::Batch::WritePartition(PartitionId id, CryptoParams params) {
  PartitionOp op;
  op.id = id;
  op.params = std::move(params);
  partition_writes.push_back(std::move(op));
}

void ChunkStore::Batch::CopyPartition(PartitionId id, PartitionId source) {
  PartitionOp op;
  op.id = id;
  op.is_copy = true;
  op.source = source;
  partition_writes.push_back(std::move(op));
}

void ChunkStore::Batch::DeallocatePartition(PartitionId id) {
  partition_deallocs.push_back(id);
}

void ChunkStore::Batch::Append(Batch&& other) {
  auto splice = [](auto& dst, auto& src) {
    dst.insert(dst.end(), std::make_move_iterator(src.begin()),
               std::make_move_iterator(src.end()));
    src.clear();
  };
  splice(partition_writes, other.partition_writes);
  splice(chunk_writes, other.chunk_writes);
  splice(chunk_deallocs, other.chunk_deallocs);
  splice(partition_deallocs, other.partition_deallocs);
}

bool ChunkStore::Batch::empty() const {
  return partition_writes.empty() && chunk_writes.empty() &&
         chunk_deallocs.empty() && partition_deallocs.empty();
}

// ---------------------------------------------------------------------------
// Construction / open / create

ChunkStore::ChunkStore(UntrustedStore* store, TrustedServices trusted,
                       ChunkStoreOptions options, CryptoSuite system_suite)
    : store_(store),
      trusted_(trusted),
      options_(options),
      system_suite_(std::make_unique<CryptoSuite>(std::move(system_suite))),
      log_(store, system_suite_.get()),
      cache_(options.descriptor_cache_capacity),
      vcache_(options.validated_cache_capacity,
              {"chunk.vcache_evictions", "chunk_vcache"}) {
  if (options_.validation.mode == ValidationMode::kDirectHash) {
    direct_.emplace(trusted_.register_store, system_suite_->hash_alg());
  } else {
    counter_.emplace(trusted_.counter, options_.validation.delta_ut);
  }
}

ChunkStore::~ChunkStore() = default;

namespace {
Result<CryptoSuite> MakeSystemSuite(const TrustedServices& trusted,
                                    const ChunkStoreOptions& options) {
  if (trusted.secret == nullptr) {
    return InvalidArgumentError("a secret store is required");
  }
  if (options.validation.mode == ValidationMode::kDirectHash &&
      trusted.register_store == nullptr) {
    return InvalidArgumentError(
        "direct-hash validation requires a tamper-resistant register");
  }
  if (options.validation.mode == ValidationMode::kCounter &&
      trusted.counter == nullptr) {
    return InvalidArgumentError(
        "counter-based validation requires a monotonic counter");
  }
  TDB_ASSIGN_OR_RETURN(Bytes secret, trusted.secret->Read());
  CryptoParams params;
  params.cipher = options.system_cipher;
  params.hash = options.system_hash;
  size_t key_size = CipherKeySize(params.cipher);
  if (secret.size() < key_size) {
    return InvalidArgumentError("secret is too short for the system cipher");
  }
  params.key = Bytes(secret.begin(), secret.begin() + key_size);
  return CryptoSuite::Create(std::move(params));
}
}  // namespace

Result<std::unique_ptr<ChunkStore>> ChunkStore::Create(
    UntrustedStore* store, TrustedServices trusted,
    ChunkStoreOptions options) {
  TDB_ASSIGN_OR_RETURN(CryptoSuite suite, MakeSystemSuite(trusted, options));
  auto cs = std::unique_ptr<ChunkStore>(
      new ChunkStore(store, trusted, options, std::move(suite)));
  TDB_RETURN_IF_ERROR(cs->log_.InitFresh());

  PartitionLeader system_leader;
  system_leader.params = cs->system_suite_->params();
  system_leader.num_positions = 1;  // rank 0 is reserved for the system
  cs->leaders_.emplace(
      kSystemPartition,
      LeaderEntry(std::move(system_leader), *cs->system_suite_));

  if (cs->counter_) {
    TDB_ASSIGN_OR_RETURN(uint64_t trusted_count, trusted.counter->Read());
    TDB_RETURN_IF_ERROR(cs->counter_->Init(trusted_count));
  }

  std::lock_guard<std::mutex> lock(cs->mu_);
  TDB_RETURN_IF_ERROR(cs->CheckpointLocked());
  return cs;
}

Result<std::unique_ptr<ChunkStore>> ChunkStore::Open(UntrustedStore* store,
                                                     TrustedServices trusted,
                                                     ChunkStoreOptions options) {
  TDB_ASSIGN_OR_RETURN(CryptoSuite suite, MakeSystemSuite(trusted, options));
  auto cs = std::unique_ptr<ChunkStore>(
      new ChunkStore(store, trusted, options, std::move(suite)));
  std::lock_guard<std::mutex> lock(cs->mu_);
  TDB_RETURN_IF_ERROR(cs->RecoverLocked());
  return cs;
}

// ---------------------------------------------------------------------------
// Superblock

Status ChunkStore::WriteSuperblock(Location leader_loc, uint32_t leader_size) {
  PickleWriter w;
  w.WriteU32(kSuperblockMagic);
  w.WriteU64(leader_loc.Pack());
  w.WriteU32(leader_size);
  return store_->WriteSuperblock(w.data());
}

Result<std::pair<Location, uint32_t>> ChunkStore::ReadSuperblock() {
  TDB_ASSIGN_OR_RETURN(Bytes raw, store_->ReadSuperblock());
  if (raw.empty()) {
    return NotFoundError("superblock is empty: not a TDB store");
  }
  // A non-empty but malformed superblock is adversarial, not a torn write:
  // the UntrustedStore contract makes superblock writes atomic and durable.
  PickleReader r(raw);
  if (r.ReadU32() != kSuperblockMagic) {
    return TamperDetectedError("bad superblock magic");
  }
  Location loc = Location::Unpack(r.ReadU64());
  uint32_t size = r.ReadU32();
  if (!r.Done().ok()) {
    return TamperDetectedError("superblock is truncated or oversized");
  }
  return std::make_pair(loc, size);
}

// ---------------------------------------------------------------------------
// Leaders and descriptors

PartitionLeader ChunkStore::LeaderEntry::Persisted() const {
  PartitionLeader persisted = leader;
  persisted.free_ranks = avail_ranks;
  persisted.free_ranks.insert(persisted.free_ranks.end(),
                              allocated_ranks.begin(), allocated_ranks.end());
  return persisted;
}

Result<ChunkStore::LeaderEntry*> ChunkStore::GetLeader(PartitionId id) {
  auto it = leaders_.find(id);
  if (it != leaders_.end()) {
    return &it->second;
  }
  if (id == kSystemPartition) {
    return FailedPreconditionError("system leader not loaded");
  }
  TDB_ASSIGN_OR_RETURN(Descriptor desc, GetDescriptor(LeaderChunkId(id)));
  if (!desc.written()) {
    return NotFoundError("partition " + std::to_string(id) + " not written");
  }
  TDB_ASSIGN_OR_RETURN(Bytes plain,
                       ReadVersion(LeaderChunkId(id), desc, *system_suite_));
  TDB_ASSIGN_OR_RETURN(PartitionLeader leader,
                       PartitionLeader::UnpickleFromBytes(plain));
  TDB_ASSIGN_OR_RETURN(CryptoSuite suite, CryptoSuite::Create(leader.params));
  auto [pos, _] =
      leaders_.emplace(id, LeaderEntry(std::move(leader), std::move(suite)));
  return &pos->second;
}

Result<Descriptor> ChunkStore::GetDescriptor(const ChunkId& id) {
  if (std::optional<Descriptor> cached = cache_.Get(id)) {
    return *cached;
  }
  TDB_ASSIGN_OR_RETURN(LeaderEntry* entry, GetLeader(id.partition));
  const PartitionLeader& leader = entry->leader;
  if (leader.tree_height == 0) {
    // No checkpointed map yet; everything written is in the cache.
    return Descriptor{};
  }
  if (id.position.height == leader.tree_height) {
    if (id.position.rank != 0) {
      return Descriptor{};
    }
    Descriptor root = leader.root;
    if (root.written()) {
      cache_.PutClean(id, root);
    }
    return root;
  }
  if (id.position.height > leader.tree_height) {
    return Descriptor{};
  }
  ChunkId parent(id.partition, id.position.Parent());
  TDB_ASSIGN_OR_RETURN(Descriptor parent_desc, GetDescriptor(parent));
  if (!parent_desc.written()) {
    return Descriptor{};
  }
  TDB_ASSIGN_OR_RETURN(Bytes content,
                       ReadVersion(parent, parent_desc, entry->suite));
  TDB_ASSIGN_OR_RETURN(MapChunk map, MapChunk::Unpickle(content));
  // Cache every written descriptor from this map chunk; PutClean never
  // overwrites dirty entries, so buffered updates stay authoritative.
  uint64_t base = parent.position.rank * kMapFanout;
  uint8_t child_height = static_cast<uint8_t>(parent.position.height - 1);
  for (uint64_t i = 0; i < kMapFanout; ++i) {
    if (map.slots[i].written()) {
      cache_.PutClean(ChunkId(id.partition, child_height, base + i),
                      map.slots[i]);
    }
  }
  // The dirty entry (if any) still wins over the just-read map content.
  if (std::optional<Descriptor> cached = cache_.Get(id)) {
    return *cached;
  }
  return map.slots[id.position.SlotInParent()];
}

Result<Bytes> ChunkStore::ReadVersion(const ChunkId& id,
                                      const Descriptor& desc,
                                      const CryptoSuite& suite,
                                      bool raise_alarm) {
  auto invalid = [raise_alarm](std::string message) {
    return raise_alarm ? TamperDetectedError(std::move(message))
                       : CorruptionError(std::move(message));
  };
  size_t header_size = HeaderCipherSize(*system_suite_);
  TDB_ASSIGN_OR_RETURN(
      Bytes header_ct,
      store_->Read(desc.location.segment, desc.location.offset, header_size));
  Result<VersionHeader> header = DecodeHeader(*system_suite_, header_ct);
  if (!header.ok()) {
    return invalid("chunk header fails to decode at " +
                   desc.location.ToString());
  }
  if (header->unnamed || header->id.position != id.position) {
    return invalid("chunk at " + desc.location.ToString() +
                   " does not match id " + id.ToString());
  }
  if (header_size + header->body_size != desc.stored_size) {
    return invalid("chunk size mismatch for " + id.ToString());
  }
  TDB_ASSIGN_OR_RETURN(
      Bytes body_ct,
      store_->Read(desc.location.segment,
                   desc.location.offset + static_cast<uint32_t>(header_size),
                   header->body_size));
  Result<Bytes> plain = [&] {
    ProfileScope decrypt_scope("module.encryption");
    return suite.Decrypt(body_ct);
  }();
  if (!plain.ok()) {
    return invalid("chunk body fails to decrypt for " + id.ToString());
  }
  Bytes computed_hash;
  {
    ProfileScope hash_scope("module.hashing");
    computed_hash = suite.Hash(*plain);
  }
  if (!ConstantTimeEqual(computed_hash, desc.hash)) {
    return invalid("hash mismatch for chunk " + id.ToString());
  }
  return plain;
}

// ---------------------------------------------------------------------------
// Public reads and queries

Result<Bytes> ChunkStore::Read(ChunkId id) {
  if (vcache_.enabled()) {
    // Lock-free fast path: a hit returns validated plaintext without mu_,
    // decryption, or hash verification. The generation check rejects entries
    // that a clean/restore/recovery may have invalidated wholesale; precise
    // per-id invalidation at commit time handles overwrites and deallocs.
    uint64_t gen = read_gen_.load(std::memory_order_acquire);
    std::optional<ValidatedChunk> hit = vcache_.Get(id);
    if (hit.has_value() && hit->gen == gen &&
        !failed_.load(std::memory_order_acquire)) {
      obs::Count("cache.shard_hits");
      obs::Count("chunk.vcache_hits");
      obs::TraceEmit(obs::TraceKind::kCacheHit, "chunk_vcache",
                     id.position.rank);
      return Bytes(*hit->plain);
    }
    obs::Count("cache.shard_misses");
    obs::Count("chunk.vcache_misses");
    obs::TraceEmit(obs::TraceKind::kCacheMiss, "chunk_vcache",
                   id.position.rank);
  }
  // Cold path: resolve the descriptor under mu_, then run the expensive part
  // (device read + decrypt + hash verify) outside it so concurrent cold reads
  // validate in parallel instead of serializing on the store mutex.
  Descriptor desc;
  std::optional<CryptoSuite> suite;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ProfileScope scope("module.chunk_store");
    TDB_RETURN_IF_ERROR(CheckUsable());
    if (id.partition == kUnnamedPartition || id.position.height != 0) {
      return InvalidArgumentError("not a data chunk id: " + id.ToString());
    }
    TDB_ASSIGN_OR_RETURN(desc, GetDescriptor(id));
    if (!desc.written()) {
      return NotFoundError("chunk " + id.ToString() + " is not written");
    }
    TDB_ASSIGN_OR_RETURN(LeaderEntry * entry, GetLeader(id.partition));
    suite = entry->suite;
  }
  Result<Bytes> out = ReadVersion(id, desc, *suite, /*raise_alarm=*/false);
  std::lock_guard<std::mutex> lock(mu_);
  ProfileScope scope("module.chunk_store");
  if (!out.ok()) {
    // A concurrent clean may have relocated the chunk between descriptor
    // resolution and the device read, leaving stale bytes at the old
    // location. Retry under mu_, where descriptor and device state are
    // consistent; only this authoritative attempt raises tamper alarms.
    out = ReadLocked(id);
    if (!out.ok()) {
      return out;
    }
  } else if (vcache_.enabled()) {
    // Fill only if the descriptor is unchanged: an overwrite committed while
    // we validated outside mu_ must not be resurrected with the superseded
    // plaintext. (Returning the old plaintext itself is fine — the read
    // linearizes at descriptor-resolution time.)
    Result<Descriptor> now = GetDescriptor(id);
    if (!now.ok() || !(*now == desc)) {
      return out;
    }
  }
  if (vcache_.enabled()) {
    // Fill under mu_: a commit that invalidates this id also runs under mu_,
    // so a fill can never resurrect a superseded version.
    vcache_.Put(id,
                ValidatedChunk{read_gen_.load(std::memory_order_relaxed),
                               std::make_shared<const Bytes>(*out)});
  }
  return out;
}

Result<Bytes> ChunkStore::ReadLocked(ChunkId id) {
  TDB_RETURN_IF_ERROR(CheckUsable());
  if (id.partition == kUnnamedPartition || id.position.height != 0) {
    return InvalidArgumentError("not a data chunk id: " + id.ToString());
  }
  TDB_ASSIGN_OR_RETURN(Descriptor desc, GetDescriptor(id));
  if (!desc.written()) {
    return NotFoundError("chunk " + id.ToString() + " is not written");
  }
  TDB_ASSIGN_OR_RETURN(LeaderEntry* entry, GetLeader(id.partition));
  return ReadVersion(id, desc, entry->suite);
}

bool ChunkStore::ChunkWritten(ChunkId id) {
  std::lock_guard<std::mutex> lock(mu_);
  Result<Descriptor> desc = GetDescriptor(id);
  return desc.ok() && desc->written();
}

bool ChunkStore::PartitionExists(PartitionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == kSystemPartition) {
    return false;
  }
  return GetLeader(id).ok();
}

Result<CryptoParams> ChunkStore::PartitionParams(PartitionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  TDB_ASSIGN_OR_RETURN(LeaderEntry* entry, GetLeader(id));
  return entry->leader.params;
}

Result<uint64_t> ChunkStore::PartitionNumPositions(PartitionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  TDB_ASSIGN_OR_RETURN(LeaderEntry* entry, GetLeader(id));
  return entry->leader.num_positions;
}

Result<std::vector<PartitionId>> ChunkStore::PartitionCopies(PartitionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  TDB_ASSIGN_OR_RETURN(LeaderEntry* entry, GetLeader(id));
  return entry->leader.copies;
}

Result<PartitionId> ChunkStore::PartitionCopiedFrom(PartitionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  TDB_ASSIGN_OR_RETURN(LeaderEntry* entry, GetLeader(id));
  return entry->leader.copied_from;
}

std::vector<PartitionId> ChunkStore::ListPartitions() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PartitionId> out;
  auto it = leaders_.find(kSystemPartition);
  if (it == leaders_.end()) {
    return out;
  }
  uint64_t n = it->second.leader.num_positions;
  for (uint64_t rank = 1; rank < n; ++rank) {
    Result<Descriptor> desc =
        GetDescriptor(LeaderChunkId(static_cast<PartitionId>(rank)));
    if (desc.ok() && desc->written()) {
      out.push_back(static_cast<PartitionId>(rank));
    }
  }
  return out;
}

Result<std::vector<ChunkPosition>> ChunkStore::Diff(
    PartitionId old_partition, PartitionId new_partition) {
  std::lock_guard<std::mutex> lock(mu_);
  ProfileScope scope("module.chunk_store");
  TDB_RETURN_IF_ERROR(CheckUsable());
  TDB_ASSIGN_OR_RETURN(LeaderEntry* old_entry, GetLeader(old_partition));
  TDB_ASSIGN_OR_RETURN(LeaderEntry* new_entry, GetLeader(new_partition));
  uint64_t max_rank = std::max(old_entry->leader.num_positions,
                               new_entry->leader.num_positions);
  std::vector<ChunkPosition> out;
  for (uint64_t rank = 0; rank < max_rank; ++rank) {
    TDB_ASSIGN_OR_RETURN(Descriptor d_old,
                         GetDescriptor(ChunkId(old_partition, 0, rank)));
    TDB_ASSIGN_OR_RETURN(Descriptor d_new,
                         GetDescriptor(ChunkId(new_partition, 0, rank)));
    bool same;
    if (d_old.written() != d_new.written()) {
      same = false;
    } else if (!d_old.written()) {
      same = true;
    } else {
      same = d_old.hash == d_new.hash;
    }
    if (!same) {
      out.emplace_back(0, rank);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Allocation

Result<PartitionId> ChunkStore::AllocatePartition() {
  std::lock_guard<std::mutex> lock(mu_);
  TDB_RETURN_IF_ERROR(CheckUsable());
  TDB_ASSIGN_OR_RETURN(LeaderEntry* sys, GetLeader(kSystemPartition));
  uint64_t rank;
  if (!sys->avail_ranks.empty()) {
    rank = sys->avail_ranks.back();
    sys->avail_ranks.pop_back();
  } else {
    rank = sys->leader.num_positions++;
  }
  if (rank >= kUnnamedPartition) {
    return OutOfSpaceError("partition id space exhausted");
  }
  sys->allocated_ranks.insert(rank);
  return static_cast<PartitionId>(rank);
}

Result<ChunkId> ChunkStore::AllocateChunk(PartitionId partition) {
  std::lock_guard<std::mutex> lock(mu_);
  ProfileScope scope("module.chunk_store");
  TDB_RETURN_IF_ERROR(CheckUsable());
  if (partition == kSystemPartition || partition == kUnnamedPartition) {
    return InvalidArgumentError("cannot allocate chunks in this partition");
  }
  TDB_ASSIGN_OR_RETURN(LeaderEntry* entry, GetLeader(partition));
  uint64_t rank;
  if (!entry->avail_ranks.empty()) {
    rank = entry->avail_ranks.back();
    entry->avail_ranks.pop_back();
  } else {
    rank = entry->leader.num_positions++;
  }
  entry->allocated_ranks.insert(rank);
  return ChunkId(partition, 0, rank);
}

// ---------------------------------------------------------------------------
// Version building and the commit set

ChunkStore::BuiltVersion ChunkStore::BuildVersion(const BuildTask& task) {
  BuiltVersion built;
  built.desc.status = ChunkStatus::kWritten;
  {
    ProfileScope hash_scope("module.hashing");
    built.desc.hash = task.suite->Hash(task.plain);
  }
  Bytes body_ct;
  {
    ProfileScope encrypt_scope("module.encryption");
    body_ct = task.suite->Encrypt(task.plain);
  }
  VersionHeader header =
      VersionHeader::Named(task.id, static_cast<uint32_t>(body_ct.size()));
  Bytes header_ct;
  {
    ProfileScope encrypt_scope("module.encryption");
    header_ct = EncodeHeader(*system_suite_, header);
  }
  built.blob.reserve(header_ct.size() + body_ct.size());
  Append(built.blob, header_ct);
  Append(built.blob, body_ct);
  built.desc.stored_size = static_cast<uint32_t>(built.blob.size());
  return built;
}

Bytes ChunkStore::BuildUnnamed(UnnamedType type, ByteView plain) {
  Bytes body_ct = system_suite_->Encrypt(plain);
  VersionHeader header =
      VersionHeader::Unnamed(type, static_cast<uint32_t>(body_ct.size()));
  Bytes blob = EncodeHeader(*system_suite_, header);
  Append(blob, body_ct);
  return blob;
}

Result<std::vector<Descriptor>> ChunkStore::AppendVersions(
    const std::vector<BuildTask>& tasks, ByteView deallocate_record) {
  std::vector<LogManager::Blob> blobs;
  std::vector<Descriptor> descs;
  blobs.reserve(tasks.size() + 1);
  descs.reserve(tasks.size());
  for (const BuildTask& task : tasks) {
    BuiltVersion built = BuildVersion(task);
    blobs.push_back(LogManager::Blob{std::move(built.blob), true});
    descs.push_back(std::move(built.desc));
  }
  if (!deallocate_record.empty()) {
    blobs.push_back(LogManager::Blob{
        BuildUnnamed(UnnamedType::kDeallocate, deallocate_record), false});
  }
  TDB_ASSIGN_OR_RETURN(std::vector<Location> locations,
                       AppendToCommitSet(std::move(blobs)));
  for (size_t i = 0; i < descs.size(); ++i) {
    descs[i].location = locations[i];
  }
  return descs;
}

Status ChunkStore::AppendUnnamed(UnnamedType type, ByteView plain) {
  std::vector<LogManager::Blob> blobs;
  blobs.push_back(LogManager::Blob{BuildUnnamed(type, plain), false});
  return AppendToCommitSet(std::move(blobs)).status();
}

void ChunkStore::BeginCommitSet() {
  if (counter_) {
    set_hash_.emplace(system_suite_->hash_alg());
  }
}

Status ChunkStore::SealCommitSet(std::optional<uint64_t> count) {
  if (!counter_) {
    return OkStatus();
  }
  CommitRecord record;
  record.count = count.has_value() ? *count : counter_->NextCount();
  record.set_digest = set_hash_->Finish();
  set_hash_.reset();
  record.Sign(*system_suite_);
  return AppendUnnamed(UnnamedType::kCommit, record.Pickle());
}

Result<std::vector<Location>> ChunkStore::AppendToCommitSet(
    std::vector<LogManager::Blob> blobs) {
  auto on_append = [this](ByteView bytes, bool is_link) {
    ProfileScope hash_scope("module.hashing");
    if (direct_) {
      // A checkpoint restarts the stream at the leader chunk: recovery scans
      // from the leader's location, so a link emitted just before it (to
      // step to a fresh segment) is invisible to recovery and must stay out
      // of the new stream.
      if (direct_reset_pending_ && !is_link) {
        direct_->ResetStream();
        direct_reset_pending_ = false;
      }
      if (!direct_reset_pending_) {
        direct_->Absorb(bytes);
      }
    }
    if (set_hash_ && !is_link) {
      set_hash_->Update(bytes);
    }
    obs::Count("chunk.log_bytes_appended", bytes.size());
  };
  Result<std::vector<Location>> locations = log_.Append(blobs, on_append);
  if (!locations.ok()) {
    // The in-memory commit set is now inconsistent.
    return PoisonMidCommit(locations.status());
  }
  return locations;
}

void ChunkStore::Poison(Status cause) {
  if (!cause.ok() && !failed_) {
    poison_ = std::move(cause);
    failed_ = true;
  }
}

Status ChunkStore::PoisonMidCommit(Status cause) {
  Poison(FailedPreconditionError(
      "chunk store is poisoned by an earlier mid-commit failure (" +
      cause.ToString() + "); reopen to recover"));
  return cause;
}

Status ChunkStore::CheckUsable() const {
  return failed_ ? poison_ : OkStatus();
}

// ---------------------------------------------------------------------------
// Commit

Status ChunkStore::WriteChunk(ChunkId id, Bytes state) {
  Batch batch;
  batch.WriteChunk(id, std::move(state));
  return Commit(std::move(batch));
}

Status ChunkStore::DeallocateChunk(ChunkId id) {
  Batch batch;
  batch.DeallocateChunk(id);
  return Commit(std::move(batch));
}

Status ChunkStore::Commit(Batch batch) {
  std::lock_guard<std::mutex> lock(mu_);
  ProfileScope scope("module.chunk_store");
  TDB_RETURN_IF_ERROR(CommitLocked(batch));
  // The batch is durable, so the commit succeeded. A failure of the
  // maintenance below is not the batch's (a caller that retried would apply
  // it twice); it poisons the store for the next call instead.
  if (options_.auto_checkpoint && !in_checkpoint_) {
    Status maintenance = OkStatus();
    if (cache_.dirty_count() >= options_.checkpoint_dirty_threshold) {
      maintenance = CheckpointLocked();
    }
    // Reclaim space when free segments run low (§4.9.5: the cleaner "may be
    // invoked synchronously when space is low").
    if (maintenance.ok() && log_.free_segment_count() * kCleanLowWaterDivisor <
                                store_->num_segments()) {
      maintenance = CleanLocked(8).status();
    }
    Poison(std::move(maintenance));
  }
  return OkStatus();
}

Result<std::vector<PartitionId>> ChunkStore::PartitionClosure(PartitionId id) {
  std::vector<PartitionId> closure;
  std::vector<PartitionId> work{id};
  while (!work.empty()) {
    PartitionId p = work.back();
    work.pop_back();
    if (std::find(closure.begin(), closure.end(), p) != closure.end()) {
      continue;
    }
    closure.push_back(p);
    TDB_ASSIGN_OR_RETURN(LeaderEntry* entry, GetLeader(p));
    for (PartitionId copy : entry->leader.copies) {
      work.push_back(copy);
    }
  }
  return closure;
}

Status ChunkStore::CommitLocked(Batch& batch) {
  TDB_RETURN_IF_ERROR(CheckUsable());
  if (batch.empty()) {
    return OkStatus();
  }
  obs::LatencyTimer commit_timer("chunk.commit_us");

  // ---- plan: validate, and read what the batch supersedes (no mutation,
  // no log writes) ----
  TDB_ASSIGN_OR_RETURN(LeaderEntry* sys, GetLeader(kSystemPartition));
  bool has_restore = false;
  for (const Batch::PartitionOp& op : batch.partition_writes) {
    if (op.is_restore) {
      has_restore = true;
      if (op.id == kSystemPartition || op.id == kUnnamedPartition) {
        return InvalidArgumentError("cannot restore onto a reserved id");
      }
      Result<LeaderEntry*> existing = GetLeader(op.id);
      if (existing.ok() &&
          ((*existing)->leader.params.cipher != op.params.cipher ||
           (*existing)->leader.params.hash != op.params.hash ||
           (*existing)->leader.params.key != op.params.key)) {
        return InvalidArgumentError(
            "restore target partition exists with different parameters");
      }
      TDB_RETURN_IF_ERROR(CryptoSuite::Create(op.params).status());
      continue;
    }
    if (sys->allocated_ranks.count(op.id) == 0) {
      return NotFoundError("partition id " + std::to_string(op.id) +
                           " is not allocated");
    }
    if (op.is_copy) {
      if (op.source == kSystemPartition) {
        return InvalidArgumentError("cannot copy the system partition");
      }
      TDB_RETURN_IF_ERROR(GetLeader(op.source).status());
    } else {
      TDB_RETURN_IF_ERROR(CryptoSuite::Create(op.params).status());
    }
  }
  struct PlannedWrite {
    ChunkId id;
    const Bytes* plain;
    Descriptor old_desc;
    const CryptoSuite* suite;
  };
  // Suites for partitions that are restored and populated in one batch.
  std::vector<std::unique_ptr<CryptoSuite>> restore_suites;
  auto restore_op_for = [&batch](PartitionId pid) -> const Batch::PartitionOp* {
    for (const Batch::PartitionOp& op : batch.partition_writes) {
      if (op.id == pid && op.is_restore) {
        return &op;
      }
    }
    return nullptr;
  };
  std::vector<PlannedWrite> writes;
  writes.reserve(batch.chunk_writes.size());
  for (auto& write : batch.chunk_writes) {
    const ChunkId& id = write.id;
    if (id.position.height != 0 || id.partition == kSystemPartition ||
        id.partition == kUnnamedPartition) {
      return InvalidArgumentError("not a writable data chunk id: " +
                                  id.ToString());
    }
    has_restore = has_restore || write.is_restore;
    Result<LeaderEntry*> entry = GetLeader(id.partition);
    const CryptoSuite* suite = nullptr;
    Descriptor old_desc;
    if (entry.ok()) {
      suite = &(*entry)->suite;
      TDB_ASSIGN_OR_RETURN(old_desc, GetDescriptor(id));
      bool allocated = (*entry)->allocated_ranks.count(id.position.rank) > 0;
      if (!old_desc.written() && !allocated && !write.is_restore) {
        return NotFoundError("chunk " + id.ToString() + " is not allocated");
      }
    } else if (write.is_restore) {
      const Batch::PartitionOp* op = restore_op_for(id.partition);
      if (op == nullptr) {
        return entry.status();
      }
      TDB_ASSIGN_OR_RETURN(CryptoSuite tmp, CryptoSuite::Create(op->params));
      restore_suites.push_back(std::make_unique<CryptoSuite>(std::move(tmp)));
      suite = restore_suites.back().get();
    } else {
      return entry.status();
    }
    writes.push_back(PlannedWrite{id, &write.state, old_desc, suite});
  }
  std::vector<std::pair<ChunkId, Descriptor>> deallocs;
  DeallocateRecord dealloc_record;
  for (const ChunkId& id : batch.chunk_deallocs) {
    if (id.position.height != 0 || id.partition == kSystemPartition) {
      return InvalidArgumentError("not a deallocatable chunk id: " +
                                  id.ToString());
    }
    TDB_RETURN_IF_ERROR(GetLeader(id.partition).status());
    TDB_ASSIGN_OR_RETURN(Descriptor old_desc, GetDescriptor(id));
    if (!old_desc.written()) {
      return NotFoundError("chunk " + id.ToString() + " is not written");
    }
    deallocs.emplace_back(id, old_desc);
    dealloc_record.chunks.push_back(id);
  }
  for (PartitionId pid : batch.partition_deallocs) {
    if (pid == kSystemPartition) {
      return InvalidArgumentError("cannot deallocate the system partition");
    }
    TDB_ASSIGN_OR_RETURN(std::vector<PartitionId> closure,
                         PartitionClosure(pid));
    for (PartitionId p : closure) {
      if (std::find(dealloc_record.partitions.begin(),
                    dealloc_record.partitions.end(),
                    p) == dealloc_record.partitions.end()) {
        dealloc_record.partitions.push_back(p);
      }
    }
  }
  TDB_ASSIGN_OR_RETURN(auto partition_deallocs,
                       PlanPartitionDeallocs(dealloc_record.partitions));

  // ---- build & append ----
  BeginCommitSet();
  // Copies first: a copy shares the source's position map, so the source's
  // buffered descriptors must be materialized into map chunks first (the
  // copied leader can only reference persisted state).
  for (const Batch::PartitionOp& op : batch.partition_writes) {
    if (op.is_copy) {
      TDB_RETURN_IF_ERROR(MaterializeTree(op.source));
    }
  }

  // Partition leader versions (creations and copies, plus rewritten source
  // leaders so the copy lists and materialized roots are durable). A leader
  // that is not loaded yet gets its suite now, so that apply cannot fail.
  struct PlannedLeaderWrite {
    PartitionId id;
    PartitionLeader leader;
    Descriptor old_desc;
    std::optional<CryptoSuite> suite;
  };
  std::vector<PlannedLeaderWrite> leader_writes;
  for (const Batch::PartitionOp& op : batch.partition_writes) {
    PlannedLeaderWrite lw;
    lw.id = op.id;
    TDB_ASSIGN_OR_RETURN(lw.old_desc, GetDescriptor(LeaderChunkId(op.id)));
    // Only a restore can target a written partition; validation loaded it.
    auto existing = leaders_.find(op.id);
    if (existing != leaders_.end()) {
      // Same parameters (validated above): rewrite the current leader so
      // the restore commit is self-contained in the log.
      lw.leader = existing->second.leader;
      lw.leader.free_ranks = existing->second.avail_ranks;
    } else if (op.is_copy) {
      TDB_ASSIGN_OR_RETURN(LeaderEntry* src, GetLeader(op.source));
      lw.leader = src->Persisted();
      lw.leader.copies.clear();
      lw.leader.copied_from = op.source;
      // The source records its new copy and is rewritten too.
      src->leader.copies.push_back(op.id);
      PlannedLeaderWrite src_lw;
      src_lw.id = op.source;
      TDB_ASSIGN_OR_RETURN(src_lw.old_desc,
                           GetDescriptor(LeaderChunkId(op.source)));
      src_lw.leader = src->Persisted();
      leader_writes.push_back(std::move(src_lw));
    } else {
      lw.leader.params = op.params;
    }
    if (existing == leaders_.end()) {
      TDB_ASSIGN_OR_RETURN(CryptoSuite suite,
                           CryptoSuite::Create(lw.leader.params));
      lw.suite.emplace(std::move(suite));
    }
    leader_writes.push_back(std::move(lw));
  }

  // Build the batch's versions, leaders first, and append them in order.
  std::vector<Bytes> leader_plains;
  leader_plains.reserve(leader_writes.size());
  std::vector<BuildTask> tasks;
  tasks.reserve(leader_writes.size() + writes.size());
  for (const PlannedLeaderWrite& lw : leader_writes) {
    leader_plains.push_back(lw.leader.PickleToBytes());
    tasks.push_back(BuildTask{LeaderChunkId(lw.id), leader_plains.back(),
                              system_suite_.get()});
  }
  uint64_t batch_plain_bytes = 0;
  for (const PlannedWrite& w : writes) {
    tasks.push_back(BuildTask{w.id, *w.plain, w.suite});
    batch_plain_bytes += w.plain->size();
  }
  Bytes dealloc_plain;
  if (!deallocs.empty() || !partition_deallocs.empty()) {
    dealloc_plain = dealloc_record.Pickle();
  }
  TDB_ASSIGN_OR_RETURN(std::vector<Descriptor> descs,
                       AppendVersions(tasks, dealloc_plain));
  TDB_RETURN_IF_ERROR(SealCommitSet());

  // ---- apply ----
  for (size_t i = 0; i < leader_writes.size(); ++i) {
    PlannedLeaderWrite& lw = leader_writes[i];
    ApplyDescriptor(LeaderChunkId(lw.id), descs[i], lw.old_desc);
    // The in-memory leader install stays per caller: commit keeps the
    // allocated-but-unwritten ranks, which the log does not carry, while
    // replay takes the free ranks from the log (§4.4).
    auto it = leaders_.find(lw.id);
    if (it != leaders_.end()) {
      it->second.leader = std::move(lw.leader);
      it->second.dirty = false;
    } else {
      leaders_.emplace(lw.id,
                       LeaderEntry(std::move(lw.leader), std::move(*lw.suite)));
    }
  }
  // Leaders are applied first, so restored partitions resolve now.
  for (size_t i = 0; i < writes.size(); ++i) {
    ApplyDescriptor(writes[i].id, descs[leader_writes.size() + i],
                    writes[i].old_desc);
  }
  for (const auto& [id, old_desc] : deallocs) {
    ApplyDescriptor(id, FreeDescriptor(), old_desc);
  }
  ApplyPartitionDeallocs(partition_deallocs);
  // Restores may rewrite arbitrary positions (and partition parameters), so
  // invalidate the validated cache wholesale rather than auditing the set.
  if (has_restore) {
    read_gen_.fetch_add(1, std::memory_order_acq_rel);
  }

  TDB_RETURN_IF_ERROR(FinishCommitSet());
  obs::Count("chunk.commits");
  obs::Count("chunk.chunks_written", writes.size());
  obs::Count("chunk.bytes_committed", batch_plain_bytes);
  obs::TraceEmit(obs::TraceKind::kCommit, "chunk_store", writes.size(),
                 batch_plain_bytes);
  return OkStatus();
}

Status ChunkStore::FinishCommitSet() {
  Status s = OkStatus();
  if (direct_ || options_.validation.flush_every_commit) {
    ProfileScope scope("module.untrusted_store_write");
    s = log_.FlushStore();
  }
  if (s.ok()) {
    ProfileScope scope("module.tamper_resistant_store");
    s = direct_ ? direct_->WriteRegister(last_leader_loc_, log_.tail())
                : counter_->MaybeFlush(/*force=*/false);
  }
  // The commit set is applied but may not be durable. Reopen decides; a
  // retry on this store would apply it twice.
  return s.ok() ? s : PoisonMidCommit(std::move(s));
}

// ---------------------------------------------------------------------------
// Apply

void ChunkStore::ApplyDescriptor(const ChunkId& id, const Descriptor& desc,
                                 const Descriptor& old) {
  if (old.written()) {
    log_.ReleaseLive(old.location, old.stored_size);
  }
  cache_.PutDirty(id, desc);
  vcache_.Erase(id);
  if (id.position.height != 0) {
    return;  // map chunks hold no rank
  }
  LeaderEntry& entry = leaders_.at(id.partition);
  const uint64_t rank = id.position.rank;
  if (!desc.written()) {
    entry.avail_ranks.push_back(rank);
  } else if (!old.written()) {
    if (entry.allocated_ranks.erase(rank) == 0) {
      std::erase(entry.avail_ranks, rank);
    }
    entry.leader.num_positions = std::max(entry.leader.num_positions, rank + 1);
  }
}

Result<std::vector<std::pair<PartitionId, Descriptor>>>
ChunkStore::PlanPartitionDeallocs(const std::vector<PartitionId>& closure) {
  std::vector<std::pair<PartitionId, Descriptor>> plan;
  for (PartitionId pid : closure) {
    TDB_ASSIGN_OR_RETURN(LeaderEntry* dead, GetLeader(pid));
    if (dead->leader.copied_from != kSystemPartition) {
      TDB_RETURN_IF_ERROR(GetLeader(dead->leader.copied_from).status());
    }
    TDB_ASSIGN_OR_RETURN(Descriptor old, GetDescriptor(LeaderChunkId(pid)));
    plan.emplace_back(pid, std::move(old));
  }
  return plan;
}

void ChunkStore::ApplyPartitionDeallocs(
    const std::vector<std::pair<PartitionId, Descriptor>>& closure) {
  for (const auto& [pid, old] : closure) {
    // Detach the partition from its source's copies list. The cleaner (and
    // dealloc validation) walk source→copies to gather every owner of a
    // chunk version; a dangling entry makes that closure fail, and the
    // cleaner then judges every version of the *surviving* source dead.
    PartitionId src = leaders_.at(pid).leader.copied_from;
    if (src != kSystemPartition &&
        std::none_of(closure.begin(), closure.end(),
                     [src](const auto& d) { return d.first == src; })) {
      LeaderEntry& source = leaders_.at(src);
      std::erase(source.leader.copies, pid);
      source.dirty = true;  // persisted by the next checkpoint
    }
    ApplyDescriptor(LeaderChunkId(pid), FreeDescriptor(), old);
    cache_.DropPartition(pid);
    vcache_.ErasePartition(pid);
    leaders_.erase(pid);
  }
}

void ChunkStore::ApplyMove(ChunkPosition position,
                           const std::vector<PartitionId>& current_in,
                           const Descriptor& desc, const Descriptor& old) {
  if (old.written()) {
    log_.ReleaseLive(old.location, old.stored_size);
  }
  for (PartitionId q : current_in) {
    cache_.PutDirty(ChunkId(q, position), desc);
    vcache_.Erase(ChunkId(q, position));
  }
}

// ---------------------------------------------------------------------------
// Materialization & checkpoint

Status ChunkStore::MaterializeTree(PartitionId partition) {
  TDB_ASSIGN_OR_RETURN(LeaderEntry* entry, GetLeader(partition));
  PartitionLeader& leader = entry->leader;

  std::vector<std::pair<ChunkId, Descriptor>> pending =
      cache_.DirtyEntries(partition, 0);
  uint8_t target_height = PartitionLeader::HeightFor(leader.num_positions);
  uint8_t old_height = leader.tree_height;
  uint8_t top = std::max<uint8_t>(target_height, old_height);
  // The cleaner moves map chunks too, leaving dirty descriptors above height
  // 0. Their parents must be rewritten like those of dirty data chunks;
  // otherwise the persisted tree keeps pointing into the cleaned segment,
  // which is reused after this checkpoint.
  std::vector<std::vector<std::pair<ChunkId, Descriptor>>> moved(top + 1);
  size_t moved_left = 0;
  for (uint8_t h = 1; h <= top; ++h) {
    moved[h] = cache_.DirtyEntries(partition, h);
    moved_left += moved[h].size();
  }
  if (pending.empty() && moved_left == 0 && old_height == target_height) {
    return OkStatus();
  }
  std::vector<ChunkId> to_mark_clean;
  to_mark_clean.reserve(pending.size() + moved_left);
  for (const auto& [id, _] : pending) {
    to_mark_clean.push_back(id);
  }
  if (top == 0) {
    return OkStatus();  // empty partition, nothing to persist
  }
  // Adds the moved map chunks of height `h` that no rewrite superseded to
  // the children pending for the next level up.
  auto add_moved = [&](uint8_t h) {
    for (const auto& [id, desc] : moved[h]) {
      bool rewritten = std::any_of(
          pending.begin(), pending.end(),
          [&id](const auto& p) { return p.first == id; });
      if (!rewritten) {
        pending.emplace_back(id, desc);
        to_mark_clean.push_back(id);
      }
    }
    moved_left -= moved[h].size();
  };

  for (uint8_t h = 1; h <= top; ++h) {
    if (h >= 2) {
      add_moved(h - 1);
    }
    // Splice the old root into its new parent when the tree grows.
    if (old_height >= 1 && h == old_height + 1 && leader.root.written()) {
      bool overridden = false;
      for (const auto& [id, _] : pending) {
        if (id.position.rank == 0) {
          overridden = true;
          break;
        }
      }
      if (!overridden) {
        pending.emplace_back(ChunkId(partition, old_height, 0), leader.root);
      }
    }
    if (pending.empty()) {
      if (moved_left == 0) {
        break;
      }
      continue;
    }
    // Group pending child descriptors by parent map chunk rank.
    std::map<uint64_t, std::vector<std::pair<ChunkId, Descriptor>>> by_parent;
    for (auto& p : pending) {
      by_parent[p.first.position.rank / kMapFanout].push_back(std::move(p));
    }
    pending.clear();
    // Serial pass: read/merge existing map chunks and pickle the updated
    // ones. Levels stay sequential (parents hash children), but within a
    // level every map chunk builds independently.
    std::vector<ChunkId> map_ids;
    std::vector<Descriptor> old_descs;
    std::vector<Bytes> map_plains;
    map_ids.reserve(by_parent.size());
    old_descs.reserve(by_parent.size());
    map_plains.reserve(by_parent.size());
    for (auto& [parent_rank, children] : by_parent) {
      ChunkId map_id(partition, h, parent_rank);
      MapChunk map;
      Descriptor existing;
      if (h <= old_height) {
        TDB_ASSIGN_OR_RETURN(existing, GetDescriptor(map_id));
        if (existing.written()) {
          TDB_ASSIGN_OR_RETURN(Bytes content,
                               ReadVersion(map_id, existing, entry->suite));
          TDB_ASSIGN_OR_RETURN(map, MapChunk::Unpickle(content));
        }
      }
      for (const auto& [child_id, child_desc] : children) {
        map.slots[child_id.position.SlotInParent()] = child_desc;
      }
      map_ids.push_back(map_id);
      old_descs.push_back(std::move(existing));
      map_plains.push_back(map.Pickle());
    }
    std::vector<BuildTask> tasks;
    tasks.reserve(map_ids.size());
    for (size_t i = 0; i < map_ids.size(); ++i) {
      tasks.push_back(BuildTask{map_ids[i], map_plains[i], &entry->suite});
    }
    TDB_ASSIGN_OR_RETURN(std::vector<Descriptor> descs, AppendVersions(tasks));
    for (size_t i = 0; i < map_ids.size(); ++i) {
      ApplyDescriptor(map_ids[i], descs[i], old_descs[i]);
      to_mark_clean.push_back(map_ids[i]);
      pending.emplace_back(map_ids[i], std::move(descs[i]));
    }
  }

  add_moved(top);
  if (pending.size() == 1) {
    leader.root = pending[0].second;
    leader.tree_height = top;
    entry->dirty = true;
  } else if (!pending.empty()) {
    Status s =
        CorruptionError("map materialization did not converge to a root");
    Poison(s);
    return s;
  }
  for (const ChunkId& id : to_mark_clean) {
    cache_.MarkClean(id);
  }
  return OkStatus();
}

Status ChunkStore::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  ProfileScope scope("module.chunk_store");
  return CheckpointLocked();
}

Status ChunkStore::CheckpointLocked() {
  TDB_RETURN_IF_ERROR(CheckUsable());
  // Every descriptor update and every cleaner move appends to the log, so
  // an unmoved tail means the last checkpoint already holds this state. A
  // leader carries the whole segment table and may need a segment of its
  // own: writing one anyway would use space that no cleaning gets back.
  if (checkpoint_tail_ == log_.tail() && !log_.HasCleaned()) {
    return OkStatus();
  }
  obs::LatencyTimer checkpoint_timer("chunk.checkpoint_us");
  const uint64_t dirty_at_entry = cache_.dirty_count();
  in_checkpoint_ = true;

  // 1. Materialize every user partition with buffered descriptors.
  for (PartitionId p : cache_.DirtyPartitions()) {
    if (p != kSystemPartition) {
      TDB_RETURN_IF_ERROR(MaterializeTree(p));
    }
  }

  // 2. Write dirty partition leaders as system data chunks, in leader-id
  // order.
  std::vector<ChunkId> leader_ids;
  std::vector<Descriptor> old_descs;
  std::vector<Bytes> leader_plains;
  for (auto& [pid, entry] : leaders_) {
    if (pid == kSystemPartition || !entry.dirty) {
      continue;
    }
    leader_ids.push_back(LeaderChunkId(pid));
    TDB_ASSIGN_OR_RETURN(Descriptor old_desc, GetDescriptor(leader_ids.back()));
    old_descs.push_back(std::move(old_desc));
    leader_plains.push_back(entry.Persisted().PickleToBytes());
    entry.dirty = false;
  }
  std::vector<BuildTask> tasks;
  tasks.reserve(leader_ids.size());
  for (size_t i = 0; i < leader_ids.size(); ++i) {
    tasks.push_back(
        BuildTask{leader_ids[i], leader_plains[i], system_suite_.get()});
  }
  TDB_ASSIGN_OR_RETURN(std::vector<Descriptor> descs, AppendVersions(tasks));
  for (size_t i = 0; i < leader_ids.size(); ++i) {
    ApplyDescriptor(leader_ids[i], descs[i], old_descs[i]);
  }

  // 3. Materialize the system tree (partition map).
  TDB_RETURN_IF_ERROR(MaterializeTree(kSystemPartition));

  // 4. Build and append the system leader (the head of the new residual log).
  TDB_ASSIGN_OR_RETURN(LeaderEntry* sys, GetLeader(kSystemPartition));
  SystemLeaderRecord record;
  record.system_tree = sys->Persisted();
  if (counter_) {
    record.commit_count = counter_->NextCount();
  }
  // Release the previous leader version's bytes.
  if (last_leader_size_ > 0) {
    log_.ReleaseLive(last_leader_loc_, last_leader_size_);
  }
  record.segments = log_.SegmentTableSnapshot();

  if (direct_) {
    // Deferred: the reset takes effect at the leader append below, so that a
    // segment link emitted ahead of the leader lands in the old stream.
    direct_reset_pending_ = true;
  }
  // "A checkpoint is followed by a commit chunk containing the hash of the
  // leader chunk, as if the leader were the only chunk in the commit set."
  BeginCommitSet();
  Bytes record_plain = record.Pickle();
  TDB_ASSIGN_OR_RETURN(
      std::vector<Descriptor> leader,
      AppendVersions({BuildTask{SystemLeaderId(), record_plain,
                                system_suite_.get()}}));
  TDB_RETURN_IF_ERROR(SealCommitSet(record.commit_count));
  const Location leader_loc = leader[0].location;
  const uint32_t leader_size = leader[0].stored_size;

  // 5./6. Durability ordering differs by mode.
  //
  // Direct mode: flush -> register (which carries the new head) -> super-
  // block; the register write is the commit point and recovery uses its
  // head, so a crash anywhere leaves a consistent triple.
  //
  // Counter mode: flush -> superblock -> counter. The superblock write marks
  // checkpoint completion (§4.9.2). If it were written *after* the counter
  // advanced, a crash in between would leave recovery scanning from the old
  // leader while the trusted counter already counts the checkpoint's commit
  // chunk — a false tamper positive. With this order, a crash between
  // superblock and counter leaves the log at most one commit ahead, inside
  // the accepted window, and recovery resynchronizes the counter.
  {
    ProfileScope io_scope("module.untrusted_store_write");
    TDB_RETURN_IF_ERROR(log_.FlushStore());
  }
  if (direct_) {
    {
      ProfileScope trs_scope("module.tamper_resistant_store");
      TDB_RETURN_IF_ERROR(direct_->WriteRegister(leader_loc, log_.tail()));
    }
    TDB_RETURN_IF_ERROR(WriteSuperblock(leader_loc, leader_size));
  } else {
    TDB_RETURN_IF_ERROR(WriteSuperblock(leader_loc, leader_size));
    ProfileScope trs_scope("module.tamper_resistant_store");
    TDB_RETURN_IF_ERROR(counter_->MaybeFlush(/*force=*/true));
  }

  last_leader_loc_ = leader_loc;
  last_leader_size_ = leader_size;
  checkpoint_tail_ = log_.tail();
  log_.OnCheckpointComplete(leader_loc);
  obs::Count("chunk.checkpoints");
  obs::TraceEmit(obs::TraceKind::kCheckpoint, "chunk_store", dirty_at_entry,
                 leader_loc.segment);
  in_checkpoint_ = false;
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Recovery

Status ChunkStore::RecoverLocked() {
  // Replay may change any chunk; drop all validated-cache claims (the store
  // is freshly opened so the cache is empty today — this guards refactors).
  read_gen_.fetch_add(1, std::memory_order_acq_rel);
  // Locate the head (leader) of the residual log.
  Location head;
  std::optional<DirectHashValidator::RegisterState> reg_state;
  if (direct_) {
    TDB_ASSIGN_OR_RETURN(reg_state, direct_->ReadRegister());
    head = reg_state->head;
  } else {
    TDB_ASSIGN_OR_RETURN(auto super, ReadSuperblock());
    head = super.first;
  }

  // Bootstrap: read and parse the leader version. A head location that falls
  // outside the store, or a leader that does not fit in its segment, can
  // only come from a forged superblock/register — treat reads that miss the
  // device as tampering, not I/O misuse.
  size_t header_size = HeaderCipherSize(*system_suite_);
  if (head.segment >= store_->num_segments() ||
      static_cast<size_t>(head.offset) + header_size > store_->segment_size()) {
    return TamperDetectedError("stored head location is outside the store");
  }
  TDB_ASSIGN_OR_RETURN(Bytes header_ct,
                       store_->Read(head.segment, head.offset, header_size));
  Result<VersionHeader> header = DecodeHeader(*system_suite_, header_ct);
  if (!header.ok() || header->unnamed ||
      header->id.position.height != kLeaderHeight) {
    return TamperDetectedError("no leader chunk at the stored head location");
  }
  if (static_cast<size_t>(head.offset) + header_size + header->body_size >
      store_->segment_size()) {
    return TamperDetectedError("leader chunk extends past its segment");
  }
  TDB_ASSIGN_OR_RETURN(
      Bytes body_ct,
      store_->Read(head.segment, head.offset + static_cast<uint32_t>(header_size),
                   header->body_size));
  Result<Bytes> leader_plain = system_suite_->Decrypt(body_ct);
  if (!leader_plain.ok()) {
    return TamperDetectedError("leader chunk fails to decrypt");
  }
  Result<SystemLeaderRecord> record = SystemLeaderRecord::Unpickle(*leader_plain);
  if (!record.ok()) {
    return TamperDetectedError("leader chunk fails to parse");
  }
  uint32_t leader_size =
      static_cast<uint32_t>(header_size) + header->body_size;

  obs::Count("recovery.runs");
  obs::TraceEmit(obs::TraceKind::kRecoveryStep, "recovery", head.segment,
                 head.offset, "head leader located and parsed");

  leaders_.clear();
  leaders_.emplace(kSystemPartition,
                   LeaderEntry(record->system_tree, *system_suite_));
  TDB_RETURN_IF_ERROR(
      log_.LoadFromCheckpoint(record->segments, head, leader_size));
  last_leader_loc_ = head;
  last_leader_size_ = leader_size;
  if (counter_) {
    TDB_RETURN_IF_ERROR(counter_->Init(record->commit_count));
  }

  // Roll forward through the residual log. Only the leader and confirmed
  // records mark segments as scanned and form the residual chain: records
  // reached past the last confirmed commit may be stale bytes from a reused
  // segment's earlier life, and change nothing.
  LogManager::Scanner scanner = log_.MakeScanner(head);
  StreamingHash accum(system_suite_->hash_alg());
  std::vector<LogManager::Scanned> pending;    // current (unconfirmed) set
  std::vector<LogManager::Scanned> confirmed;  // validated, to apply
  std::vector<Location> pending_ends;          // links included
  Location tail = Location{head.segment, head.offset + leader_size};
  size_t chain_length = 1;
  auto confirm = [&] {
    for (const Location& end : pending_ends) {
      log_.NoteScanned(end.segment, end.offset);
    }
    pending_ends.clear();
    std::move(pending.begin(), pending.end(), std::back_inserter(confirmed));
    pending.clear();
    tail = scanner.position();
    chain_length = scanner.visited_segments().size();
  };
  uint64_t expected_count = record->commit_count;
  uint64_t last_valid_count = record->commit_count;
  bool first = true;
  bool hit_register_tail = false;

  while (true) {
    if (direct_ && scanner.position() == reg_state->tail) {
      hit_register_tail = true;
      break;
    }
    TDB_ASSIGN_OR_RETURN(std::optional<LogManager::Scanned> item,
                         scanner.Next());
    if (!item.has_value()) {
      break;
    }
    pending_ends.push_back(item->end);
    const VersionHeader& header = item->header;
    if (first) {
      // The leader itself: absorbed into the hash, not applied.
      first = false;
      if (direct_) {
        direct_->Absorb(item->raw);
      } else {
        accum.Update(item->raw);
      }
      confirm();
    } else if (direct_) {
      // The register's tail and digest, checked below, confirm it.
      direct_->Absorb(item->raw);
      pending.push_back(std::move(*item));
      confirm();
    } else if (header.unnamed && header.type == UnnamedType::kCommit) {
      // Verify the commit set that just ended.
      Bytes expected_digest = StreamingHash(accum).Finish();
      Result<Bytes> plain = system_suite_->Decrypt(item->body_ct);
      if (!plain.ok()) {
        break;
      }
      Result<CommitRecord> commit = CommitRecord::Unpickle(*plain);
      if (!commit.ok() || !commit->VerifySignature(*system_suite_) ||
          commit->count != expected_count ||
          !ConstantTimeEqual(commit->set_digest, expected_digest)) {
        break;  // torn tail (or tampering caught by the counter window)
      }
      last_valid_count = commit->count;
      ++expected_count;
      accum = StreamingHash(system_suite_->hash_alg());
      confirm();
    } else if (header.unnamed && header.type == UnnamedType::kNextSegment) {
      // Link chunks carry no state and are excluded from commit-set
      // digests (they may be inserted after a digest was computed).
    } else {
      accum.Update(item->raw);
      pending.push_back(std::move(*item));
    }
  }

  obs::Count("recovery.records_confirmed", confirmed.size());
  obs::Count("recovery.records_pending_discarded", pending.size());
  obs::TraceEmit(obs::TraceKind::kRecoveryStep, "recovery", confirmed.size(),
                 pending.size(), "residual log scanned");

  if (direct_) {
    if (!hit_register_tail && !(reg_state->tail == tail)) {
      return TamperDetectedError(
          "residual log ends before the trusted tail: the log was truncated");
    }
    if (!ConstantTimeEqual(direct_->CurrentDigest(), reg_state->digest)) {
      return TamperDetectedError(
          "residual log hash does not match the tamper-resistant store");
    }
  } else {
    TDB_RETURN_IF_ERROR(counter_->RecoveryCheck(
        last_valid_count, options_.validation.delta_tu));
  }

  // Redo the confirmed history in log order, after collecting the cleaner
  // moves: a version the cleaner moved is current only where its record says.
  std::map<uint64_t, CleanerEntry> moves;
  for (const LogManager::Scanned& item : confirmed) {
    if (item.header.unnamed && item.header.type == UnnamedType::kCleaner) {
      TDB_ASSIGN_OR_RETURN(Bytes plain, system_suite_->Decrypt(item.body_ct));
      TDB_ASSIGN_OR_RETURN(CleanerRecord rec, CleanerRecord::Unpickle(plain));
      for (CleanerEntry& e : rec.entries) {
        moves[e.new_location.Pack()] = std::move(e);
      }
    }
  }
  for (const LogManager::Scanned& item : confirmed) {
    TDB_RETURN_IF_ERROR(ReplayRecord(item, moves));
  }

  log_.SetTailForRecovery(tail);
  std::vector<uint32_t> chain = scanner.visited_segments();
  chain.resize(chain_length);
  log_.SetResidualChain(std::move(chain));
  obs::TraceEmit(obs::TraceKind::kRecoveryStep, "recovery", tail.segment,
                 tail.offset, "confirmed history applied");
  return OkStatus();
}

Status ChunkStore::ReplayRecord(const LogManager::Scanned& scanned,
                                const std::map<uint64_t, CleanerEntry>& moves) {
  const VersionHeader& header = scanned.header;
  if (header.unnamed) {
    // Commit, next-segment, and cleaner records carry no further state.
    if (header.type != UnnamedType::kDeallocate) {
      return OkStatus();
    }
    TDB_ASSIGN_OR_RETURN(Bytes plain, system_suite_->Decrypt(scanned.body_ct));
    TDB_ASSIGN_OR_RETURN(DeallocateRecord rec,
                         DeallocateRecord::Unpickle(plain));
    for (const ChunkId& id : rec.chunks) {
      if (!GetLeader(id.partition).ok()) {
        continue;  // partition deallocated later in the log
      }
      TDB_ASSIGN_OR_RETURN(Descriptor old, GetDescriptor(id));
      ApplyDescriptor(id, FreeDescriptor(), old);
    }
    TDB_ASSIGN_OR_RETURN(auto closure, PlanPartitionDeallocs(rec.partitions));
    ApplyPartitionDeallocs(closure);
    return OkStatus();
  }
  if (header.id.position.height == kLeaderHeight) {
    return OkStatus();  // an abandoned checkpoint's leader: ignore
  }

  // Decodes the version under its partition's suite.
  Bytes plain;
  auto decode = [&](const CryptoSuite& suite) -> Result<Descriptor> {
    Result<Bytes> decrypted = suite.Decrypt(scanned.body_ct);
    if (!decrypted.ok()) {
      return TamperDetectedError("recovered chunk fails to decrypt: " +
                                 header.id.ToString());
    }
    plain = std::move(*decrypted);
    Descriptor desc;
    desc.status = ChunkStatus::kWritten;
    desc.location = scanned.location;
    desc.stored_size = static_cast<uint32_t>(scanned.raw.size());
    desc.hash = suite.Hash(plain);
    return desc;
  };
  auto move = moves.find(scanned.location.Pack());
  const ChunkId& id = header.id;
  if (move != moves.end()) {
    // A cleaner-moved version: current in the listed partitions only.
    const std::vector<PartitionId>& current_in = move->second.current_in;
    if (current_in.empty()) {
      return OkStatus();
    }
    TDB_ASSIGN_OR_RETURN(LeaderEntry* owner, GetLeader(current_in[0]));
    TDB_ASSIGN_OR_RETURN(Descriptor desc, decode(owner->suite));
    TDB_ASSIGN_OR_RETURN(Descriptor old,
                         GetDescriptor(ChunkId(current_in[0], id.position)));
    ApplyMove(id.position, current_in, desc, old);
  } else if (id.partition == kSystemPartition && id.position.height == 0) {
    // A partition leader version.
    TDB_ASSIGN_OR_RETURN(Descriptor desc, decode(*system_suite_));
    TDB_ASSIGN_OR_RETURN(PartitionLeader leader,
                         PartitionLeader::UnpickleFromBytes(plain));
    TDB_ASSIGN_OR_RETURN(CryptoSuite suite, CryptoSuite::Create(leader.params));
    TDB_ASSIGN_OR_RETURN(Descriptor old, GetDescriptor(id));
    ApplyDescriptor(id, desc, old);
    // Replay takes the free ranks from the log (see CommitLocked).
    auto [it, inserted] = leaders_.try_emplace(
        static_cast<PartitionId>(id.position.rank), leader, std::move(suite));
    if (!inserted) {
      it->second.leader = std::move(leader);
      it->second.avail_ranks = it->second.leader.free_ranks;
      it->second.allocated_ranks.clear();
    }
    it->second.dirty = true;
  } else {
    // Ordinary named version: redo the descriptor update.
    Result<LeaderEntry*> entry = GetLeader(id.partition);
    if (!entry.ok()) {
      // The partition is unknown (deallocated later in the log, perhaps);
      // leave the version to the cleaner.
      return OkStatus();
    }
    TDB_ASSIGN_OR_RETURN(Descriptor desc, decode((*entry)->suite));
    TDB_ASSIGN_OR_RETURN(Descriptor old, GetDescriptor(id));
    ApplyDescriptor(id, desc, old);
  }
  log_.AddLive(scanned.location, static_cast<uint32_t>(scanned.raw.size()));
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Stats

Result<std::pair<Location, uint32_t>> ChunkStore::DebugChunkLocation(
    ChunkId id) {
  std::lock_guard<std::mutex> lock(mu_);
  TDB_ASSIGN_OR_RETURN(Descriptor desc, GetDescriptor(id));
  if (!desc.written()) {
    return NotFoundError("chunk " + id.ToString() + " is not written");
  }
  return std::make_pair(desc.location, desc.stored_size);
}

ChunkStore::Stats ChunkStore::GetStats() {
  Stats s;
  std::lock_guard<std::mutex> lock(mu_);
  s.cache_size = cache_.size();
  s.dirty_descriptors = cache_.dirty_count();
  s.free_segments = log_.free_segment_count();
  s.live_log_bytes = log_.total_live_bytes();
  s.used_log_bytes = log_.total_used_bytes();
  // Publish the point-in-time fields as registry gauges so one snapshot
  // carries both the registry counters and the store's current shape.
  obs::SetGauge("chunk.cache_size", static_cast<double>(s.cache_size));
  obs::SetGauge("chunk.dirty_descriptors",
                static_cast<double>(s.dirty_descriptors));
  obs::SetGauge("chunk.free_segments", static_cast<double>(s.free_segments));
  obs::SetGauge("chunk.live_log_bytes",
                static_cast<double>(s.live_log_bytes));
  obs::SetGauge("chunk.used_log_bytes",
                static_cast<double>(s.used_log_bytes));
  obs::SetGauge("chunk.vcache_size", static_cast<double>(vcache_.size()));
  return s;
}

}  // namespace tdb
