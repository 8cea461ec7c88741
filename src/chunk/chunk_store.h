// The chunk store: TDB's trusted storage layer (§4, §5).
//
// Provides named, variable-sized chunks grouped into partitions with
// per-partition cryptographic parameters; atomic multi-chunk commits;
// copy-on-write partition copies (snapshots) and diffs; tamper detection
// rooted in a tamper-resistant register or monotonic counter; checkpointed,
// log-structured storage with roll-forward crash recovery and cleaning.
//
// Mutating operations are serialized by an internal mutex (§4.2:
// serializability via mutual exclusion, geared to low concurrency). Reads of
// recently validated chunks are served from a sharded validated-chunk cache
// without that mutex: entries are decrypted, hash-verified plaintexts,
// invalidated precisely when a commit overwrites or deallocates them and
// coarsely (via a generation counter) on clean/restore/recovery.

#ifndef SRC_CHUNK_CHUNK_STORE_H_
#define SRC_CHUNK_CHUNK_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "src/chunk/chunk_map.h"
#include "src/chunk/log_manager.h"
#include "src/chunk/validator.h"
#include "src/common/bytes.h"
#include "src/common/sharded_cache.h"
#include "src/common/status.h"
#include "src/crypto/suite.h"
#include "src/platform/trusted_store.h"
#include "src/store/untrusted_store.h"

namespace tdb {

// The trusted stores the chunk store is built on (§2.1). `register_store`
// is needed for direct-hash validation, `counter` for counter-based
// validation; `secret` always.
struct TrustedServices {
  SecretStore* secret = nullptr;
  TamperResistantRegister* register_store = nullptr;
  MonotonicCounter* counter = nullptr;
};

struct ChunkStoreOptions {
  ValidationConfig validation;

  // System-partition cipher and hash ("a fixed cipher and hash function that
  // are considered secure", §5.2). The key comes from the secret store.
  CipherAlg system_cipher = CipherAlg::kAes128;
  HashAlg system_hash = HashAlg::kSha256;

  // Descriptor-cache sizing. A checkpoint is forced when the number of dirty
  // descriptors reaches checkpoint_dirty_threshold (§4.7).
  size_t descriptor_cache_capacity = 16384;
  size_t checkpoint_dirty_threshold = 4096;
  bool auto_checkpoint = true;

  // Validated-chunk cache: decrypted, hash-verified chunk plaintexts served
  // on repeat reads without the store mutex (and without redoing decrypt +
  // hash verification). 0 disables it.
  size_t validated_cache_capacity = 8192;  // chunks
};

class ChunkStore {
 public:
  // A batch of mutations applied atomically by Commit (§4.1, §5.1).
  class Batch {
   public:
    // Sets the state of an allocated or written chunk.
    void WriteChunk(ChunkId id, Bytes state);
    // Deallocates a written chunk; its id becomes reusable.
    void DeallocateChunk(ChunkId id);
    // Writes an allocated partition id as a fresh, empty partition.
    void WritePartition(PartitionId id, CryptoParams params);
    // Writes an allocated partition id as a copy (snapshot) of `source`.
    void CopyPartition(PartitionId id, PartitionId source);
    // Deallocates a partition, all of its chunks, and all of its copies.
    void DeallocatePartition(PartitionId id);

    // --- privileged restore operations (backup store, §6.3) ---
    // Writes a chunk at an exact position, allocating the rank if needed, so
    // restored chunks keep the ids they had when backed up.
    void RestoreChunk(ChunkId id, Bytes state);
    // Writes (or overwrites) a partition at an exact id with the given
    // parameters, preserving existing chunks if the partition exists.
    void RestorePartition(PartitionId id, CryptoParams params);

    // Moves every operation of `other` onto the end of this batch (per
    // operation kind, preserving order within each kind). Used by the
    // group-commit scheduler to coalesce transactions whose lock sets are
    // disjoint; callers must guarantee the merged operations touch disjoint
    // ids, as a single Commit applies them with no internal ordering
    // between the merged transactions.
    void Append(Batch&& other);

    bool empty() const;

   private:
    friend class ChunkStore;
    struct PartitionOp {
      PartitionId id;
      bool is_copy = false;
      bool is_restore = false;
      PartitionId source = 0;   // iff is_copy
      CryptoParams params;      // iff !is_copy
    };
    struct ChunkWrite {
      ChunkId id;
      Bytes state;
      bool is_restore = false;
    };
    std::vector<PartitionOp> partition_writes;
    std::vector<ChunkWrite> chunk_writes;
    std::vector<ChunkId> chunk_deallocs;
    std::vector<PartitionId> partition_deallocs;
  };

  // Formats a fresh store (writes the initial checkpoint) / opens an
  // existing one (runs crash recovery and validates the residual log).
  static Result<std::unique_ptr<ChunkStore>> Create(UntrustedStore* store,
                                                    TrustedServices trusted,
                                                    ChunkStoreOptions options);
  static Result<std::unique_ptr<ChunkStore>> Open(UntrustedStore* store,
                                                  TrustedServices trusted,
                                                  ChunkStoreOptions options);

  // --- partition operations (§5.1) ---
  Result<PartitionId> AllocatePartition();
  bool PartitionExists(PartitionId id);
  Result<CryptoParams> PartitionParams(PartitionId id);
  Result<uint64_t> PartitionNumPositions(PartitionId id);
  Result<std::vector<PartitionId>> PartitionCopies(PartitionId id);
  Result<PartitionId> PartitionCopiedFrom(PartitionId id);
  std::vector<PartitionId> ListPartitions();

  // Positions whose state differs between two partitions (§5.1 Diff;
  // commonly two snapshots of the same partition).
  Result<std::vector<ChunkPosition>> Diff(PartitionId old_partition,
                                          PartitionId new_partition);

  // --- chunk operations (§4.1) ---
  Result<ChunkId> AllocateChunk(PartitionId partition);
  Result<Bytes> Read(ChunkId id);
  // True if the chunk is written (readable).
  bool ChunkWritten(ChunkId id);

  // Applies all operations in `batch` atomically with respect to crashes,
  // and returns OK once the batch is durable. A failure of the checkpoint
  // or clean that may follow is not the batch's: it poisons the store, and
  // every later call returns it until reopen. A failure once the batch's
  // append has begun is returned, and poisons the store too: the batch is
  // in doubt, and reopen recovers it whole or not at all.
  Status Commit(Batch batch);

  // Convenience single-op commits.
  Status WriteChunk(ChunkId id, Bytes state);
  Status DeallocateChunk(ChunkId id);

  // Consolidates buffered descriptor updates into the chunk map (§4.7).
  // Writes nothing when the log has not changed since the last checkpoint.
  Status Checkpoint();

  // Cleans up to `max_segments` low-utilization segments (§4.9.5).
  // Returns the number of segments cleaned.
  Result<size_t> Clean(size_t max_segments);

  // The shape of the store right now. GetStats also publishes it as
  // chunk.* gauges; what the store did (commits, checkpoints, bytes
  // appended) is counted only in the metrics registry.
  struct Stats {
    uint64_t cache_size = 0;
    uint64_t dirty_descriptors = 0;
    uint64_t free_segments = 0;
    uint64_t live_log_bytes = 0;
    uint64_t used_log_bytes = 0;
  };
  Stats GetStats();

  // Introspection for tests and tooling: where a chunk's current version
  // lives in the untrusted store and how many bytes it occupies.
  Result<std::pair<Location, uint32_t>> DebugChunkLocation(ChunkId id);

  const CryptoSuite& system_suite() const { return *system_suite_; }

  ~ChunkStore();

 private:
  struct LeaderEntry {
    PartitionLeader leader;
    CryptoSuite suite;
    bool dirty = false;
    // In-memory id management: ranks available for reuse and ranks handed
    // out by Allocate but not yet written (auto-freed on restart, §4.4).
    std::vector<uint64_t> avail_ranks;
    std::set<uint64_t> allocated_ranks;

    LeaderEntry(PartitionLeader l, CryptoSuite s)
        : leader(std::move(l)), suite(std::move(s)) {
      avail_ranks = leader.free_ranks;
    }

    // The leader as written to the log: allocated-but-unwritten ranks are
    // persisted as free, as a restart frees them (§4.4).
    PartitionLeader Persisted() const;
  };

  ChunkStore(UntrustedStore* store, TrustedServices trusted,
             ChunkStoreOptions options, CryptoSuite system_suite);

  // --- shared plumbing ---
  Result<LeaderEntry*> GetLeader(PartitionId id);
  Result<Descriptor> GetDescriptor(const ChunkId& id);
  // Reads, decrypts and hash-verifies one stored version. Touches only the
  // device and the (thread-safe) suite, so callers holding a consistent
  // descriptor may run it outside mu_. With raise_alarm=false a validation
  // failure returns kCorruption without emitting a tamper alarm — used by the
  // optimistic read path, whose failures are retried authoritatively under
  // mu_ (a concurrent clean may have relocated the chunk mid-read).
  Result<Bytes> ReadVersion(const ChunkId& id, const Descriptor& desc,
                            const CryptoSuite& suite, bool raise_alarm = true);
  Result<Bytes> ReadLocked(ChunkId id);

  // --- build and append ---
  // Commit, checkpoint and cleaner write the log in these stages: plan under
  // mu_ (validate, and read every descriptor the batch supersedes), build
  // (hash + encrypt), append, then apply the effects below.

  // A version blob (header ct || body ct) and its descriptor, without the
  // location the append assigns.
  struct BuiltVersion {
    Bytes blob;
    Descriptor desc;
  };
  struct BuildTask {
    ChunkId id;
    ByteView plain;
    const CryptoSuite* suite;  // body cipher/hash (header uses the system's)
  };
  // Hashes the plaintext and encrypts the body under the task's suite, then
  // the header under the system suite; each takes its suite's next IV.
  BuiltVersion BuildVersion(const BuildTask& task);
  Bytes BuildUnnamed(UnnamedType type, ByteView plain);

  // Builds and appends `tasks` and returns their new descriptors. A
  // non-empty `deallocate_record` is appended right after them and sealed
  // before the append can insert a link, which keeps the IV order of the
  // on-store format: versions, deallocate record, links, commit record.
  Result<std::vector<Descriptor>> AppendVersions(
      const std::vector<BuildTask>& tasks, ByteView deallocate_record = {});
  Status AppendUnnamed(UnnamedType type, ByteView plain);
  // Appends blobs as part of the current commit set, absorbing bytes into
  // the validators' streams. A failure poisons the store.
  Result<std::vector<Location>> AppendToCommitSet(
      std::vector<LogManager::Blob> blobs);

  // Counter mode: a commit set's digest covers every non-link byte from
  // BeginCommitSet to the signed commit record SealCommitSet appends, under
  // `count` (default: the next count). Both are no-ops in direct mode.
  void BeginCommitSet();
  Status SealCommitSet(std::optional<uint64_t> count = std::nullopt);
  // Flush + trusted-store update. A failure poisons the store.
  Status FinishCommitSet();

  // --- apply: the effects of a log record, shared by commit, checkpoint,
  // cleaner and recovery replay. They read nothing that can fail, so a
  // batch applies whole once it is appended. ---

  // Installs a written or a free descriptor over `old`: releases old's live
  // bytes, dirties the cache entry, drops the validated-cache entry, and
  // keeps the data ranks: a rank's first version takes it out of the
  // allocated ranks (on restore and replay, the free ranks) and may grow
  // the position count; a free descriptor returns the rank. The id's leader
  // must be loaded.
  void ApplyDescriptor(const ChunkId& id, const Descriptor& desc,
                       const Descriptor& old);
  // Deallocating partitions: the plan pairs each one with its leader
  // chunk's descriptor and loads the leaders the apply touches; the apply
  // frees them and detaches each from a source that survives.
  Result<std::vector<std::pair<PartitionId, Descriptor>>>
  PlanPartitionDeallocs(const std::vector<PartitionId>& closure);
  void ApplyPartitionDeallocs(
      const std::vector<std::pair<PartitionId, Descriptor>>& closure);
  // One cleaner move: the version at `position` becomes `desc` in every
  // partition of `current_in`, which share the one physical version `old`.
  void ApplyMove(ChunkPosition position,
                 const std::vector<PartitionId>& current_in,
                 const Descriptor& desc, const Descriptor& old);

  // Writes all dirty map chunks of a partition bottom-up and updates its
  // leader's root descriptor (used by checkpoints and partition copies).
  Status MaterializeTree(PartitionId partition);

  Status CommitLocked(Batch& batch);
  Status CheckpointLocked();
  Status WriteSuperblock(Location leader_loc, uint32_t leader_size);
  Result<std::pair<Location, uint32_t>> ReadSuperblock();

  // Gathers a partition and all its transitive copies.
  Result<std::vector<PartitionId>> PartitionClosure(PartitionId id);

  Status RecoverLocked();
  // Decodes one confirmed record of the residual log (decrypt, hash,
  // unpickle) and redoes it through the apply functions. `moves` maps a
  // location to the cleaner entry that moved a version there.
  Status ReplayRecord(const LogManager::Scanned& scanned,
                      const std::map<uint64_t, CleanerEntry>& moves);

  Result<size_t> CleanLocked(size_t max_segments);
  Status CleanSegment(uint32_t segment);

  // Makes every later call fail with `cause` until reopen (the first poison
  // wins). OK is ignored.
  void Poison(Status cause);
  // A commit set that fails once its append has begun leaves memory ahead
  // of the store: poisons it with a FAILED_PRECONDITION naming `cause`, and
  // returns `cause`.
  Status PoisonMidCommit(Status cause);
  Status CheckUsable() const;

  std::mutex mu_;
  UntrustedStore* store_;
  TrustedServices trusted_;
  ChunkStoreOptions options_;
  std::unique_ptr<CryptoSuite> system_suite_;
  LogManager log_;
  DescriptorCache cache_;
  std::map<PartitionId, LeaderEntry> leaders_;

  std::optional<DirectHashValidator> direct_;
  // Set by CheckpointLocked: the direct-hash stream restarts at the next
  // non-link append (the checkpoint leader), not before. See AppendToCommitSet.
  bool direct_reset_pending_ = false;
  std::optional<CounterValidator> counter_;

  // Commit-set digest accumulator (counter mode) — reset per commit.
  std::optional<StreamingHash> set_hash_;

  Location last_leader_loc_;
  uint32_t last_leader_size_ = 0;
  // The log tail as this process's last checkpoint left it. While the tail
  // is still there and no cleaned segment waits for release, a checkpoint
  // has nothing to record and writes nothing.
  std::optional<Location> checkpoint_tail_;

  // Poisoned by a mid-commit I/O failure, or by a failure of the maintenance
  // that follows a durable commit; poison_ is what later calls return. Only
  // Poison writes them. Atomic because the lock-free validated-cache hit
  // path consults it without mu_.
  std::atomic<bool> failed_{false};
  Status poison_;
  bool in_checkpoint_ = false;

  // Validated-chunk cache (see ChunkStoreOptions). Lookups take only the
  // shard mutex; fills happen under mu_ right after ReadLocked so a fill can
  // never reinstall data that a concurrent commit just invalidated
  // (invalidation also runs under mu_). An entry is served only while its
  // generation matches read_gen_; the generation is bumped by coarse events
  // (clean, restore, recovery replay) whose precise invalidation set is not
  // worth auditing, while commit overwrites/deallocations erase precisely.
  struct ValidatedChunk {
    uint64_t gen = 0;
    std::shared_ptr<const Bytes> plain;
  };
  ShardedLruCache<ValidatedChunk> vcache_;
  std::atomic<uint64_t> read_gen_{1};
};

}  // namespace tdb

#endif  // SRC_CHUNK_CHUNK_STORE_H_
