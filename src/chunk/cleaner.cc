// Log cleaning (§4.9.5, §5.5): reclaims the storage of obsolete chunk
// versions by scanning low-utilization segments of the checkpointed log,
// revalidating and rewriting the versions that are still current in some
// partition, and appending a cleaner chunk naming those partitions so
// recovery can redo the moves.
//
// Cleaned segments are quarantined (kCleaned) until the next checkpoint: the
// pre-checkpoint recovery state may still reference their old bytes, so they
// must not be overwritten before a new checkpoint supersedes that state.

#include "src/chunk/chunk_store.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"

namespace tdb {

Result<size_t> ChunkStore::Clean(size_t max_segments) {
  std::lock_guard<std::mutex> lock(mu_);
  ProfileScope scope("chunk_store");
  return CleanLocked(max_segments);
}

Result<size_t> ChunkStore::CleanLocked(size_t max_segments) {
  TDB_RETURN_IF_ERROR(CheckUsable());
  std::vector<uint32_t> candidates = log_.CleanableSegments();
  size_t cleaned = 0;
  for (uint32_t segment : candidates) {
    if (cleaned >= max_segments) {
      break;
    }
    if (log_.free_segment_count() == 0) {
      break;  // no room to rewrite live data
    }
    TDB_RETURN_IF_ERROR(CleanSegment(segment));
    ++cleaned;
    stats_.segments_cleaned.fetch_add(1, std::memory_order_relaxed);
    obs::Count("cleaner.segments_cleaned");
  }
  if (cleaned > 0) {
    // Checkpointing supersedes all references into the cleaned segments and
    // releases them for reuse.
    TDB_RETURN_IF_ERROR(CheckpointLocked());
    // Defensive: cleaning only relocates versions (plaintext is unchanged),
    // but the validated cache does not assume that — cached entries are
    // re-verified against the moved versions on their next read.
    read_gen_.fetch_add(1, std::memory_order_acq_rel);
  }
  return cleaned;
}

Status ChunkStore::CleanSegment(uint32_t segment) {
  obs::LatencyTimer clean_timer("cleaner.segment_us");
  const uint32_t bytes_used = log_.segments()[segment].bytes_used;

  struct LiveVersion {
    ChunkId original_id;
    Bytes body_ct;  // encrypted body, pending revalidation
    Bytes plain;    // filled by revalidation
    const CryptoSuite* suite = nullptr;  // owning partition's suite
    std::vector<PartitionId> current_in;
    Descriptor old_desc;  // the version's descriptor in current_in
  };
  std::vector<LiveVersion> live;

  LogManager::Scanner scanner = log_.MakeScanner(Location{segment, 0});
  while (scanner.position().segment == segment &&
         scanner.position().offset < bytes_used) {
    TDB_ASSIGN_OR_RETURN(std::optional<LogManager::Scanned> item,
                         scanner.Next());
    if (!item.has_value()) {
      break;
    }
    const VersionHeader& header = item->header;
    if (header.unnamed || header.id.position.height == kLeaderHeight) {
      // Unnamed chunks are always obsolete in the checkpointed log (§4.9.5);
      // a stale system leader is obsolete by definition.
      continue;
    }
    // Check current-ness in the owning partition and all transitive copies
    // (a partition cannot be deallocated while its copies survive, so the
    // closure covers every possible owner).
    Result<std::vector<PartitionId>> closure =
        PartitionClosure(header.id.partition);
    if (!closure.ok()) {
      continue;  // owning partition deallocated: version is dead
    }
    LiveVersion lv;
    lv.original_id = header.id;
    for (PartitionId q : *closure) {
      ChunkId qid(q, header.id.position);
      Result<Descriptor> desc = GetDescriptor(qid);
      if (desc.ok() && desc->written() && desc->location == item->location) {
        lv.current_in.push_back(q);
        lv.old_desc = *desc;
      }
    }
    if (lv.current_in.empty()) {
      continue;
    }
    // LeaderEntry pointers are stable (leaders_ is a std::map), so the suite
    // pointer stays valid for the rewrite below.
    TDB_ASSIGN_OR_RETURN(LeaderEntry* owner, GetLeader(lv.current_in[0]));
    lv.suite = &owner->suite;
    lv.body_ct = std::move(item->body_ct);
    live.push_back(std::move(lv));
  }

  // Revalidate every surviving version before rewriting so the cleaner
  // cannot launder tampered chunks (§4.9.5: hashes are recomputed by the
  // rewrite commit). The first failure in log order is reported.
  for (LiveVersion& lv : live) {
    Result<Bytes> plain = lv.suite->Decrypt(lv.body_ct);
    if (!plain.ok() ||
        !ConstantTimeEqual(lv.suite->Hash(*plain), lv.old_desc.hash)) {
      return TamperDetectedError("cleaner found a tampered chunk at " +
                                 lv.old_desc.location.ToString());
    }
    lv.plain = std::move(*plain);
  }

  // Rewrite the live versions as one commit, cleaner record last.
  BeginCommitSet();
  std::vector<BuildTask> tasks;
  tasks.reserve(live.size());
  for (const LiveVersion& lv : live) {
    tasks.push_back(BuildTask{lv.original_id, lv.plain, lv.suite});
  }
  TDB_ASSIGN_OR_RETURN(std::vector<Descriptor> descs, AppendVersions(tasks));
  CleanerRecord record;
  uint64_t bytes_rewritten = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    record.entries.push_back(CleanerEntry{live[i].original_id,
                                          live[i].current_in,
                                          descs[i].location,
                                          descs[i].stored_size});
    bytes_rewritten += descs[i].stored_size;
  }
  if (!record.entries.empty()) {
    TDB_RETURN_IF_ERROR(AppendUnnamed(UnnamedType::kCleaner, record.Pickle()));
  }
  TDB_RETURN_IF_ERROR(SealCommitSet());
  for (size_t i = 0; i < live.size(); ++i) {
    ApplyMove(live[i].original_id.position, live[i].current_in, descs[i],
              live[i].old_desc);
  }

  TDB_RETURN_IF_ERROR(FinishCommitSet());
  log_.MarkCleaned(segment);
  obs::Count("cleaner.chunks_rewritten", live.size());
  obs::Count("cleaner.bytes_rewritten", bytes_rewritten);
  obs::TraceEmit(obs::TraceKind::kSegmentClean, "cleaner", segment,
                 bytes_rewritten);
  return OkStatus();
}

}  // namespace tdb
