// Log-structured storage management (§4.9): the untrusted store is divided
// into fixed-size segments; the log is a sequence of potentially non-adjacent
// segments linked by unnamed next-segment chunks. The LogManager owns the
// segment table, the append path, and the sequential scanner used by
// recovery (§4.8) and the cleaner (§4.9.5).
//
// Invariant maintained by Append: after every version there is room for at
// least a next-segment chunk in its segment, so a scanner positioned after
// any version can always read a header-sized ciphertext.

#ifndef SRC_CHUNK_LOG_MANAGER_H_
#define SRC_CHUNK_LOG_MANAGER_H_

#include <functional>
#include <optional>
#include <vector>

#include "src/chunk/descriptor.h"
#include "src/chunk/log_format.h"
#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/suite.h"
#include "src/store/untrusted_store.h"

namespace tdb {

struct SegmentInfo {
  enum class State : uint8_t {
    kFree = 0,
    kLive = 1,
    // Cleaned segments hold stale bytes that pre-checkpoint recovery state
    // may still reference; they become kFree at the next checkpoint.
    kCleaned = 2,
  };

  State state = State::kFree;
  uint32_t bytes_used = 0;  // append high-water mark
  uint32_t live_bytes = 0;  // bytes of current (non-obsolete) named versions

  void Pickle(PickleWriter& w) const;
  static Result<SegmentInfo> Unpickle(PickleReader& r);
};

// Plaintext of the system leader chunk: the system partition's leader state
// (whose position map is the partition map), the segment table, and the
// commit count as of the checkpoint (counter-based validation).
struct SystemLeaderRecord {
  PartitionLeader system_tree;
  std::vector<SegmentInfo> segments;
  uint64_t commit_count = 0;

  Bytes Pickle() const;
  static Result<SystemLeaderRecord> Unpickle(ByteView data);
};

class LogManager {
 public:
  LogManager(UntrustedStore* store, const CryptoSuite* system_suite);

  // Fresh store: all segments free; appending starts at segment 0.
  Status InitFresh();
  // Warm start from a checkpointed segment table. `leader_loc`/`leader_size`
  // fix up the leader's own bytes, which the table (pickled before the
  // leader was written) cannot include.
  Status LoadFromCheckpoint(std::vector<SegmentInfo> table, Location leader_loc,
                            uint32_t leader_size);

  struct Blob {
    Bytes bytes;
    bool live = true;  // false for unnamed chunks (obsolete once checkpointed)
  };

  // Appends blobs in order, inserting next-segment chunks as needed.
  // `on_append` observes every byte string written, in log order (including
  // generated next-segment chunks) — this feeds direct-hash validation.
  // `is_link` is true for generated next-segment chunks, which commit-set
  // digests must exclude (a link may be inserted between a commit set's
  // blobs and its commit record, after the digest was computed).
  // Returns the location of each input blob.
  Result<std::vector<Location>> Append(
      const std::vector<Blob>& blobs,
      const std::function<void(ByteView, bool is_link)>& on_append);

  Status FlushStore() { return store_->Flush(); }

  Location tail() const { return tail_; }

  // Live-bytes accounting, driven by descriptor updates in the chunk store.
  void ReleaseLive(Location loc, uint32_t size);
  void AddLive(Location loc, uint32_t size);

  // --- recovery support ---
  void SetTailForRecovery(Location tail);
  void NoteScanned(uint32_t segment, uint32_t end_offset);
  void SetResidualChain(std::vector<uint32_t> segments);

  // --- checkpoint & cleaning support ---
  // Rotates the residual log to start at the new leader and releases cleaned
  // segments for reuse.
  void OnCheckpointComplete(Location leader_loc);
  bool InResidual(uint32_t segment) const;
  // Segments eligible for cleaning, lowest utilization first.
  std::vector<uint32_t> CleanableSegments() const;
  void MarkCleaned(uint32_t segment);
  // True while a cleaned segment waits for the checkpoint that frees it.
  bool HasCleaned() const;

  const std::vector<SegmentInfo>& segments() const { return segments_; }
  std::vector<SegmentInfo> SegmentTableSnapshot() const { return segments_; }
  size_t segment_size() const { return store_->segment_size(); }
  // Largest version that fits in a segment alongside a next-segment chunk.
  size_t max_blob_size() const;
  uint32_t free_segment_count() const;
  uint64_t total_live_bytes() const;
  uint64_t total_used_bytes() const;

  // --- sequential scanning ---
  struct Scanned {
    Location location;
    VersionHeader header;
    Bytes raw;      // header ciphertext || body ciphertext, as stored
    Bytes body_ct;  // body ciphertext only
    Location end;   // position immediately after this version
  };

  class Scanner {
   public:
    // Returns the next version, or nullopt when no valid version header can
    // be read at the current position (the log tail in counter mode), or at
    // a torn link or a link into a segment already visited. I/O failures
    // surface as errors. Next-segment chunks are returned like any other
    // version, after which the scanner continues in the next segment.
    Result<std::optional<Scanned>> Next();

    Location position() const { return pos_; }
    const std::vector<uint32_t>& visited_segments() const { return visited_; }

   private:
    friend class LogManager;
    Scanner(const LogManager* log, Location start)
        : log_(log), pos_(start), visited_{start.segment} {}

    const LogManager* log_;
    Location pos_;
    std::vector<uint32_t> visited_;
  };

  Scanner MakeScanner(Location start) const { return Scanner(this, start); }

  UntrustedStore* store() { return store_; }
  const UntrustedStore* store() const { return store_; }

 private:
  size_t header_ct_size() const;
  size_t next_segment_blob_size() const;
  Result<uint32_t> PickFreeSegment();

  UntrustedStore* store_;
  const CryptoSuite* system_suite_;
  std::vector<SegmentInfo> segments_;
  std::vector<uint32_t> residual_;  // ordered residual-log segment chain
  Location tail_;
};

}  // namespace tdb

#endif  // SRC_CHUNK_LOG_MANAGER_H_
