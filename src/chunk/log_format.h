// On-log representation of chunks (§4.9).
//
// The log is a sequence of chunk *versions*. Each version is a fixed-size
// encrypted header followed by an encrypted body. Headers are encrypted with
// the system cipher so that cleaning and recovery can identify and demarcate
// chunks without knowing the owning partition's parameters (§5.4); bodies
// are encrypted with the owning partition's cipher.
//
// Unnamed chunks (no position in the chunk map) carry log-management records:
// deallocations (§4.8.1), commit chunks for counter-based validation
// (§4.8.2.2), next-segment links (§4.9.4), and cleaner records (§5.5).

#ifndef SRC_CHUNK_LOG_FORMAT_H_
#define SRC_CHUNK_LOG_FORMAT_H_

#include <vector>

#include "src/chunk/chunk_id.h"
#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/suite.h"

namespace tdb {

// Reserved marker values in version headers.
inline constexpr PartitionId kUnnamedPartition = 0xFFFF;
// Reserved height marking the system leader chunk, whose position in the
// tree changes as the tree grows and which therefore has a reserved id
// (§4.3).
inline constexpr uint8_t kLeaderHeight = 0xFF;

enum class UnnamedType : uint8_t {
  kDeallocate = 1,
  kCommit = 2,
  kNextSegment = 3,
  kCleaner = 4,
};

struct VersionHeader {
  bool unnamed = false;
  ChunkId id;                                     // valid iff !unnamed
  UnnamedType type = UnnamedType::kDeallocate;    // valid iff unnamed
  uint32_t body_size = 0;                         // ciphertext bytes

  static VersionHeader Named(ChunkId id, uint32_t body_size) {
    VersionHeader h;
    h.id = id;
    h.body_size = body_size;
    return h;
  }
  static VersionHeader Unnamed(UnnamedType type, uint32_t body_size) {
    VersionHeader h;
    h.unnamed = true;
    h.type = type;
    h.body_size = body_size;
    return h;
  }
};

// Fixed plaintext size of a header; its ciphertext size is deterministic for
// a given system cipher, which is what makes the log scannable.
inline constexpr size_t kHeaderPlainSize = 15;

size_t HeaderCipherSize(const CryptoSuite& system);

// Encrypts/decrypts a version header with the system cipher. Headers use
// deterministic per-message IVs from the cipher; DecodeHeader returns
// kCorruption when the bytes do not parse (used by counter-mode recovery to
// find the log tail).
Bytes EncodeHeader(const CryptoSuite& system, const VersionHeader& header);
Result<VersionHeader> DecodeHeader(const CryptoSuite& system, ByteView ct);

// ---- Unnamed chunk payloads (plaintext forms; bodies are encrypted with
// the system suite by the caller) ----

struct DeallocateRecord {
  std::vector<ChunkId> chunks;
  std::vector<PartitionId> partitions;

  Bytes Pickle() const;
  static Result<DeallocateRecord> Unpickle(ByteView data);
};

struct CommitRecord {
  uint64_t count = 0;
  Bytes set_digest;  // system hash of the commit set's version bytes
  Bytes mac;         // HMAC(system key, count || set_digest)

  // Computes the MAC field from count and set_digest.
  void Sign(const CryptoSuite& system);
  bool VerifySignature(const CryptoSuite& system) const;

  Bytes Pickle() const;
  static Result<CommitRecord> Unpickle(ByteView data);
};

struct NextSegmentRecord {
  uint32_t next_segment = 0;

  Bytes Pickle() const;
  static Result<NextSegmentRecord> Unpickle(ByteView data);
};

// One cleaner-moved chunk version: the position it occupies, the partitions
// in which the rewritten version is current, and where it was rewritten.
struct CleanerEntry {
  ChunkId original_id;                  // id stamped in the version header
  std::vector<PartitionId> current_in;  // partitions whose descriptors move
  Location new_location;
  uint32_t stored_size = 0;
};

struct CleanerRecord {
  std::vector<CleanerEntry> entries;

  Bytes Pickle() const;
  static Result<CleanerRecord> Unpickle(ByteView data);
};

}  // namespace tdb

#endif  // SRC_CHUNK_LOG_FORMAT_H_
