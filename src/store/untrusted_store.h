// The untrusted store of §2.1: bulk persistent storage with efficient random
// access, readable and writable by *any* program — the adversary included.
// TDB's log-structured chunk store divides it into fixed-size segments
// (§4.9.4) plus a small fixed superblock region outside the log that holds
// the location of the current leader chunk (§4.9.2).
//
// Durability model: Write() may be buffered by the device; data is guaranteed
// durable only after Flush() returns. MemUntrustedStore models this
// faithfully (Crash() discards unflushed writes), which the crash-recovery
// tests rely on. WriteSuperblock() is atomic and durable on return.
//
// Concurrency: Read() must be safe to call concurrently with other Reads and
// with Write()/Flush() — the chunk store validates cold reads outside its
// mutex, so device reads overlap commits. A Read that overlaps a Write to the
// same range may return a mix of old and new bytes; the caller's
// cryptographic validation rejects such torn reads.

#ifndef SRC_STORE_UNTRUSTED_STORE_H_
#define SRC_STORE_UNTRUSTED_STORE_H_

#include <chrono>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace tdb {

struct UntrustedStoreOptions {
  size_t segment_size = 64 * 1024;
  uint32_t num_segments = 4096;
  // Modelled device latency applied per Flush (benchmarks only).
  std::chrono::microseconds flush_latency{0};
};

class UntrustedStore {
 public:
  virtual ~UntrustedStore() = default;

  virtual size_t segment_size() const = 0;
  virtual uint32_t num_segments() const = 0;

  virtual Result<Bytes> Read(uint32_t segment, uint32_t offset,
                             size_t len) const = 0;
  virtual Status Write(uint32_t segment, uint32_t offset, ByteView data) = 0;
  // Durability barrier for all prior Writes.
  virtual Status Flush() = 0;

  virtual Result<Bytes> ReadSuperblock() const = 0;
  virtual Status WriteSuperblock(ByteView data) = 0;
};

// In-memory store with an explicit volatile write cache. Also the tamper
// testbed: Corrupt* methods mutate durable state directly, modelling an
// attacker with full access to the device.
//
// Memory: a segment is allocated on its first write (unwritten segments read
// as zeros), and the volatile cache is a log of the bytes each unflushed
// write overwrote, which Crash rolls back and Flush drops.
class MemUntrustedStore final : public UntrustedStore {
 public:
  explicit MemUntrustedStore(UntrustedStoreOptions options = {});

  size_t segment_size() const override { return options_.segment_size; }
  uint32_t num_segments() const override { return options_.num_segments; }

  Result<Bytes> Read(uint32_t segment, uint32_t offset,
                     size_t len) const override;
  Status Write(uint32_t segment, uint32_t offset, ByteView data) override;
  Status Flush() override;

  Result<Bytes> ReadSuperblock() const override;
  Status WriteSuperblock(ByteView data) override;

  // --- crash & tamper testbed (not part of the UntrustedStore contract) ---

  // Discards all unflushed writes, as a power failure would.
  void Crash();

  // Attacker operations: mutate the current (visible) state directly, and
  // make the change durable. CorruptByte makes only the flipped byte
  // durable; CorruptRange and RestoreSegment make the whole segment durable,
  // unflushed writes to it included.
  void CorruptByte(uint32_t segment, uint32_t offset, uint8_t xor_mask);
  void CorruptRange(uint32_t segment, uint32_t offset, ByteView replacement);
  // Snapshot/restore a whole segment — the replay attack primitive.
  Bytes DumpSegment(uint32_t segment) const;
  void RestoreSegment(uint32_t segment, ByteView content);
  Bytes DumpSuperblock() const { return superblock_; }
  void RestoreSuperblock(ByteView content);

  uint64_t flush_count() const {
    std::shared_lock<std::shared_mutex> lock(io_mu_);
    return flush_count_;
  }
  uint64_t bytes_written() const {
    std::shared_lock<std::shared_mutex> lock(io_mu_);
    return bytes_written_;
  }

 private:
  // The bytes an unflushed write overwrote.
  struct PreImage {
    uint32_t segment;
    uint32_t offset;
    Bytes bytes;
  };

  Status CheckRange(uint32_t segment, uint32_t offset, size_t len) const;
  // The segment's bytes, allocated zero-filled on first use. Needs io_mu_
  // held exclusively.
  Bytes& MutableSegment(uint32_t segment);
  // Makes the segment's current bytes durable. Needs io_mu_ exclusively.
  void MakeSegmentDurable(uint32_t segment);

  // Readers share; Write/Flush/Crash/Corrupt*/Restore* are exclusive. The
  // file-backed store needs no equivalent (pread/pwrite on one fd).
  mutable std::shared_mutex io_mu_;
  UntrustedStoreOptions options_;
  std::vector<Bytes> segments_;  // current view; empty until first written
  std::vector<PreImage> unflushed_;  // oldest first; Crash() undoes them
  Bytes superblock_;
  uint64_t flush_count_ = 0;
  uint64_t bytes_written_ = 0;
};

// File-backed store. Layout: 4 KiB superblock region, then segments.
//
// The superblock region holds two checksummed slots so WriteSuperblock keeps
// its crash-atomicity contract on a real disk: each write goes to the slot
// the previous write did NOT use (alternating on a sequence number), so a
// torn superblock write can only damage the slot being written and the
// reader falls back to the intact previous slot.
class FileUntrustedStore final : public UntrustedStore {
 public:
  // Each slot: u64 sequence | u32 length | payload | 32-byte SHA-256 over
  // the preceding bytes. Exposed for crash tests that tear a slot directly.
  static constexpr size_t kSuperblockRegion = 4096;
  static constexpr size_t kSuperblockSlotSize = kSuperblockRegion / 2;
  static constexpr size_t kSuperblockSlotHeader = 8 + 4;   // seq + length
  static constexpr size_t kSuperblockSlotChecksum = 32;    // SHA-256
  static constexpr size_t kMaxSuperblockPayload =
      kSuperblockSlotSize - kSuperblockSlotHeader - kSuperblockSlotChecksum;

  static Result<std::unique_ptr<FileUntrustedStore>> Open(
      const std::string& path, UntrustedStoreOptions options = {});
  ~FileUntrustedStore() override;

  size_t segment_size() const override { return options_.segment_size; }
  uint32_t num_segments() const override { return options_.num_segments; }

  Result<Bytes> Read(uint32_t segment, uint32_t offset,
                     size_t len) const override;
  Status Write(uint32_t segment, uint32_t offset, ByteView data) override;
  Status Flush() override;

  Result<Bytes> ReadSuperblock() const override;
  Status WriteSuperblock(ByteView data) override;

 private:
  FileUntrustedStore(int fd, UntrustedStoreOptions options)
      : fd_(fd), options_(options) {}

  uint64_t FileOffset(uint32_t segment, uint32_t offset) const {
    return kSuperblockRegion +
           static_cast<uint64_t>(segment) * options_.segment_size + offset;
  }

  int fd_ = -1;
  UntrustedStoreOptions options_;
  // Sequence number of the newest valid superblock slot (0 = none yet);
  // primed at Open, advanced by WriteSuperblock.
  uint64_t superblock_seq_ = 0;
};

}  // namespace tdb

#endif  // SRC_STORE_UNTRUSTED_STORE_H_
