#include "src/store/untrusted_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "src/common/pickle.h"
#include "src/crypto/sha256.h"
#include "src/obs/metrics.h"

namespace tdb {

MemUntrustedStore::MemUntrustedStore(UntrustedStoreOptions options)
    : options_(options), segments_(options.num_segments) {}

Status MemUntrustedStore::CheckRange(uint32_t segment, uint32_t offset,
                                     size_t len) const {
  if (segment >= options_.num_segments) {
    return InvalidArgumentError("segment index out of range");
  }
  if (offset + len > options_.segment_size) {
    return InvalidArgumentError("read/write past end of segment");
  }
  return OkStatus();
}

Bytes& MemUntrustedStore::MutableSegment(uint32_t segment) {
  Bytes& seg = segments_[segment];
  if (seg.empty()) {
    seg.resize(options_.segment_size, 0);
  }
  return seg;
}

void MemUntrustedStore::MakeSegmentDurable(uint32_t segment) {
  std::erase_if(unflushed_, [segment](const PreImage& pre) {
    return pre.segment == segment;
  });
}

Result<Bytes> MemUntrustedStore::Read(uint32_t segment, uint32_t offset,
                                      size_t len) const {
  TDB_RETURN_IF_ERROR(CheckRange(segment, offset, len));
  std::shared_lock<std::shared_mutex> lock(io_mu_);
  obs::Count("untrusted_store.reads");
  obs::Count("untrusted_store.bytes_read", len);
  const Bytes& seg = segments_[segment];
  if (seg.empty()) {
    return Bytes(len, 0);
  }
  return Bytes(seg.begin() + offset, seg.begin() + offset + len);
}

Status MemUntrustedStore::Write(uint32_t segment, uint32_t offset,
                                ByteView data) {
  TDB_RETURN_IF_ERROR(CheckRange(segment, offset, data.size()));
  std::unique_lock<std::shared_mutex> lock(io_mu_);
  Bytes& seg = MutableSegment(segment);
  unflushed_.push_back(
      {segment, offset,
       Bytes(seg.begin() + offset, seg.begin() + offset + data.size())});
  if (!data.empty()) {
    std::memcpy(seg.data() + offset, data.data(), data.size());
  }
  bytes_written_ += data.size();
  obs::Count("untrusted_store.bytes_written", data.size());
  return OkStatus();
}

Status MemUntrustedStore::Flush() {
  if (options_.flush_latency.count() > 0) {
    std::this_thread::sleep_for(options_.flush_latency);
  }
  std::unique_lock<std::shared_mutex> lock(io_mu_);
  unflushed_.clear();
  ++flush_count_;
  obs::Count("untrusted_store.flushes");
  return OkStatus();
}

Result<Bytes> MemUntrustedStore::ReadSuperblock() const {
  std::shared_lock<std::shared_mutex> lock(io_mu_);
  return superblock_;
}

Status MemUntrustedStore::WriteSuperblock(ByteView data) {
  std::unique_lock<std::shared_mutex> lock(io_mu_);
  superblock_.assign(data.begin(), data.end());
  obs::Count("untrusted_store.superblock_writes");
  return OkStatus();
}

void MemUntrustedStore::Crash() {
  std::unique_lock<std::shared_mutex> lock(io_mu_);
  for (auto it = unflushed_.rbegin(); it != unflushed_.rend(); ++it) {
    std::copy(it->bytes.begin(), it->bytes.end(),
              segments_[it->segment].begin() + it->offset);
  }
  unflushed_.clear();
}

void MemUntrustedStore::CorruptByte(uint32_t segment, uint32_t offset,
                                    uint8_t xor_mask) {
  std::unique_lock<std::shared_mutex> lock(io_mu_);
  uint8_t& byte = MutableSegment(segment)[offset];
  byte ^= xor_mask;
  // Durable too: a Crash must restore the flipped byte, not an older one.
  for (PreImage& pre : unflushed_) {
    if (pre.segment == segment && offset >= pre.offset &&
        offset < pre.offset + pre.bytes.size()) {
      pre.bytes[offset - pre.offset] = byte;
    }
  }
}

void MemUntrustedStore::CorruptRange(uint32_t segment, uint32_t offset,
                                     ByteView replacement) {
  std::unique_lock<std::shared_mutex> lock(io_mu_);
  std::copy(replacement.begin(), replacement.end(),
            MutableSegment(segment).begin() + offset);
  MakeSegmentDurable(segment);
}

Bytes MemUntrustedStore::DumpSegment(uint32_t segment) const {
  std::shared_lock<std::shared_mutex> lock(io_mu_);
  const Bytes& seg = segments_[segment];
  return seg.empty() ? Bytes(options_.segment_size, 0) : seg;
}

void MemUntrustedStore::RestoreSegment(uint32_t segment, ByteView content) {
  std::unique_lock<std::shared_mutex> lock(io_mu_);
  Bytes& seg = segments_[segment];
  seg.assign(content.begin(), content.end());
  seg.resize(options_.segment_size, 0);
  MakeSegmentDurable(segment);
}

void MemUntrustedStore::RestoreSuperblock(ByteView content) {
  std::unique_lock<std::shared_mutex> lock(io_mu_);
  superblock_.assign(content.begin(), content.end());
}

namespace {

struct SuperblockSlot {
  uint64_t sequence = 0;
  Bytes payload;
  bool valid = false;
};

// Decodes one superblock slot; `raw` is the full kSuperblockSlotSize bytes.
SuperblockSlot DecodeSuperblockSlot(ByteView raw) {
  SuperblockSlot slot;
  if (raw.size() < FileUntrustedStore::kSuperblockSlotHeader +
                       FileUntrustedStore::kSuperblockSlotChecksum) {
    return slot;
  }
  uint64_t seq = GetU64(raw.data());
  uint32_t len = GetU32(raw.data() + 8);
  if (seq == 0 || len > FileUntrustedStore::kMaxSuperblockPayload) {
    return slot;
  }
  size_t body = FileUntrustedStore::kSuperblockSlotHeader + len;
  Bytes check = Sha256::Hash(raw.first(body));
  if (!ConstantTimeEqual(
          check, raw.subspan(body,
                             FileUntrustedStore::kSuperblockSlotChecksum))) {
    return slot;
  }
  slot.sequence = seq;
  slot.payload.assign(raw.begin() + FileUntrustedStore::kSuperblockSlotHeader,
                      raw.begin() + body);
  slot.valid = true;
  return slot;
}

SuperblockSlot ReadSuperblockSlot(int fd, int index) {
  Bytes raw(FileUntrustedStore::kSuperblockSlotSize);
  ssize_t got = ::pread(
      fd, raw.data(), raw.size(),
      static_cast<off_t>(index * FileUntrustedStore::kSuperblockSlotSize));
  if (got != static_cast<ssize_t>(raw.size())) {
    return SuperblockSlot{};
  }
  return DecodeSuperblockSlot(raw);
}

}  // namespace

Result<std::unique_ptr<FileUntrustedStore>> FileUntrustedStore::Open(
    const std::string& path, UntrustedStoreOptions options) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return IoError("cannot open " + path);
  }
  uint64_t total = kSuperblockRegion + static_cast<uint64_t>(options.num_segments) *
                                           options.segment_size;
  if (::ftruncate(fd, static_cast<off_t>(total)) != 0) {
    ::close(fd);
    return IoError("cannot size " + path);
  }
  auto store = std::unique_ptr<FileUntrustedStore>(
      new FileUntrustedStore(fd, options));
  for (int i = 0; i < 2; ++i) {
    SuperblockSlot slot = ReadSuperblockSlot(fd, i);
    if (slot.valid && slot.sequence > store->superblock_seq_) {
      store->superblock_seq_ = slot.sequence;
    }
  }
  return store;
}

FileUntrustedStore::~FileUntrustedStore() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Result<Bytes> FileUntrustedStore::Read(uint32_t segment, uint32_t offset,
                                       size_t len) const {
  if (segment >= options_.num_segments ||
      offset + len > options_.segment_size) {
    return InvalidArgumentError("read past end of segment");
  }
  Bytes out(len);
  ssize_t got = ::pread(fd_, out.data(), len,
                        static_cast<off_t>(FileOffset(segment, offset)));
  if (got != static_cast<ssize_t>(len)) {
    return IoError("short read");
  }
  obs::Count("untrusted_store.reads");
  obs::Count("untrusted_store.bytes_read", len);
  return out;
}

Status FileUntrustedStore::Write(uint32_t segment, uint32_t offset,
                                 ByteView data) {
  if (segment >= options_.num_segments ||
      offset + data.size() > options_.segment_size) {
    return InvalidArgumentError("write past end of segment");
  }
  ssize_t wrote = ::pwrite(fd_, data.data(), data.size(),
                           static_cast<off_t>(FileOffset(segment, offset)));
  if (wrote != static_cast<ssize_t>(data.size())) {
    return IoError("short write");
  }
  obs::Count("untrusted_store.bytes_written", data.size());
  return OkStatus();
}

Status FileUntrustedStore::Flush() {
  if (options_.flush_latency.count() > 0) {
    std::this_thread::sleep_for(options_.flush_latency);
  }
  if (::fdatasync(fd_) != 0) {
    return IoError("fdatasync failed");
  }
  obs::Count("untrusted_store.flushes");
  return OkStatus();
}

Result<Bytes> FileUntrustedStore::ReadSuperblock() const {
  // Pick the valid slot with the highest sequence number; a torn write only
  // ever damages one slot, so the previous superblock is always readable.
  // Neither slot valid means the store was never (completely) formatted —
  // return empty, the same as a fresh store.
  SuperblockSlot best;
  for (int i = 0; i < 2; ++i) {
    SuperblockSlot slot = ReadSuperblockSlot(fd_, i);
    if (slot.valid && (!best.valid || slot.sequence > best.sequence)) {
      best = std::move(slot);
    }
  }
  if (!best.valid) {
    return Bytes{};
  }
  return best.payload;
}

Status FileUntrustedStore::WriteSuperblock(ByteView data) {
  if (data.size() > kMaxSuperblockPayload) {
    return InvalidArgumentError("superblock data too large");
  }
  uint64_t next_seq = superblock_seq_ + 1;
  Bytes buf;
  PutU64(buf, next_seq);
  PutU32(buf, static_cast<uint32_t>(data.size()));
  Append(buf, data);
  Append(buf, Sha256::Hash(buf));
  // Alternate slots so the previous superblock survives a torn write.
  int slot = static_cast<int>(next_seq % 2);
  ssize_t wrote =
      ::pwrite(fd_, buf.data(), buf.size(),
               static_cast<off_t>(slot * kSuperblockSlotSize));
  if (wrote != static_cast<ssize_t>(buf.size())) {
    return IoError("short superblock write");
  }
  if (::fdatasync(fd_) != 0) {
    return IoError("fdatasync failed");
  }
  superblock_seq_ = next_seq;
  obs::Count("untrusted_store.superblock_writes");
  return OkStatus();
}

}  // namespace tdb
