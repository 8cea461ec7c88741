#include "src/platform/trusted_store.h"

#include <filesystem>
#include <thread>

#include "src/common/pickle.h"
#include "src/obs/metrics.h"
#include "src/platform/file_util.h"
#include "src/crypto/sha256.h"

namespace tdb {

void ApplyTrustedStoreLatency(const TrustedStoreOptions& options) {
  if (options.write_latency.count() > 0) {
    std::this_thread::sleep_for(options.write_latency);
  }
}

Status MemTamperResistantRegister::Write(ByteView value) {
  ApplyTrustedStoreLatency(options_);
  obs::Count("tamper_resistant_store.writes");
  value_.assign(value.begin(), value.end());
  return OkStatus();
}

Status MemMonotonicCounter::AdvanceTo(uint64_t value) {
  if (value < value_) {
    return InvalidArgumentError("monotonic counter cannot be decremented");
  }
  ApplyTrustedStoreLatency(options_);
  obs::Count("tamper_resistant_store.writes");
  value_ = value;
  return OkStatus();
}

namespace {

// On-disk slot: u64 sequence, pickled payload, sha256 checksum over both.
Bytes EncodeSlot(uint64_t sequence, ByteView payload) {
  PickleWriter w;
  w.WriteU64(sequence);
  w.WriteBytes(payload);
  Bytes body = w.Take();
  Bytes check = Sha256::Hash(body);
  PickleWriter out;
  out.WriteBytes(body);
  out.WriteBytes(check);
  return out.Take();
}

struct DecodedSlot {
  uint64_t sequence;
  Bytes payload;
};

Result<DecodedSlot> DecodeSlot(ByteView raw) {
  PickleReader outer(raw);
  Bytes body = outer.ReadBytes();
  Bytes check = outer.ReadBytes();
  TDB_RETURN_IF_ERROR(outer.Check());
  if (!ConstantTimeEqual(Sha256::Hash(body), check)) {
    return CorruptionError("trusted register slot checksum mismatch");
  }
  PickleReader inner(body);
  DecodedSlot slot;
  slot.sequence = inner.ReadU64();
  slot.payload = inner.ReadBytes();
  TDB_RETURN_IF_ERROR(inner.Done());
  return slot;
}

}  // namespace

std::string FileTamperResistantRegister::SlotPathForTesting(
    const std::string& base, int slot) {
  return base + ".slot" + std::to_string(slot);
}

namespace {

std::string SlotPath(const std::string& base, int slot) {
  return FileTamperResistantRegister::SlotPathForTesting(base, slot);
}

}  // namespace

Result<std::unique_ptr<FileTamperResistantRegister>>
FileTamperResistantRegister::Open(const std::string& path,
                                  TrustedStoreOptions options) {
  auto reg = std::unique_ptr<FileTamperResistantRegister>(
      new FileTamperResistantRegister(path, options));
  // Prime the cache: pick the valid slot with the highest sequence.
  uint64_t best_seq = 0;
  bool found = false;
  Bytes best_payload;
  for (int slot = 0; slot < 2; ++slot) {
    Result<Bytes> raw = ReadWholeFile(SlotPath(path, slot));
    if (!raw.ok()) {
      continue;
    }
    Result<DecodedSlot> decoded = DecodeSlot(*raw);
    if (!decoded.ok()) {
      continue;
    }
    if (!found || decoded->sequence > best_seq) {
      found = true;
      best_seq = decoded->sequence;
      best_payload = std::move(decoded->payload);
    }
  }
  if (found) {
    reg->sequence_ = best_seq;
    reg->cached_ = std::move(best_payload);
    reg->have_cached_ = true;
  }
  return reg;
}

Result<Bytes> FileTamperResistantRegister::Read() const {
  if (!have_cached_) {
    return Bytes{};
  }
  return cached_;
}

Status FileTamperResistantRegister::Write(ByteView value) {
  ApplyTrustedStoreLatency(options_);
  obs::Count("tamper_resistant_store.writes");
  uint64_t next_seq = sequence_ + 1;
  // Alternate slots so the previous value survives a torn write.
  int slot = static_cast<int>(next_seq % 2);
  // Durable write: fsync the slot data and the containing directory — the
  // register's crash-atomicity contract is void if either slot can still sit
  // in a volatile cache when Write() returns.
  TDB_RETURN_IF_ERROR(WriteWholeFileDurable(SlotPath(path_, slot),
                                            EncodeSlot(next_seq, value)));
  sequence_ = next_seq;
  cached_.assign(value.begin(), value.end());
  have_cached_ = true;
  return OkStatus();
}

Result<std::unique_ptr<FileMonotonicCounter>> FileMonotonicCounter::Open(
    const std::string& path, TrustedStoreOptions options) {
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<FileTamperResistantRegister> reg,
                       FileTamperResistantRegister::Open(path, options));
  return std::unique_ptr<FileMonotonicCounter>(
      new FileMonotonicCounter(std::move(reg)));
}

Result<uint64_t> FileMonotonicCounter::Read() const {
  TDB_ASSIGN_OR_RETURN(Bytes raw, reg_->Read());
  if (raw.empty()) {
    return static_cast<uint64_t>(0);
  }
  if (raw.size() != 8) {
    return CorruptionError("counter register has unexpected size");
  }
  return GetU64(raw.data());
}

Status FileMonotonicCounter::AdvanceTo(uint64_t value) {
  TDB_ASSIGN_OR_RETURN(uint64_t current, Read());
  if (value < current) {
    return InvalidArgumentError("monotonic counter cannot be decremented");
  }
  Bytes enc;
  PutU64(enc, value);
  return reg_->Write(enc);
}

}  // namespace tdb
