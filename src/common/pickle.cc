#include "src/common/pickle.h"

namespace tdb {

void PickleWriter::WriteU8(uint8_t v) { data_.push_back(v); }

void PickleWriter::WriteU16(uint16_t v) { PutU16(data_, v); }

void PickleWriter::WriteU32(uint32_t v) { PutU32(data_, v); }

void PickleWriter::WriteU64(uint64_t v) { PutU64(data_, v); }

void PickleWriter::WriteVarint(uint64_t v) {
  while (v >= 0x80) {
    data_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  data_.push_back(static_cast<uint8_t>(v));
}

void PickleWriter::WriteI64(int64_t v) {
  uint64_t zz = (static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63);
  WriteVarint(zz);
}

void PickleWriter::WriteBool(bool v) { WriteU8(v ? 1 : 0); }

void PickleWriter::WriteBytes(ByteView b) {
  WriteVarint(b.size());
  Append(data_, b);
}

void PickleWriter::WriteString(std::string_view s) {
  WriteVarint(s.size());
  data_.insert(data_.end(), s.begin(), s.end());
}

void PickleWriter::WriteRaw(ByteView b) { Append(data_, b); }

bool PickleReader::Need(size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t PickleReader::ReadU8() {
  if (!Need(1)) {
    return 0;
  }
  return data_[pos_++];
}

uint16_t PickleReader::ReadU16() {
  if (!Need(2)) {
    return 0;
  }
  uint16_t v = GetU16(data_.data() + pos_);
  pos_ += 2;
  return v;
}

uint32_t PickleReader::ReadU32() {
  if (!Need(4)) {
    return 0;
  }
  uint32_t v = GetU32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

uint64_t PickleReader::ReadU64() {
  if (!Need(8)) {
    return 0;
  }
  uint64_t v = GetU64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

uint64_t PickleReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (!Need(1) || shift > 63) {
      ok_ = false;
      return 0;
    }
    uint8_t byte = data_[pos_++];
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return v;
    }
    shift += 7;
  }
}

int64_t PickleReader::ReadI64() {
  uint64_t zz = ReadVarint();
  return static_cast<int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
}

bool PickleReader::ReadBool() { return ReadU8() != 0; }

Bytes PickleReader::ReadBytes() {
  uint64_t n = ReadVarint();
  return ReadRaw(n);
}

std::string PickleReader::ReadString() {
  uint64_t n = ReadVarint();
  if (!Need(n)) {
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

Bytes PickleReader::ReadRaw(size_t n) {
  if (!Need(n)) {
    return {};
  }
  Bytes b(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return b;
}

uint64_t PickleReader::ReadCount(size_t min_bytes_per_element) {
  uint64_t n = ReadVarint();
  if (ok_ && n > remaining() / min_bytes_per_element) {
    ok_ = false;
  }
  return ok_ ? n : 0;
}

Status PickleReader::Done() const {
  if (!ok_) {
    return CorruptionError("pickle: truncated or malformed record");
  }
  if (pos_ != data_.size()) {
    return CorruptionError("pickle: trailing bytes after record");
  }
  return OkStatus();
}

Status PickleReader::Check() const {
  if (!ok_) {
    return CorruptionError("pickle: truncated or malformed record");
  }
  return OkStatus();
}

}  // namespace tdb
