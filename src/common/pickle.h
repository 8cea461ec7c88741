// Pickling streams: compact, portable serialization used for chunk headers,
// map chunks, leaders, commit chunks, backup descriptors, and application
// objects (§2.2 "TDB pickles objects using application-provided methods so
// the stored representation is compact and portable").
//
// Integers are varint-encoded; byte strings and strings are length-prefixed.
// The reader is fail-soft: reading past the end or hitting a malformed varint
// sets an error flag checked once via Done()/ok(), so the parsing code for a
// record stays linear.

#ifndef SRC_COMMON_PICKLE_H_
#define SRC_COMMON_PICKLE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace tdb {

class PickleWriter {
 public:
  PickleWriter() = default;

  void WriteU8(uint8_t v);
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteVarint(uint64_t v);
  void WriteI64(int64_t v);  // zigzag varint
  void WriteBool(bool v);
  void WriteBytes(ByteView b);    // length-prefixed
  void WriteString(std::string_view s);
  void WriteRaw(ByteView b);      // no length prefix

  const Bytes& data() const { return data_; }
  Bytes Take() { return std::move(data_); }
  size_t size() const { return data_.size(); }

 private:
  Bytes data_;
};

class PickleReader {
 public:
  explicit PickleReader(ByteView data) : data_(data) {}

  uint8_t ReadU8();
  uint16_t ReadU16();
  uint32_t ReadU32();
  uint64_t ReadU64();
  uint64_t ReadVarint();
  int64_t ReadI64();
  bool ReadBool();
  Bytes ReadBytes();
  std::string ReadString();
  Bytes ReadRaw(size_t n);
  // Reads an element count (a varint) and fails the reader, returning 0,
  // when that many elements of at least `min_bytes_per_element` bytes each
  // could not fit in the bytes left. Decoders read their element counts
  // through it, so a forged count can force neither a large allocation nor
  // a long loop.
  uint64_t ReadCount(size_t min_bytes_per_element);

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

  // Returns OK iff no read failed and the input was fully consumed.
  Status Done() const;
  // Returns OK iff no read failed (trailing bytes allowed).
  Status Check() const;

 private:
  bool Need(size_t n);

  ByteView data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace tdb

#endif  // SRC_COMMON_PICKLE_H_
