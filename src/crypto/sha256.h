// SHA-256 (FIPS 180-2). The modern collision-resistant hash alternative
// offered for partitions whose data warrants stronger protection than SHA-1
// (the paper lets each partition pick its own hash function, §2.2).

#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <cstdint>

#include "src/common/bytes.h"

namespace tdb {

class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();

  void Update(ByteView data);
  // Finalizes and returns the 32-byte digest; resets for reuse.
  Bytes Finish();

  static Bytes Hash(ByteView data);

 private:
  void Reset();
  void ProcessBlock(const uint8_t* block) { ProcessBlocks(block, 1); }
  // Compresses `n` consecutive blocks with SHA-NI when the CPU has it and
  // the portable kernel otherwise (see kernels.h).
  void ProcessBlocks(const uint8_t* data, size_t n);

  uint32_t h_[8];
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_;
  uint64_t total_len_;
};

}  // namespace tdb

#endif  // SRC_CRYPTO_SHA256_H_
