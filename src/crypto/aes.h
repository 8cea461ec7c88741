// AES-128 (FIPS 197). The modern block cipher offered as a per-partition
// option alongside the paper's DES/3DES ("There are other, more secure,
// algorithms that run faster than DES", §9.2.1).

#ifndef SRC_CRYPTO_AES_H_
#define SRC_CRYPTO_AES_H_

#include <cstdint>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/kernels.h"

namespace tdb {

// Runs the AES-NI kernels when the CPU has them and the portable FIPS 197
// code otherwise (see kernels.h); both give the same bytes.
class Aes128 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 16;

  static Result<Aes128> Create(ByteView key);

  void EncryptBlock(const uint8_t* in, uint8_t* out) const;
  void DecryptBlock(const uint8_t* in, uint8_t* out) const;
  // CBC-decrypts `blocks` consecutive blocks: out[i] = D(in[i]) ^ in[i-1],
  // with in[-1] = iv.
  void DecryptCbc(const uint8_t* iv, const uint8_t* in, uint8_t* out,
                  size_t blocks) const;

 private:
  Aes128() = default;

  uint8_t round_keys_[kernels::kAes128ScheduleSize] = {};
  // Set when the AES-NI kernels run; dec_keys_ then holds their decryption
  // schedule.
  bool hardware_ = false;
  uint8_t dec_keys_[kernels::kAes128ScheduleSize] = {};
};

}  // namespace tdb

#endif  // SRC_CRYPTO_AES_H_
