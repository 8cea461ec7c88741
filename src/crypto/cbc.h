// The Cipher interface and CBC-mode implementations over the block ciphers.
//
// A partition encrypts each chunk version independently (§4.9.1), so the
// Cipher interface is message-oriented: Encrypt produces a self-contained
// ciphertext (IV prepended) and Decrypt recovers the plaintext. IVs are
// derived by encrypting a per-cipher message counter, which never repeats
// under one key and is unpredictable to parties without the key.

#ifndef SRC_CRYPTO_CBC_H_
#define SRC_CRYPTO_CBC_H_

#include <atomic>
#include <memory>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/aes.h"
#include "src/crypto/des.h"

namespace tdb {

class Cipher {
 public:
  virtual ~Cipher() = default;

  // Encrypts `plaintext`; the result embeds everything Decrypt needs.
  virtual Bytes Encrypt(ByteView plaintext) = 0;

  // Inverse of Encrypt. Returns kCorruption if the ciphertext is structurally
  // invalid (bad length or padding). Note: padding checks are an integrity
  // *heuristic* only; real tamper detection is the hash tree above.
  virtual Result<Bytes> Decrypt(ByteView ciphertext) const = 0;

  // Ciphertext size for a plaintext of `plaintext_size` bytes (IV + padding).
  virtual size_t CiphertextSize(size_t plaintext_size) const = 0;

  virtual std::string_view name() const = 0;
};

// Identity cipher for partitions that need tamper detection but no secrecy
// (§2.2: an application "may have no need to encrypt some data").
class NullCipher final : public Cipher {
 public:
  Bytes Encrypt(ByteView plaintext) override;
  Result<Bytes> Decrypt(ByteView ciphertext) const override;
  size_t CiphertextSize(size_t plaintext_size) const override {
    return plaintext_size;
  }
  std::string_view name() const override { return "none"; }
};

// CBC mode with PKCS#7 padding over any fixed-size block cipher.
template <typename BlockCipherT>
class CbcCipher final : public Cipher {
 public:
  CbcCipher(BlockCipherT block_cipher, std::string_view name)
      : block_(std::move(block_cipher)), name_(name) {}

  Bytes Encrypt(ByteView plaintext) override;
  Result<Bytes> Decrypt(ByteView ciphertext) const override;

  size_t CiphertextSize(size_t plaintext_size) const override {
    constexpr size_t b = BlockCipherT::kBlockSize;
    // IV block + padded payload (always at least one padding byte).
    return b + (plaintext_size / b + 1) * b;
  }

  std::string_view name() const override { return name_; }

 private:
  BlockCipherT block_;
  std::string_view name_;
  // The last message sequence number used. Atomic because a backup stream
  // encrypts under the store's shared system suite, outside the store
  // mutex, while commits do; two encrypts must never share an IV (IV reuse
  // would break CBC secrecy).
  std::atomic<uint64_t> iv_counter_{0};
};

using DesCbc = CbcCipher<Des>;
using TripleDesCbc = CbcCipher<TripleDes>;
using Aes128Cbc = CbcCipher<Aes128>;

}  // namespace tdb

#endif  // SRC_CRYPTO_CBC_H_
