// The cryptographic parameter registry: each partition protects its chunks
// with its own (secret key, cipher, collision-resistant hash function)
// triple (§2.2). CryptoSuite bundles one such triple with ready-to-use
// operations; CryptoParams is its serializable description stored in the
// partition leader (§5.2).

#ifndef SRC_CRYPTO_SUITE_H_
#define SRC_CRYPTO_SUITE_H_

#include <memory>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/pickle.h"
#include "src/common/status.h"
#include "src/crypto/cbc.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"

namespace tdb {

enum class CipherAlg : uint8_t {
  kNone = 0,       // no secrecy
  kDes = 1,        // paper's default for ordinary partitions
  kTripleDes = 2,  // paper's choice for the system partition
  kAes128 = 3,     // modern default
};

enum class HashAlg : uint8_t {
  kSha1 = 0,    // paper's choice
  kSha256 = 1,  // modern default
};

std::string_view CipherAlgName(CipherAlg alg);
std::string_view HashAlgName(HashAlg alg);

// Key length required by a cipher (0 for kNone).
size_t CipherKeySize(CipherAlg alg);
// Digest length produced by a hash algorithm.
size_t HashDigestSize(HashAlg alg);

// One-shot hash.
Bytes HashData(HashAlg alg, ByteView data);

// Incremental hash across heterogeneous inputs (used for the sequential
// residual-log hash of §4.8.2.1 and backup signatures of §6.2).
class StreamingHash {
 public:
  explicit StreamingHash(HashAlg alg);
  void Update(ByteView data);
  Bytes Finish();
  HashAlg alg() const { return alg_; }

 private:
  HashAlg alg_;
  Sha1 sha1_;
  Sha256 sha256_;
};

// HMAC with the suite's hash algorithm.
Bytes MacData(HashAlg alg, ByteView key, ByteView data);

Result<std::unique_ptr<Cipher>> MakeCipher(CipherAlg alg, ByteView key);

// Serializable per-partition cryptographic parameters.
struct CryptoParams {
  CipherAlg cipher = CipherAlg::kAes128;
  HashAlg hash = HashAlg::kSha256;
  Bytes key;  // CipherKeySize(cipher) bytes; also keys the MAC

  void Pickle(PickleWriter& w) const;
  static Result<CryptoParams> Unpickle(PickleReader& r);
};

// A live suite: validated params plus an instantiated cipher.
class CryptoSuite {
 public:
  static Result<CryptoSuite> Create(CryptoParams params);

  const CryptoParams& params() const { return params_; }
  HashAlg hash_alg() const { return params_.hash; }
  size_t digest_size() const { return HashDigestSize(params_.hash); }

  Bytes Encrypt(ByteView plaintext) const { return cipher_->Encrypt(plaintext); }
  Result<Bytes> Decrypt(ByteView ciphertext) const {
    return cipher_->Decrypt(ciphertext);
  }
  size_t CiphertextSize(size_t n) const { return cipher_->CiphertextSize(n); }

  Bytes Hash(ByteView data) const { return HashData(params_.hash, data); }
  Bytes Mac(ByteView data) const {
    return MacData(params_.hash, params_.key, data);
  }

 private:
  explicit CryptoSuite(CryptoParams params) : params_(std::move(params)) {}

  CryptoParams params_;
  // shared_ptr so CryptoSuite stays copyable; the cipher is stateful only in
  // its IV counter, which tolerates sharing (atomically monotonic).
  std::shared_ptr<Cipher> cipher_;
};

}  // namespace tdb

#endif  // SRC_CRYPTO_SUITE_H_
