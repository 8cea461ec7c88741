#include "src/crypto/cbc.h"

#include <cstring>

namespace tdb {

Bytes NullCipher::Encrypt(ByteView plaintext) {
  return Bytes(plaintext.begin(), plaintext.end());
}

Bytes NullCipher::EncryptWithSeq(uint64_t, ByteView plaintext) const {
  return Bytes(plaintext.begin(), plaintext.end());
}

Result<Bytes> NullCipher::Decrypt(ByteView ciphertext) const {
  return Bytes(ciphertext.begin(), ciphertext.end());
}

template <typename BlockCipherT>
Bytes CbcCipher<BlockCipherT>::Encrypt(ByteView plaintext) {
  return EncryptWithSeq(ReserveSeqs(1), plaintext);
}

template <typename BlockCipherT>
Bytes CbcCipher<BlockCipherT>::EncryptWithSeq(uint64_t seq,
                                              ByteView plaintext) const {
  constexpr size_t b = BlockCipherT::kBlockSize;
  size_t pad = b - plaintext.size() % b;  // 1..b
  size_t padded_size = plaintext.size() + pad;

  // One allocation, written in place: IV block then the CBC chain.
  Bytes out(b + padded_size);
  uint8_t counter_block[b] = {0};
  std::memcpy(counter_block, &seq, sizeof(seq) < b ? sizeof(seq) : b);
  block_.EncryptBlock(counter_block, out.data());  // IV = E_k(seq)

  uint8_t* body = out.data() + b;
  if (!plaintext.empty()) {
    std::memcpy(body, plaintext.data(), plaintext.size());
  }
  std::memset(body + plaintext.size(), static_cast<int>(pad), pad);
  for (size_t off = 0; off < padded_size; off += b) {
    uint8_t* block = body + off;
    for (size_t i = 0; i < b; ++i) {
      block[i] ^= block[i - b];  // the previous ciphertext block, or the IV
    }
    block_.EncryptBlock(block, block);
  }
  return out;
}

namespace {

// CBC-decrypts `blocks` blocks that follow their IV in memory: out[i] =
// D(in[i]) ^ in[i-1], with in[-1] = in - block size.
template <typename BlockCipherT>
void DecryptChain(const BlockCipherT& cipher, const uint8_t* in, uint8_t* out,
                  size_t blocks) {
  constexpr size_t b = BlockCipherT::kBlockSize;
  for (size_t i = 0; i < blocks; ++i) {
    cipher.DecryptBlock(in + i * b, out + i * b);
    for (size_t j = 0; j < b; ++j) {
      out[i * b + j] ^= in[i * b + j - b];
    }
  }
}

// AES-128 decrypts several blocks at once.
void DecryptChain(const Aes128& cipher, const uint8_t* in, uint8_t* out,
                  size_t blocks) {
  cipher.DecryptCbc(in - Aes128::kBlockSize, in, out, blocks);
}

}  // namespace

template <typename BlockCipherT>
Result<Bytes> CbcCipher<BlockCipherT>::Decrypt(ByteView ciphertext) const {
  constexpr size_t b = BlockCipherT::kBlockSize;
  if (ciphertext.size() < 2 * b || ciphertext.size() % b != 0) {
    return CorruptionError("CBC: ciphertext length not a multiple of block");
  }
  Bytes out(ciphertext.size() - b);
  DecryptChain(block_, ciphertext.data() + b, out.data(), out.size() / b);
  // Strip PKCS#7 padding.
  uint8_t pad = out.back();
  if (pad == 0 || pad > b || pad > out.size()) {
    return CorruptionError("CBC: invalid padding");
  }
  for (size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) {
      return CorruptionError("CBC: invalid padding");
    }
  }
  out.resize(out.size() - pad);
  return out;
}

template class CbcCipher<Des>;
template class CbcCipher<TripleDes>;
template class CbcCipher<Aes128>;

}  // namespace tdb
