#include "src/crypto/sha256.h"

#include <cstring>

#include "src/crypto/kernels.h"

namespace tdb {

namespace {

inline uint32_t Rotr32(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

Sha256::Sha256() { Reset(); }

void Sha256::Reset() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  buffer_len_ = 0;
  total_len_ = 0;
}

namespace kernels {

alignas(16) const uint32_t kSha256RoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

void Sha256BlocksPortable(uint32_t* state, const uint8_t* data, size_t n) {
  // The chaining state stays in registers across blocks.
  uint32_t s[8];
  for (int i = 0; i < 8; ++i) s[i] = state[i];
  for (size_t blk = 0; blk < n; ++blk, data += Sha256::kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<uint32_t>(data[i * 4]) << 24 |
             static_cast<uint32_t>(data[i * 4 + 1]) << 16 |
             static_cast<uint32_t>(data[i * 4 + 2]) << 8 |
             static_cast<uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 =
          Rotr32(w[i - 15], 7) ^ Rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 =
          Rotr32(w[i - 2], 17) ^ Rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
    uint32_t e = s[4], f = s[5], g = s[6], h = s[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr32(e, 6) ^ Rotr32(e, 11) ^ Rotr32(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kSha256RoundConstants[i] + w[i];
      uint32_t s0 = Rotr32(a, 2) ^ Rotr32(a, 13) ^ Rotr32(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    s[0] += a;
    s[1] += b;
    s[2] += c;
    s[3] += d;
    s[4] += e;
    s[5] += f;
    s[6] += g;
    s[7] += h;
  }
  for (int i = 0; i < 8; ++i) state[i] = s[i];
}

}  // namespace kernels

void Sha256::ProcessBlocks(const uint8_t* data, size_t n) {
#if TDB_CRYPTO_X86
  if (kernels::HostCpuFeatures().sha) {
    kernels::Sha256NiBlocks(h_, data, n);
    return;
  }
#endif
  kernels::Sha256BlocksPortable(h_, data, n);
}

void Sha256::Update(ByteView data) {
  if (data.empty()) {
    return;  // an empty view may carry a null pointer, which memcpy forbids
  }
  total_len_ += data.size();
  size_t pos = 0;
  if (buffer_len_ > 0) {
    size_t need = kBlockSize - buffer_len_;
    size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    pos = take;
    if (buffer_len_ == kBlockSize) {
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }
  if (size_t whole = (data.size() - pos) / kBlockSize; whole > 0) {
    ProcessBlocks(data.data() + pos, whole);
    pos += whole * kBlockSize;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_, data.data() + pos, data.size() - pos);
    buffer_len_ = data.size() - pos;
  }
}

Bytes Sha256::Finish() {
  uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  ProcessBlock(buffer_);

  Bytes digest(kDigestSize);
  for (int i = 0; i < 8; ++i) {
    digest[i * 4] = static_cast<uint8_t>(h_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(h_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(h_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(h_[i]);
  }
  Reset();
  return digest;
}

Bytes Sha256::Hash(ByteView data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

}  // namespace tdb
