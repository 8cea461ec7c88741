// Unit tests for the crypto substrate: known-answer vectors for SHA-1,
// SHA-256, DES, 3DES, AES-128, and HMAC, plus round-trip and negative tests
// for CBC mode and the suite registry, and a cross-check of each hardware
// kernel against the portable one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/crypto/aes.h"
#include "src/crypto/cbc.h"
#include "src/crypto/des.h"
#include "src/crypto/hmac.h"
#include "src/crypto/kernels.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "src/crypto/suite.h"

namespace tdb {
namespace {

TEST(Sha1Test, KnownVectors) {
  EXPECT_EQ(HexEncode(Sha1::Hash(BytesFromString(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(HexEncode(Sha1::Hash(BytesFromString("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(HexEncode(Sha1::Hash(BytesFromString(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  Sha1 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(HexEncode(h.Finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  Bytes data = BytesFromString("the quick brown fox jumps over the lazy dog");
  for (size_t split = 0; split <= data.size(); ++split) {
    Sha1 h;
    h.Update(ByteView(data.data(), split));
    h.Update(ByteView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.Finish(), Sha1::Hash(data)) << "split=" << split;
  }
}

TEST(Sha1Test, ReusableAfterFinish) {
  Sha1 h;
  h.Update(BytesFromString("abc"));
  Bytes first = h.Finish();
  h.Update(BytesFromString("abc"));
  EXPECT_EQ(h.Finish(), first);
}

TEST(Sha256Test, KnownVectors) {
  EXPECT_EQ(
      HexEncode(Sha256::Hash(BytesFromString(""))),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      HexEncode(Sha256::Hash(BytesFromString("abc"))),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      HexEncode(Sha256::Hash(BytesFromString(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(
      HexEncode(h.Finish()),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, PaddingBoundaries) {
  // Lengths around the 55/56/64-byte padding boundaries.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    Bytes data(len, 'x');
    Sha256 h;
    h.Update(data);
    EXPECT_EQ(h.Finish(), Sha256::Hash(data)) << "len=" << len;
  }
}

TEST(DesTest, Fips81KnownVector) {
  // FIPS PUB 81 example: key 0123456789abcdef, plaintext "Now is t".
  Bytes key = HexDecode("0123456789abcdef");
  Bytes plain = HexDecode("4e6f772069732074");
  auto des = Des::Create(key);
  ASSERT_TRUE(des.ok());
  uint8_t out[8];
  des->EncryptBlock(plain.data(), out);
  EXPECT_EQ(HexEncode(ByteView(out, 8)), "3fa40e8a984d4815");
  uint8_t back[8];
  des->DecryptBlock(out, back);
  EXPECT_EQ(Bytes(back, back + 8), plain);
}

TEST(DesTest, WeakKeyStillRoundTrips) {
  Bytes key = HexDecode("0101010101010101");
  auto des = Des::Create(key);
  ASSERT_TRUE(des.ok());
  Bytes plain = HexDecode("95f8a5e5dd31d900");
  uint8_t ct[8], back[8];
  des->EncryptBlock(plain.data(), ct);
  des->DecryptBlock(ct, back);
  EXPECT_EQ(Bytes(back, back + 8), plain);
}

TEST(DesTest, RejectsBadKeySize) {
  EXPECT_FALSE(Des::Create(HexDecode("0123456789")).ok());
}

TEST(TripleDesTest, KnownVector) {
  // NIST SP 800-67 style EDE3 vector with three distinct keys.
  Bytes key = HexDecode(
      "0123456789abcdef23456789abcdef01456789abcdef0123");
  Bytes plain = BytesFromString("The qufck");
  plain.resize(8);
  auto tdes = TripleDes::Create(key);
  ASSERT_TRUE(tdes.ok());
  uint8_t ct[8], back[8];
  tdes->EncryptBlock(plain.data(), ct);
  tdes->DecryptBlock(ct, back);
  EXPECT_EQ(Bytes(back, back + 8), plain);
}

TEST(TripleDesTest, DegeneratesToSingleDesWithRepeatedKey) {
  Bytes single = HexDecode("0123456789abcdef");
  Bytes triple;
  for (int i = 0; i < 3; ++i) {
    Append(triple, single);
  }
  auto des = Des::Create(single);
  auto tdes = TripleDes::Create(triple);
  ASSERT_TRUE(des.ok());
  ASSERT_TRUE(tdes.ok());
  Bytes plain = HexDecode("4e6f772069732074");
  uint8_t a[8], b[8];
  des->EncryptBlock(plain.data(), a);
  tdes->EncryptBlock(plain.data(), b);
  EXPECT_EQ(Bytes(a, a + 8), Bytes(b, b + 8));
}

TEST(Aes128Test, Fips197KnownVector) {
  Bytes key = HexDecode("000102030405060708090a0b0c0d0e0f");
  Bytes plain = HexDecode("00112233445566778899aabbccddeeff");
  auto aes = Aes128::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t ct[16];
  aes->EncryptBlock(plain.data(), ct);
  EXPECT_EQ(HexEncode(ByteView(ct, 16)),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes->DecryptBlock(ct, back);
  EXPECT_EQ(Bytes(back, back + 16), plain);
}

using BlockFn = void (*)(const uint8_t*, const uint8_t*, uint8_t*);

// CBC over one block kernel; `data` is a whole number of blocks.
Bytes CbcEncryptWith(BlockFn encrypt, const uint8_t* schedule,
                     const uint8_t* iv, ByteView data) {
  Bytes out(data.begin(), data.end());
  const uint8_t* prev = iv;
  for (size_t off = 0; off < out.size(); off += 16) {
    for (size_t i = 0; i < 16; ++i) out[off + i] ^= prev[i];
    encrypt(schedule, out.data() + off, out.data() + off);
    prev = out.data() + off;
  }
  return out;
}

Bytes CbcDecryptWith(BlockFn decrypt, const uint8_t* schedule,
                     const uint8_t* iv, ByteView data) {
  Bytes out(data.size());
  const uint8_t* prev = iv;
  for (size_t off = 0; off < out.size(); off += 16) {
    decrypt(schedule, data.data() + off, out.data() + off);
    for (size_t i = 0; i < 16; ++i) out[off + i] ^= prev[i];
    prev = data.data() + off;
  }
  return out;
}

TEST(Aes128Test, NistSp80038aCbcVectors) {
  // SP 800-38A F.2.1 (CBC-AES128.Encrypt) and F.2.2 (CBC-AES128.Decrypt).
  Bytes key = HexDecode("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes iv = HexDecode("000102030405060708090a0b0c0d0e0f");
  Bytes plain = HexDecode(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  Bytes cipher = HexDecode(
      "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2"
      "73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7");

  // The class, with whichever kernel this CPU selects.
  auto aes = Aes128::Create(key);
  ASSERT_TRUE(aes.ok());
  Bytes ct(plain.size());
  const uint8_t* prev = iv.data();
  for (size_t off = 0; off < plain.size(); off += 16) {
    uint8_t block[16];
    for (size_t i = 0; i < 16; ++i) block[i] = plain[off + i] ^ prev[i];
    aes->EncryptBlock(block, ct.data() + off);
    prev = ct.data() + off;
  }
  EXPECT_EQ(ct, cipher);
  Bytes pt(cipher.size());
  aes->DecryptCbc(iv.data(), cipher.data(), pt.data(), cipher.size() / 16);
  EXPECT_EQ(pt, plain);
  for (size_t blocks = 0; blocks <= 4; ++blocks) {  // short tails too
    Bytes part(blocks * 16);
    aes->DecryptCbc(iv.data(), cipher.data(), part.data(), blocks);
    EXPECT_EQ(part, Bytes(plain.begin(), plain.begin() + part.size()));
  }

  // The portable kernels, whatever this CPU has.
  uint8_t schedule[kernels::kAes128ScheduleSize];
  kernels::Aes128ExpandKey(key.data(), schedule);
  EXPECT_EQ(CbcEncryptWith(kernels::Aes128EncryptPortable, schedule,
                           iv.data(), plain),
            cipher);
  EXPECT_EQ(CbcDecryptWith(kernels::Aes128DecryptPortable, schedule,
                           iv.data(), cipher),
            plain);
}

// --- Hardware kernels against the portable ones ---------------------------
//
// Each check skips on a CPU without the feature: there only the portable
// kernel ever runs, and the known-answer tests above cover it.

#if TDB_CRYPTO_X86
using Sha256BlocksFn = void (*)(uint32_t*, const uint8_t*, size_t);

// SHA-256 of `data` through one compression kernel, padded per FIPS 180-4.
Bytes Sha256With(Sha256BlocksFn blocks, ByteView data) {
  uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                   0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  size_t whole = data.size() / 64;
  blocks(h, data.data(), whole);
  Bytes tail(data.begin() + whole * 64, data.end());
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  uint64_t bits = static_cast<uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    tail.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  blocks(h, tail.data(), tail.size() / 64);
  Bytes digest;
  for (uint32_t word : h) {
    for (int i = 3; i >= 0; --i) {
      digest.push_back(static_cast<uint8_t>(word >> (8 * i)));
    }
  }
  return digest;
}
#endif  // TDB_CRYPTO_X86

TEST(HardwareKernelTest, AesNiMatchesPortable) {
#if TDB_CRYPTO_X86
  if (!kernels::HostCpuFeatures().aes) {
    GTEST_SKIP() << "this CPU has no AES-NI; only the portable AES runs here";
  }
  Rng rng(0xAE5128);
  for (size_t len = 0; len <= 4096; ++len) {
    Bytes key = rng.NextBytes(16);
    uint8_t schedule[kernels::kAes128ScheduleSize];
    uint8_t dec_schedule[kernels::kAes128ScheduleSize];
    kernels::Aes128ExpandKey(key.data(), schedule);
    kernels::Aes128NiDecryptSchedule(schedule, dec_schedule);
    Bytes iv = rng.NextBytes(16);
    Bytes plain = rng.NextBytes(len);
    Bytes padded = plain;  // PKCS#7, as CbcCipher pads
    padded.insert(padded.end(), 16 - len % 16,
                  static_cast<uint8_t>(16 - len % 16));

    Bytes ct = CbcEncryptWith(kernels::Aes128EncryptPortable, schedule,
                              iv.data(), padded);
    ASSERT_EQ(CbcEncryptWith(kernels::Aes128NiEncrypt, schedule, iv.data(),
                             padded),
              ct)
        << "len=" << len;
    ASSERT_EQ(CbcDecryptWith(kernels::Aes128DecryptPortable, schedule,
                             iv.data(), ct),
              padded)
        << "len=" << len;
    ASSERT_EQ(CbcDecryptWith(kernels::Aes128NiDecrypt, dec_schedule,
                             iv.data(), ct),
              padded)
        << "len=" << len;
    Bytes in_place = ct;
    kernels::Aes128NiDecryptCbc(dec_schedule, iv.data(), in_place.data(),
                                in_place.data(), in_place.size() / 16);
    ASSERT_EQ(in_place, padded) << "len=" << len;

    // The cipher the chunk store runs: IV = E_k(seq), then the CBC chain.
    auto aes = Aes128::Create(key);
    ASSERT_TRUE(aes.ok());
    Aes128Cbc cbc(*aes, "aes128-cbc");
    uint64_t seq = rng.NextU64();
    uint8_t counter[16] = {0};
    std::memcpy(counter, &seq, sizeof(seq));
    uint8_t seq_iv[16];
    kernels::Aes128EncryptPortable(schedule, counter, seq_iv);
    Bytes expected(seq_iv, seq_iv + 16);
    Append(expected, CbcEncryptWith(kernels::Aes128EncryptPortable, schedule,
                                    seq_iv, padded));
    Bytes sealed = cbc.EncryptWithSeq(seq, plain);
    ASSERT_EQ(sealed, expected) << "len=" << len;
    auto opened = cbc.Decrypt(sealed);
    ASSERT_TRUE(opened.ok()) << "len=" << len;
    ASSERT_EQ(*opened, plain) << "len=" << len;
  }
#else
  GTEST_SKIP() << "not an x86-64 build; only the portable AES is compiled";
#endif
}

TEST(HardwareKernelTest, ShaNiMatchesPortable) {
#if TDB_CRYPTO_X86
  if (!kernels::HostCpuFeatures().sha) {
    GTEST_SKIP() << "this CPU has no SHA-NI; only the portable SHA-256 runs "
                    "here";
  }
  Rng rng(0x5A256);
  Bytes data = rng.NextBytes(4096);
  for (size_t len = 0; len <= data.size(); ++len) {
    ByteView view(data.data(), len);
    Bytes expected = Sha256With(kernels::Sha256BlocksPortable, view);
    ASSERT_EQ(Sha256With(kernels::Sha256NiBlocks, view), expected)
        << "len=" << len;
    ASSERT_EQ(Sha256::Hash(view), expected) << "len=" << len;
  }
  // The compression function from arbitrary chaining states.
  for (size_t n = 0; n <= data.size() / 64; ++n) {
    uint32_t portable[8], hardware[8];
    for (int i = 0; i < 8; ++i) {
      portable[i] = hardware[i] = static_cast<uint32_t>(rng.NextU64());
    }
    kernels::Sha256BlocksPortable(portable, data.data(), n);
    kernels::Sha256NiBlocks(hardware, data.data(), n);
    ASSERT_EQ(0, std::memcmp(portable, hardware, sizeof(portable)))
        << "blocks=" << n;
  }
#else
  GTEST_SKIP() << "not an x86-64 build; only the portable SHA-256 is compiled";
#endif
}

TEST(HardwareKernelTest, DescribesDetectedFeatures) {
  const kernels::CpuFeatures& features = kernels::HostCpuFeatures();
  EXPECT_EQ(&features, &kernels::HostCpuFeatures());  // probed once
  std::string text = kernels::DescribeCpuFeatures(features);
  EXPECT_EQ(text.find("aes-ni") != std::string::npos, features.aes) << text;
  EXPECT_EQ(text.find("sha-ni") != std::string::npos, features.sha) << text;
  EXPECT_EQ(kernels::DescribeCpuFeatures({}), "none");
}

TEST(HmacTest, Rfc2202Sha1Vectors) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(HexEncode(HmacSha1(key, BytesFromString("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
  EXPECT_EQ(HexEncode(HmacSha1(BytesFromString("Jefe"),
                               BytesFromString("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacTest, Rfc4231Sha256Vector) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(
      HexEncode(HmacSha256(key, BytesFromString("Hi There"))),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  Bytes key(200, 0xaa);  // longer than the block size
  Bytes mac = HmacSha256(key, BytesFromString("data"));
  EXPECT_EQ(mac.size(), Sha256::kDigestSize);
}

class CbcRoundTripTest : public ::testing::TestWithParam<CipherAlg> {};

TEST_P(CbcRoundTripTest, RoundTripsAllSizes) {
  CryptoParams params;
  params.cipher = GetParam();
  params.hash = HashAlg::kSha256;
  params.key = Bytes(CipherKeySize(params.cipher), 0x42);
  auto suite = CryptoSuite::Create(params);
  ASSERT_TRUE(suite.ok());
  for (size_t len : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 100u, 1000u}) {
    Bytes plain(len);
    for (size_t i = 0; i < len; ++i) {
      plain[i] = static_cast<uint8_t>(i * 7);
    }
    Bytes ct = suite->Encrypt(plain);
    EXPECT_EQ(ct.size(), suite->CiphertextSize(len)) << "len=" << len;
    auto back = suite->Decrypt(ct);
    ASSERT_TRUE(back.ok()) << "len=" << len;
    EXPECT_EQ(*back, plain);
  }
}

TEST_P(CbcRoundTripTest, DistinctMessagesGetDistinctCiphertexts) {
  if (GetParam() == CipherAlg::kNone) {
    GTEST_SKIP() << "null cipher is deterministic by definition";
  }
  CryptoParams params;
  params.cipher = GetParam();
  params.hash = HashAlg::kSha256;
  params.key = Bytes(CipherKeySize(params.cipher), 0x42);
  auto suite = CryptoSuite::Create(params);
  ASSERT_TRUE(suite.ok());
  Bytes plain = BytesFromString("identical plaintext");
  // Same plaintext encrypted twice must differ (fresh IVs).
  EXPECT_NE(suite->Encrypt(plain), suite->Encrypt(plain));
}

INSTANTIATE_TEST_SUITE_P(AllCiphers, CbcRoundTripTest,
                         ::testing::Values(CipherAlg::kNone, CipherAlg::kDes,
                                           CipherAlg::kTripleDes,
                                           CipherAlg::kAes128));

TEST(CbcTest, RejectsTruncatedCiphertext) {
  auto aes = Aes128::Create(Bytes(16, 1));
  ASSERT_TRUE(aes.ok());
  Aes128Cbc cbc(*aes, "aes128-cbc");
  Bytes ct = cbc.Encrypt(BytesFromString("hello world"));
  EXPECT_FALSE(cbc.Decrypt(ByteView(ct.data(), ct.size() - 1)).ok());
  EXPECT_FALSE(cbc.Decrypt(ByteView(ct.data(), 16)).ok());
}

TEST(CbcTest, WrongKeyFailsPaddingOrGarbles) {
  auto aes1 = Aes128::Create(Bytes(16, 1));
  auto aes2 = Aes128::Create(Bytes(16, 2));
  Aes128Cbc enc(*aes1, "aes128-cbc");
  Aes128Cbc dec(*aes2, "aes128-cbc");
  Bytes plain = BytesFromString("some secret data here");
  Bytes ct = enc.Encrypt(plain);
  auto back = dec.Decrypt(ct);
  if (back.ok()) {
    EXPECT_NE(*back, plain);  // 1/256 chance padding accidentally validates
  }
}

// Regression: ReserveSeqs used a plain counter, so a backup stream reserving
// IVs while commits reserved from the same shared suite could hand out
// overlapping sequence ranges (CBC IV reuse). Racing reservers must get
// disjoint ranges; TSan additionally flags the old unsynchronized counter.
TEST(CbcTest, ConcurrentSeqReservationsAreDisjoint) {
  auto aes = Aes128::Create(Bytes(16, 1));
  ASSERT_TRUE(aes.ok());
  Aes128Cbc cbc(*aes, "aes128-cbc");

  constexpr int kThreads = 8;
  constexpr int kReservesPerThread = 2000;
  constexpr size_t kSpan = 3;  // each reservation claims seqs [first, first+2]
  std::vector<std::vector<uint64_t>> firsts(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cbc, &firsts, t] {
      firsts[t].reserve(kReservesPerThread);
      for (int i = 0; i < kReservesPerThread; ++i) {
        firsts[t].push_back(cbc.ReserveSeqs(kSpan));
      }
    });
  }
  for (auto& w : workers) w.join();

  std::vector<uint64_t> all;
  for (const auto& per_thread : firsts) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(kThreads * kReservesPerThread));
  EXPECT_EQ(all.front(), 1u);  // first reservation continues the serial path
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_EQ(all[i], all[i - 1] + kSpan) << "overlapping IV ranges at " << i;
  }
}

TEST(SuiteTest, ParamsPickleRoundTrip) {
  CryptoParams params;
  params.cipher = CipherAlg::kTripleDes;
  params.hash = HashAlg::kSha1;
  params.key = Bytes(24, 7);
  PickleWriter w;
  params.Pickle(w);
  PickleReader r(w.data());
  auto back = CryptoParams::Unpickle(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->cipher, params.cipher);
  EXPECT_EQ(back->hash, params.hash);
  EXPECT_EQ(back->key, params.key);
}

TEST(SuiteTest, RejectsMismatchedKeyLength) {
  CryptoParams params;
  params.cipher = CipherAlg::kAes128;
  params.hash = HashAlg::kSha256;
  params.key = Bytes(8, 1);  // too short for AES-128
  EXPECT_FALSE(CryptoSuite::Create(params).ok());
}

TEST(SuiteTest, MacIsKeyDependent) {
  CryptoParams a{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 1)};
  CryptoParams b{CipherAlg::kAes128, HashAlg::kSha256, Bytes(16, 2)};
  auto sa = CryptoSuite::Create(a);
  auto sb = CryptoSuite::Create(b);
  ASSERT_TRUE(sa.ok() && sb.ok());
  Bytes data = BytesFromString("message");
  EXPECT_NE(sa->Mac(data), sb->Mac(data));
}

TEST(ConstantTimeEqualTest, Basics) {
  EXPECT_TRUE(ConstantTimeEqual(BytesFromString("abc"), BytesFromString("abc")));
  EXPECT_FALSE(ConstantTimeEqual(BytesFromString("abc"), BytesFromString("abd")));
  EXPECT_FALSE(ConstantTimeEqual(BytesFromString("abc"), BytesFromString("ab")));
  EXPECT_TRUE(ConstantTimeEqual({}, {}));
}

}  // namespace
}  // namespace tdb
