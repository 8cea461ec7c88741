// E1 (§9.2.1): cryptographic bandwidths. The paper reports 3DES-CBC at
// 2.5 MB/s, DES-CBC at 7.2 MB/s, SHA-1 at 21.1 MB/s, and a fixed hash
// "finalization" overhead of ~5 µs on a 450 MHz Pentium II. Absolute
// numbers on modern hardware are far higher; the *ordering* (3DES slowest,
// DES ~3x faster, hashing much faster than encryption) should reproduce.
//
// AES-128 and SHA-256 run the hardware kernels when the CPU has them (see
// src/crypto/kernels.h); each of their rows has a `_portable` row beside it
// that times the portable kernel on the same input.
//
// `--json <path>` writes each measured primitive as a JSON record.

#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/crypto/hmac.h"
#include "src/crypto/kernels.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "src/crypto/suite.h"

namespace tdb::bench {
namespace {

Bytes TestData(size_t size) {
  Rng rng(BenchSeed());
  return rng.NextBytes(size);
}

// Times `fn` over enough repetitions to smooth scheduler noise and records
// one table row + JSON record. `bytes` of 0 suppresses the bandwidth column
// (for fixed-overhead measurements).
void Measure(BenchJson& json, const char* op, size_t bytes, int repetitions,
             const std::function<void()>& fn) {
  fn();  // warm caches and key schedules
  RunningStats stats;
  for (int i = 0; i < repetitions; ++i) {
    stats.Add(TimeUs(fn));
  }
  double mbps =
      bytes > 0 ? static_cast<double>(bytes) / stats.mean() : 0.0;
  if (bytes > 0) {
    std::printf("%-24s %10zu B %12.1f us %10.1f MB/s\n", op, bytes,
                stats.mean(), mbps);
  } else {
    std::printf("%-24s %12s %12.2f us\n", op, "", stats.mean());
  }
  char params[48];
  std::snprintf(params, sizeof(params), "bytes=%zu", bytes);
  json.Add(op, params, stats.mean(), stats.stddev(),
           bytes > 0 ? 1e6 * static_cast<double>(bytes) / stats.mean() : 0.0);
}

void CipherBenches(BenchJson& json, const char* name, CipherAlg alg,
                   size_t bytes, int repetitions) {
  CryptoParams params{alg, HashAlg::kSha1, Bytes(CipherKeySize(alg), 0x42)};
  auto suite = CryptoSuite::Create(params);
  Bytes data = TestData(bytes);
  char op[32];
  std::snprintf(op, sizeof(op), "encrypt_%s", name);
  Measure(json, op, bytes, repetitions,
          [&] { (void)suite->Encrypt(data); });
  Bytes ct = suite->Encrypt(data);
  std::snprintf(op, sizeof(op), "decrypt_%s", name);
  Measure(json, op, bytes, repetitions, [&] { (void)suite->Decrypt(ct); });
}

// CBC-AES-128 over the portable kernel, for comparison with the dispatched
// aes128 rows; `data` is a whole number of blocks.
void PortableAesBenches(BenchJson& json, size_t bytes, int repetitions) {
  uint8_t schedule[kernels::kAes128ScheduleSize];
  kernels::Aes128ExpandKey(Bytes(16, 0x42).data(), schedule);
  Bytes data = TestData(bytes);
  Bytes out(bytes);
  Measure(json, "encrypt_aes128_portable", bytes, repetitions, [&] {
    const uint8_t* prev = schedule;  // any 16 bytes serve as the IV
    for (size_t off = 0; off < bytes; off += 16) {
      uint8_t block[16];
      for (size_t i = 0; i < 16; ++i) block[i] = data[off + i] ^ prev[i];
      kernels::Aes128EncryptPortable(schedule, block, out.data() + off);
      prev = out.data() + off;
    }
  });
  Measure(json, "decrypt_aes128_portable", bytes, repetitions, [&] {
    const uint8_t* prev = schedule;
    for (size_t off = 0; off < bytes; off += 16) {
      kernels::Aes128DecryptPortable(schedule, data.data() + off,
                                     out.data() + off);
      for (size_t i = 0; i < 16; ++i) out[off + i] ^= prev[i];
      prev = data.data() + off;
    }
  });
}

int Run(int argc, char** argv) {
  const char* json_path = BenchJson::ParseArgs(argc, argv);
  BenchJson json;

  PrintHeader("E1: crypto bandwidth (cf. paper 9.2.1)");
  std::printf(
      "paper reference (450 MHz P-II): 3DES 2.5 MB/s, DES 7.2 MB/s, SHA-1 "
      "21.1 MB/s,\nhash finalization ~5 us\n");
  std::printf("cpu features: %s\n\n",
              kernels::DescribeCpuFeatures(kernels::HostCpuFeatures()).c_str());

  const size_t kHashBytes = 1 << 20;
  const size_t kCipherBytes = 1 << 18;
  const int kRepetitions = 12;

  Bytes hash_data = TestData(kHashBytes);
  Measure(json, "sha1", kHashBytes, kRepetitions,
          [&] { (void)Sha1::Hash(hash_data); });
  Measure(json, "sha256", kHashBytes, kRepetitions,
          [&] { (void)Sha256::Hash(hash_data); });
  Measure(json, "sha256_portable", kHashBytes, kRepetitions, [&] {
    uint32_t state[8] = {};
    kernels::Sha256BlocksPortable(state, hash_data.data(),
                                  kHashBytes / Sha256::kBlockSize);
  });

  Bytes tiny = TestData(16);
  Measure(json, "sha1_finalization", 0, kRepetitions, [&] {
    for (int i = 0; i < 1000; ++i) {
      (void)Sha1::Hash(tiny);
    }
  });

  CipherBenches(json, "des", CipherAlg::kDes, kCipherBytes, kRepetitions);
  CipherBenches(json, "3des", CipherAlg::kTripleDes, kCipherBytes,
                kRepetitions);
  CipherBenches(json, "aes128", CipherAlg::kAes128, kCipherBytes,
                kRepetitions);
  PortableAesBenches(json, kCipherBytes, kRepetitions);

  Bytes hmac_key(20, 0x0b);
  Bytes hmac_data = TestData(kCipherBytes);
  Measure(json, "hmac_sha1", kCipherBytes, kRepetitions,
          [&] { (void)HmacSha1(hmac_key, hmac_data); });

  std::printf(
      "\nnote: sha1_finalization times 1000 16-byte hashes (divide by 1000 "
      "for the paper's per-hash constant)\n");

  if (json_path != nullptr && !json.Write(json_path, "bench_crypto")) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tdb::bench

int main(int argc, char** argv) { return tdb::bench::Run(argc, argv); }
