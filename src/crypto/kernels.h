// The compression kernels behind Aes128 and Sha256, the default system
// suite. Each has a portable version, a plain transcription of FIPS 197 or
// FIPS 180-4, and on x86-64 a hardware version (AES-NI, SHA-NI). The classes
// pick the hardware kernel when HostCpuFeatures() reports the CPU feature;
// tests and bench_crypto call both versions and compare them. Both produce
// the same bytes, so ciphertexts and digests do not depend on the host.
//
// The hardware kernels are compiled with per-function target attributes, so
// the rest of the build keeps its baseline instruction set and a CPU without
// the feature never executes them.

#ifndef SRC_CRYPTO_KERNELS_H_
#define SRC_CRYPTO_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#if defined(__x86_64__)
#define TDB_CRYPTO_X86 1
#else
#define TDB_CRYPTO_X86 0
#endif

namespace tdb::kernels {

struct CpuFeatures {
  bool aes = false;  // AES-NI and SSE4.1
  bool sha = false;  // SHA extensions and SSE4.1
};

// The running CPU's features, probed with CPUID on the first call. Always
// false on a build for another architecture.
const CpuFeatures& HostCpuFeatures();

// "aes-ni sha-ni", or "none".
std::string DescribeCpuFeatures(const CpuFeatures& features);

// --- Portable kernels --------------------------------------------------------

// AES-128 expanded key: 11 round keys of 16 bytes, in FIPS 197 byte order.
// The hardware encrypt kernel takes the same schedule.
inline constexpr size_t kAes128ScheduleSize = 176;

void Aes128ExpandKey(const uint8_t* key, uint8_t* schedule);
void Aes128EncryptPortable(const uint8_t* schedule, const uint8_t* in,
                           uint8_t* out);
void Aes128DecryptPortable(const uint8_t* schedule, const uint8_t* in,
                           uint8_t* out);

// SHA-256 round constants K0..K63, 16-byte aligned.
extern const uint32_t kSha256RoundConstants[64];

// Compresses `n` consecutive 64-byte blocks into `state` (h0..h7).
void Sha256BlocksPortable(uint32_t* state, const uint8_t* data, size_t n);

#if TDB_CRYPTO_X86
// --- Hardware kernels: call only when HostCpuFeatures() has the feature -----

// Builds the decryption schedule of the equivalent inverse cipher (round
// keys reversed, InvMixColumns applied to the inner ones) from `schedule`.
void Aes128NiDecryptSchedule(const uint8_t* schedule, uint8_t* dec_schedule);
void Aes128NiEncrypt(const uint8_t* schedule, const uint8_t* in, uint8_t* out);
void Aes128NiDecrypt(const uint8_t* dec_schedule, const uint8_t* in,
                     uint8_t* out);
// CBC-decrypts `blocks` blocks, four at a time: out[i] = D(in[i]) ^ in[i-1],
// with in[-1] = iv. `out` may equal `in`.
void Aes128NiDecryptCbc(const uint8_t* dec_schedule, const uint8_t* iv,
                        const uint8_t* in, uint8_t* out, size_t blocks);

void Sha256NiBlocks(uint32_t* state, const uint8_t* data, size_t n);
#endif  // TDB_CRYPTO_X86

}  // namespace tdb::kernels

#endif  // SRC_CRYPTO_KERNELS_H_
