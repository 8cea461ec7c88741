// The CPUID probe and the AES-NI and SHA-NI kernels declared in kernels.h.

#include "src/crypto/kernels.h"

#if TDB_CRYPTO_X86
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace tdb::kernels {

namespace {

CpuFeatures Probe() {
  CpuFeatures features;
#if TDB_CRYPTO_X86
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) {
    return features;
  }
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  features.aes = sse41 && (ecx & bit_AES) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    features.sha = sse41 && (ebx & bit_SHA) != 0;
  }
#endif
  return features;
}

}  // namespace

const CpuFeatures& HostCpuFeatures() {
  static const CpuFeatures features = Probe();
  return features;
}

std::string DescribeCpuFeatures(const CpuFeatures& features) {
  std::string out;
  if (features.aes) out += "aes-ni";
  if (features.sha) out += out.empty() ? "sha-ni" : " sha-ni";
  return out.empty() ? "none" : out;
}

#if TDB_CRYPTO_X86

#define TDB_TARGET_AES __attribute__((target("aes,sse4.1")))
#define TDB_TARGET_SHA __attribute__((target("sha,sse4.1")))

namespace {

inline __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void Store(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

struct RoundKeys {
  __m128i k[11];
};

inline RoundKeys LoadSchedule(const uint8_t* schedule) {
  RoundKeys keys;
  for (int i = 0; i < 11; ++i) keys.k[i] = Load(schedule + 16 * i);
  return keys;
}

TDB_TARGET_AES inline __m128i DecryptOne(const RoundKeys& keys, __m128i b) {
  b = _mm_xor_si128(b, keys.k[0]);
  for (int r = 1; r < 10; ++r) b = _mm_aesdec_si128(b, keys.k[r]);
  return _mm_aesdeclast_si128(b, keys.k[10]);
}

}  // namespace

TDB_TARGET_AES void Aes128NiDecryptSchedule(const uint8_t* schedule,
                                            uint8_t* dec_schedule) {
  Store(dec_schedule, Load(schedule + 160));
  for (int r = 1; r < 10; ++r) {
    Store(dec_schedule + 16 * r,
          _mm_aesimc_si128(Load(schedule + 16 * (10 - r))));
  }
  Store(dec_schedule + 160, Load(schedule));
}

TDB_TARGET_AES void Aes128NiEncrypt(const uint8_t* schedule,
                                    const uint8_t* in, uint8_t* out) {
  __m128i b = _mm_xor_si128(Load(in), Load(schedule));
  for (int r = 1; r < 10; ++r) b = _mm_aesenc_si128(b, Load(schedule + 16 * r));
  Store(out, _mm_aesenclast_si128(b, Load(schedule + 160)));
}

TDB_TARGET_AES void Aes128NiDecrypt(const uint8_t* dec_schedule,
                                    const uint8_t* in, uint8_t* out) {
  Store(out, DecryptOne(LoadSchedule(dec_schedule), Load(in)));
}

TDB_TARGET_AES void Aes128NiDecryptCbc(const uint8_t* dec_schedule,
                                       const uint8_t* iv, const uint8_t* in,
                                       uint8_t* out, size_t blocks) {
  const RoundKeys keys = LoadSchedule(dec_schedule);
  __m128i prev = Load(iv);
  size_t i = 0;
  // CBC decryption has no chain dependency: four blocks go through the
  // AES unit's pipeline at once.
  for (; i + 4 <= blocks; i += 4) {
    const uint8_t* src = in + 16 * i;
    __m128i c0 = Load(src), c1 = Load(src + 16);
    __m128i c2 = Load(src + 32), c3 = Load(src + 48);
    __m128i b0 = _mm_xor_si128(c0, keys.k[0]);
    __m128i b1 = _mm_xor_si128(c1, keys.k[0]);
    __m128i b2 = _mm_xor_si128(c2, keys.k[0]);
    __m128i b3 = _mm_xor_si128(c3, keys.k[0]);
    for (int r = 1; r < 10; ++r) {
      b0 = _mm_aesdec_si128(b0, keys.k[r]);
      b1 = _mm_aesdec_si128(b1, keys.k[r]);
      b2 = _mm_aesdec_si128(b2, keys.k[r]);
      b3 = _mm_aesdec_si128(b3, keys.k[r]);
    }
    b0 = _mm_aesdeclast_si128(b0, keys.k[10]);
    b1 = _mm_aesdeclast_si128(b1, keys.k[10]);
    b2 = _mm_aesdeclast_si128(b2, keys.k[10]);
    b3 = _mm_aesdeclast_si128(b3, keys.k[10]);
    uint8_t* dst = out + 16 * i;
    Store(dst, _mm_xor_si128(b0, prev));
    Store(dst + 16, _mm_xor_si128(b1, c0));
    Store(dst + 32, _mm_xor_si128(b2, c1));
    Store(dst + 48, _mm_xor_si128(b3, c2));
    prev = c3;
  }
  for (; i < blocks; ++i) {
    __m128i c = Load(in + 16 * i);
    Store(out + 16 * i, _mm_xor_si128(DecryptOne(keys, c), prev));
    prev = c;
  }
}

namespace {

// Four rounds on the (ABEF, CDGH) state with message words w[t..t+3].
TDB_TARGET_SHA inline void FourRounds(__m128i& abef, __m128i& cdgh,
                                      __m128i w, int t) {
  const auto* k = reinterpret_cast<const __m128i*>(kSha256RoundConstants + t);
  __m128i wk = _mm_add_epi32(w, _mm_load_si128(k));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// Message schedule: w[t..t+3] from w0 = w[t-16..t-13], w1 = w[t-12..t-9],
// w2 = w[t-8..t-5] and w3 = w[t-4..t-1].
TDB_TARGET_SHA inline __m128i NextWords(__m128i w0, __m128i w1, __m128i w2,
                                        __m128i w3) {
  __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                            _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

}  // namespace

TDB_TARGET_SHA void Sha256NiBlocks(uint32_t* state, const uint8_t* data,
                                   size_t n) {
  // Byte-swaps each 32-bit word: SHA-256 reads the message big-endian.
  const __m128i kSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // The rounds instruction keeps the state as (A,B,E,F) and (C,D,G,H).
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (size_t blk = 0; blk < n; ++blk, data += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i w0 = _mm_shuffle_epi8(Load(data), kSwap);
    __m128i w1 = _mm_shuffle_epi8(Load(data + 16), kSwap);
    __m128i w2 = _mm_shuffle_epi8(Load(data + 32), kSwap);
    __m128i w3 = _mm_shuffle_epi8(Load(data + 48), kSwap);
    for (int t = 0; t < 64; t += 16) {
      FourRounds(abef, cdgh, w0, t);
      FourRounds(abef, cdgh, w1, t + 4);
      FourRounds(abef, cdgh, w2, t + 8);
      FourRounds(abef, cdgh, w3, t + 12);
      if (t < 48) {
        w0 = NextWords(w0, w1, w2, w3);
        w1 = NextWords(w1, w2, w3, w0);
        w2 = NextWords(w2, w3, w0, w1);
        w3 = NextWords(w3, w0, w1, w2);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // TDB_CRYPTO_X86

}  // namespace tdb::kernels
