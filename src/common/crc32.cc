#include "src/common/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ucp {
namespace {

// Table generated at first use from the reflected polynomial 0xEDB88320.
const std::array<uint32_t, 256>& CrcTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

uint32_t CrcBytes(uint32_t crc, const unsigned char* p, size_t size) {
  const auto& table = CrcTable();
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

// Carry-less-multiply folding, after Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), with that paper's constants for the
// reflected polynomial 0xEDB88320 (zlib and Linux use the same ones). Four 128-bit lanes fold
// 64 bytes per step; the lanes then fold into one, 128 bits reduce to 64, and a Barrett
// reduction leaves the 32-bit register. `size` is a multiple of 16 and at least 64.
__attribute__((target("pclmul"))) uint32_t CrcFold(uint32_t crc, const unsigned char* p,
                                                   size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);  // fold by 4 x 128 bits
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);  // fold by 128 bits
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);              // fold 64 -> 32 bits
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // P' and Barrett mu
  const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);

  // Each fold step replaces x by x.lo * k.lo ^ x.hi * k.hi ^ (the next 16 bytes).
  __m128i x0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
  __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
  __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48));
  x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(static_cast<int>(crc)));
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    const __m128i y0 = _mm_clmulepi64_si128(x0, k1k2, 0x00);
    const __m128i y1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    const __m128i y2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    const __m128i y3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k1k2, 0x11), y0);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k1k2, 0x11), y1);
    x2 = _mm_xor_si128(_mm_clmulepi64_si128(x2, k1k2, 0x11), y2);
    x3 = _mm_xor_si128(_mm_clmulepi64_si128(x3, k1k2, 0x11), y3);
    x0 = _mm_xor_si128(x0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    x1 = _mm_xor_si128(x1, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)));
    x2 = _mm_xor_si128(x2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32)));
    x3 = _mm_xor_si128(x3, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48)));
  }
  // Fold the four lanes into x0, then any further 16-byte blocks.
  for (const __m128i next : {x1, x2, x3}) {
    const __m128i y = _mm_clmulepi64_si128(x0, k3k4, 0x00);
    x0 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x0, k3k4, 0x11), y), next);
  }
  for (; size >= 16; p += 16, size -= 16) {
    const __m128i y = _mm_clmulepi64_si128(x0, k3k4, 0x00);
    x0 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x0, k3k4, 0x11), y),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }

  // 128 -> 64 bits, then 64 -> 32 bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett reduction (mu = x^64 div P): x ^ ((x.lo32 * mu).lo32 * P) keeps the CRC in bits
  // 32..63.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x0, q), 4)));
}

bool HasPclmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return has;
}

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32Init() { return 0xFFFFFFFFu; }

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
#if defined(__x86_64__)
  if (size >= 64 && HasPclmul()) {
    const size_t folded = size & ~size_t{15};
    crc = CrcFold(crc, p, folded);
    p += folded;
    size -= folded;
  }
#endif
  return CrcBytes(crc, p, size);
}

uint32_t Crc32Finalize(uint32_t crc) { return crc ^ 0xFFFFFFFFu; }

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Finalize(Crc32Update(Crc32Init(), data, size));
}

}  // namespace ucp
