#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#ifdef __x86_64__
#include <immintrin.h>
#endif

namespace ranomaly::util {
namespace {

constexpr std::uint32_t kPolynomial = 0xedb88320u;  // reflected 0x04c11db7

// Slice-by-16 tables: kTables[0] is the classic byte-at-a-time table;
// kTables[k][b] is the CRC contribution of byte b seen k positions
// earlier, letting the loop fold 16 input bytes per iteration.  It runs
// on CPUs without carry-less multiply and on every run under 64 bytes.
constexpr std::size_t kSlices = 16;
using Tables = std::array<std::array<std::uint32_t, 256>, kSlices>;

constexpr Tables MakeTables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < kSlices; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

// Advances the raw (pre-inverted) CRC state `c` over `size` bytes.
std::uint32_t SliceBy16(std::uint32_t c, const unsigned char* bytes,
                        std::size_t size) {
  if constexpr (std::endian::native == std::endian::little) {
    while (size >= kSlices) {
      std::uint32_t w[4];
      std::memcpy(w, bytes, sizeof(w));
      w[0] ^= c;
      c = 0;
      // Word i's byte j sits 15 - (4i + j) positions before the end.
      for (std::size_t i = 0; i < 4; ++i) {
        const std::size_t k = 15 - 4 * i;
        c ^= kTables[k][w[i] & 0xff] ^ kTables[k - 1][(w[i] >> 8) & 0xff] ^
             kTables[k - 2][(w[i] >> 16) & 0xff] ^ kTables[k - 3][w[i] >> 24];
      }
      bytes += kSlices;
      size -= kSlices;
    }
  }
  for (std::size_t i = 0; i < size; ++i) {
    c = kTables[0][(c ^ bytes[i]) & 0xff] ^ (c >> 8);
  }
  return c;
}

#ifdef __x86_64__

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) in the
// bit-reflected domain: four 128-bit lanes fold 64 bytes per iteration,
// the lanes fold into one, that folds to 64 and then 32 bits, and a
// Barrett reduction yields the remainder.  The constants are x^k mod P
// for the fold distances, then P and floor(x^64 / P), all bit-reflected.
#define RANOMALY_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

// Folds lane `x` 128 bits further along the message, onto `next`.
RANOMALY_CLMUL_TARGET inline __m128i Fold(__m128i x, __m128i k,
                                          __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

RANOMALY_CLMUL_TARGET inline __m128i Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Advances the raw (pre-inverted) CRC state `c` over `size` bytes, a
// positive multiple of 64, at any alignment.
RANOMALY_CLMUL_TARGET std::uint32_t Clmul(std::uint32_t c,
                                          const unsigned char* bytes,
                                          std::size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // mu, P
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load(bytes), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load(bytes + 16);
  __m128i x3 = Load(bytes + 32);
  __m128i x4 = Load(bytes + 48);
  for (bytes += 64, size -= 64; size >= 64; bytes += 64, size -= 64) {
    x1 = Fold(x1, k1k2, Load(bytes));
    x2 = Fold(x2, k1k2, Load(bytes + 16));
    x3 = Fold(x3, k1k2, Load(bytes + 32));
    x4 = Fold(x4, k1k2, Load(bytes + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 64 -> 32 bits, left above the low word.
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction: the remainder lands in word 1.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

// Chosen once, at static initialization (hence __builtin_cpu_init).  A
// CRC some other static initializer computes first takes slice-by-16,
// which yields the same value.
const bool kHaveClmul = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}();

#endif  // __x86_64__

}  // namespace

void Crc32Accumulator::Update(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
#ifdef __x86_64__
  if (kHaveClmul && size >= 64) {
    const std::size_t blocks = size & ~std::size_t{63};
    state_ = Clmul(state_, bytes, blocks);
    bytes += blocks;
    size -= blocks;
  }
#endif
  state_ = SliceBy16(state_, bytes, size);
}

std::uint32_t Crc32(const void* data, std::size_t size) {
  Crc32Accumulator acc;
  acc.Update(data, size);
  return acc.value();
}

namespace internal {

std::uint32_t PortableCrc32(const void* data, std::size_t size) {
  return SliceBy16(0xffffffffu, static_cast<const unsigned char*>(data),
                   size) ^
         0xffffffffu;
}

}  // namespace internal

}  // namespace ranomaly::util
