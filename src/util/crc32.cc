#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace ranomaly::util {
namespace {

constexpr std::uint32_t kPolynomial = 0xedb88320u;  // reflected 0x04c11db7

// Slice-by-16 tables: kTables[0] is the classic byte-at-a-time table;
// kTables[k][b] is the CRC contribution of byte b seen k positions
// earlier, letting the hot loop fold 16 input bytes per iteration.
// Checkpoint payloads run to megabytes and are CRC'd on every periodic
// write, on the writer thread a serve tick may end up waiting for.
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

}  // namespace

void Crc32Accumulator::Update(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = state_;
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
  state_ = c;
}

std::uint32_t Crc32(const void* data, std::size_t size) {
  Crc32Accumulator acc;
  acc.Update(data, size);
  return acc.value();
}

}  // namespace ranomaly::util
