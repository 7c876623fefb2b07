// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant).
//
// Used to validate checkpoint files: a restore from a torn or bit-rotted
// snapshot must fail loudly rather than resume from a silently corrupt
// RIB.  Not cryptographic — it detects accidents, not adversaries.
//
// On x86-64 CPUs with PCLMULQDQ (probed once at startup) every run of 64
// bytes or more folds through carry-less multiplies, ~8x faster than the
// slice-by-16 tables that take the tail, shorter runs and other CPUs.
// Both paths give the same value for any split of the input.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ranomaly::util {

// One-shot CRC over a buffer.
std::uint32_t Crc32(const void* data, std::size_t size);

// Incremental interface: feed chunks, then value().
class Crc32Accumulator {
 public:
  void Update(const void* data, std::size_t size);
  std::uint32_t value() const { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

namespace internal {

// Crc32 through the slice-by-16 tables alone, whatever the CPU: lets the
// tests check the path CPUs without PCLMULQDQ take on hosts that have it.
std::uint32_t PortableCrc32(const void* data, std::size_t size);

}  // namespace internal

}  // namespace ranomaly::util
