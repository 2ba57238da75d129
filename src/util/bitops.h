#ifndef IBFS_UTIL_BITOPS_H_
#define IBFS_UTIL_BITOPS_H_

#include <bit>
#include <cstdint>

namespace ibfs {

/// Word-level bit helpers shared by the bitwise status array and the warp
/// ballot primitives. All are header-inline; they sit on the hottest path of
/// the bitwise traversal.

/// Number of set bits: one POPCNT instruction. src/CMakeLists.txt sets
/// -mpopcnt PUBLIC on ibfs_util wherever the compiler accepts it, so every
/// target inlines the same instruction (without it, std::popcount on
/// x86-64 is a libgcc call, and BitOpsTest.HardwarePopCountOnX86 fails).
/// Compilers for other targets reject the flag; there std::popcount
/// lowers to whatever bit count the target's baseline offers.
inline int PopCount(uint64_t word) { return std::popcount(word); }

/// Index (0-based, from LSB) of the lowest set bit. Precondition: word != 0.
inline int LowestSetBit(uint64_t word) { return std::countr_zero(word); }

/// Word with only bit `i` set. Precondition: 0 <= i < 64.
inline uint64_t Bit(int i) { return uint64_t{1} << i; }

/// Word with the lowest `n` bits set; n == 64 yields all-ones, n == 0 zero.
inline uint64_t LowMask(int n) {
  if (n >= 64) return ~uint64_t{0};
  return (uint64_t{1} << n) - 1;
}

/// True if bit `i` of `word` is set.
inline bool TestBit(uint64_t word, int i) { return (word >> i) & 1u; }

/// Rounds `x` up to the next multiple of `m`. Precondition: m > 0.
inline uint64_t RoundUp(uint64_t x, uint64_t m) { return (x + m - 1) / m * m; }

/// Ceiling division. Precondition: m > 0.
inline uint64_t CeilDiv(uint64_t x, uint64_t m) { return (x + m - 1) / m; }

}  // namespace ibfs

#endif  // IBFS_UTIL_BITOPS_H_
