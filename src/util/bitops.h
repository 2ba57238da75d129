#ifndef IBFS_UTIL_BITOPS_H_
#define IBFS_UTIL_BITOPS_H_

#include <bit>
#include <cstdint>

namespace ibfs {

/// Word-level bit helpers shared by the bitwise status array and the warp
/// ballot primitives. All are header-inline; they sit on the hottest path of
/// the bitwise traversal.

/// Number of set bits. Without a hardware popcount in the target (the
/// default x86-64 build has no -mpopcnt), std::popcount compiles to a
/// libgcc call, which in the bitwise kernels' loops costs more than this
/// inline SWAR reduction.
inline int PopCount(uint64_t word) {
#if defined(__POPCNT__)
  return std::popcount(word);
#else
  word -= (word >> 1) & 0x5555555555555555ULL;
  word = (word & 0x3333333333333333ULL) + ((word >> 2) & 0x3333333333333333ULL);
  word = (word + (word >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<int>((word * 0x0101010101010101ULL) >> 56);
#endif
}

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
