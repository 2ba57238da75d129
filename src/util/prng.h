#ifndef IBFS_UTIL_PRNG_H_
#define IBFS_UTIL_PRNG_H_

#include <bit>
#include <cstdint>

namespace ibfs {

/// Deterministic 64-bit PRNG (splitmix64 seeding + xoshiro256**).
///
/// Every randomized component of the library (graph generators, random
/// grouping, source sampling) takes an explicit seed so experiments are
/// reproducible run-to-run and across platforms; std::mt19937 is avoided
/// because its distributions are not implementation-stable.
class Prng {
 public:
  /// Seeds the generator; equal seeds yield identical streams.
  explicit Prng(uint64_t seed);

  /// Returns the next 64 uniformly distributed bits. Inline: the graph
  /// generators draw several values per edge.
  uint64_t Next() {
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Returns a uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses rejection sampling, so the result is exactly uniform.
  uint64_t NextBounded(uint64_t bound);

  /// Returns a uniform double in [0, 1): the 53 high bits, so with full
  /// double precision.
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Returns true with probability p (clamped to [0, 1]).
  bool NextBool(double p);

 private:
  uint64_t s_[4];
};

}  // namespace ibfs

#endif  // IBFS_UTIL_PRNG_H_
