#ifndef IBFS_UTIL_CHECKSUM_H_
#define IBFS_UTIL_CHECKSUM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace ibfs {

/// Two digests share one offset basis and prime:
///
/// - FNV-1a (`Fnv1a`, `Fnv1aExtend`, `Fnv1aOfDepths`, `Fnv1aEach`) is the
///   answer checksum. It is part of the public contract: the service's
///   per-query depth checksums, the resilient executor's device-to-host
///   transfer verification, the fleet's cross-shard and cross-replica
///   comparisons, the chaos harness and every committed golden use it.
///   Deterministic across platforms (pure integer arithmetic, one xor and
///   one multiply per byte). Its values never change.
/// - `Fnv1aWords` is an in-process integrity seal, not an answer checksum:
///   it folds native-endian 8-byte words, so it reads every byte at word
///   speed, but its values depend on byte order and are never stored,
///   compared across processes or reported. The result cache seals each
///   entry with it and re-verifies the seal on every read.
///
/// Both are corruption *detection*, not cryptography. Each step
/// `h = (h ^ x) * P` with P odd is a bijection in h and in x, so a change
/// confined to one folded unit (a byte for FNV-1a, a word for the seal;
/// either way any single-byte flip) always changes the digest.
inline constexpr uint64_t kFnv1aOffsetBasis = 14695981039346656037ULL;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ULL;

/// Folds `bytes` into a running FNV-1a state (pass the previous return
/// value to chain buffers; start from kFnv1aOffsetBasis).
inline uint64_t Fnv1aExtend(uint64_t state, std::span<const uint8_t> bytes) {
  for (uint8_t b : bytes) {
    state ^= b;
    state *= kFnv1aPrime;
  }
  return state;
}

/// One-shot hash of a byte buffer.
inline uint64_t Fnv1a(std::span<const uint8_t> bytes) {
  return Fnv1aExtend(kFnv1aOffsetBasis, bytes);
}

/// Hash of a whole group's depth payload (every instance's vector, in
/// order), used to verify the simulated device-to-host transfer.
inline uint64_t Fnv1aOfDepths(
    const std::vector<std::vector<uint8_t>>& depths) {
  uint64_t state = kFnv1aOffsetBasis;
  for (const std::vector<uint8_t>& d : depths) state = Fnv1aExtend(state, d);
  return state;
}

/// One vector's FNV-1a and the number of its bytes that differ from a
/// sentinel (for depth vectors: the reached-vertex count).
struct Fnv1aCounted {
  uint64_t checksum = 0;
  int64_t counted = 0;
};

/// Writes Fnv1a(vectors[i]) and the count of bytes != `sentinel` to
/// out[i] for every i (out.size() == vectors.size()). The checksums are
/// exactly Fnv1a's; the batch only runs four vectors' chains interleaved
/// over their common length, so the multiplier never waits on one chain's
/// latency.
inline void Fnv1aEach(std::span<const std::vector<uint8_t>> vectors,
                      uint8_t sentinel, std::span<Fnv1aCounted> out) {
  size_t v = 0;
  auto finish = [&](size_t k, size_t from, uint64_t h, int64_t n) {
    const std::span<const uint8_t> rest =
        std::span<const uint8_t>(vectors[k]).subspan(from);
    for (uint8_t b : rest) n += b != sentinel;
    out[k] = {Fnv1aExtend(h, rest), n};
  };
  for (; v + 4 <= vectors.size(); v += 4) {
    const uint8_t* p0 = vectors[v].data();
    const uint8_t* p1 = vectors[v + 1].data();
    const uint8_t* p2 = vectors[v + 2].data();
    const uint8_t* p3 = vectors[v + 3].data();
    const size_t common =
        std::min({vectors[v].size(), vectors[v + 1].size(),
                  vectors[v + 2].size(), vectors[v + 3].size()});
    uint64_t h0 = kFnv1aOffsetBasis, h1 = kFnv1aOffsetBasis,
             h2 = kFnv1aOffsetBasis, h3 = kFnv1aOffsetBasis;
    int64_t n0 = 0, n1 = 0, n2 = 0, n3 = 0;
    for (size_t i = 0; i < common; ++i) {
      h0 = (h0 ^ p0[i]) * kFnv1aPrime;
      h1 = (h1 ^ p1[i]) * kFnv1aPrime;
      h2 = (h2 ^ p2[i]) * kFnv1aPrime;
      h3 = (h3 ^ p3[i]) * kFnv1aPrime;
      n0 += p0[i] != sentinel;
      n1 += p1[i] != sentinel;
      n2 += p2[i] != sentinel;
      n3 += p3[i] != sentinel;
    }
    finish(v, common, h0, n0);
    finish(v + 1, common, h1, n1);
    finish(v + 2, common, h2, n2);
    finish(v + 3, common, h3, n3);
  }
  for (; v < vectors.size(); ++v) finish(v, 0, kFnv1aOffsetBasis, 0);
}

/// Folds one 64-bit word into a seal state.
inline uint64_t Fnv1aFoldWord(uint64_t state, uint64_t word) {
  return (state ^ word) * kFnv1aPrime;
}

/// In-process integrity seal of a byte buffer (see the header comment; not
/// an answer checksum). Whole 32-byte blocks go word by word into four
/// lanes, which are then folded into one state as four more words; the
/// remaining whole words and the tail bytes are folded one at a time. Each
/// stored word reaches the result through bijective steps only, so any
/// corruption confined to one word changes the seal.
inline uint64_t Fnv1aWords(std::span<const uint8_t> bytes) {
  const uint8_t* p = bytes.data();
  const size_t size = bytes.size();
  auto word_at = [p](size_t i) {
    uint64_t word;
    std::memcpy(&word, p + i, sizeof(word));
    return word;
  };
  uint64_t l0 = kFnv1aOffsetBasis, l1 = kFnv1aOffsetBasis,
           l2 = kFnv1aOffsetBasis, l3 = kFnv1aOffsetBasis;
  size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    l0 = Fnv1aFoldWord(l0, word_at(i));
    l1 = Fnv1aFoldWord(l1, word_at(i + 8));
    l2 = Fnv1aFoldWord(l2, word_at(i + 16));
    l3 = Fnv1aFoldWord(l3, word_at(i + 24));
  }
  uint64_t state = kFnv1aOffsetBasis;
  for (uint64_t lane : {l0, l1, l2, l3}) state = Fnv1aFoldWord(state, lane);
  for (; i + 8 <= size; i += 8) state = Fnv1aFoldWord(state, word_at(i));
  for (; i < size; ++i) state = Fnv1aFoldWord(state, p[i]);
  return state;
}

}  // namespace ibfs

#endif  // IBFS_UTIL_CHECKSUM_H_
