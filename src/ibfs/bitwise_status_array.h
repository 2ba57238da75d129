#ifndef IBFS_IBFS_BITWISE_STATUS_ARRAY_H_
#define IBFS_IBFS_BITWISE_STATUS_ARRAY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "util/bitops.h"

namespace ibfs {

/// Bitwise Status Array (Section 6): one *bit* per (vertex, instance),
/// packed into 64-bit words. Bit j of vertex v's row is 1 iff instance j
/// has visited v — cumulatively, across all levels. That cumulative record
/// is what enables bottom-up early termination (all bits set => stop
/// scanning neighbors), the key difference from MS-BFS which resets its bit
/// array every level.
///
/// With N instances a row is ceil(N/64) words, so inspecting a vertex for
/// the whole group costs one thread a handful of word ops instead of N
/// byte probes — the paper's 11x.
class BitwiseStatusArray {
 public:
  BitwiseStatusArray(int64_t vertex_count, int instance_count);

  int64_t vertex_count() const { return vertex_count_; }
  int instance_count() const { return instance_count_; }
  /// Words per vertex row: ceil(instance_count / 64).
  int words_per_vertex() const { return words_; }

  bool TestBit(graph::VertexId v, int j) const {
    return ibfs::TestBit(data_[RowOffset(v) + j / 64], j % 64);
  }

  void SetBit(graph::VertexId v, int j) {
    data_[RowOffset(v) + j / 64] |= Bit(j % 64);
  }

  /// The vertex's packed row.
  std::span<const uint64_t> Row(graph::VertexId v) const {
    return {data_.data() + RowOffset(v), static_cast<size_t>(words_)};
  }

  /// The whole array as a flat word sequence (vertex v's row occupies
  /// words [v*words_per_vertex, (v+1)*words_per_vertex)) — lets the fused
  /// frontier sweep scan without materializing per-row spans.
  std::span<const uint64_t> Words() const { return data_; }
  std::span<uint64_t> MutableWords() { return data_; }
  std::span<uint64_t> MutableRow(graph::VertexId v) {
    return {data_.data() + RowOffset(v), static_cast<size_t>(words_)};
  }

  /// True iff no instance has visited `v`.
  bool RowAllClear(graph::VertexId v) const;

  /// Copies all rows from `other` (the per-level BSA_{k+1} <- BSA_k copy).
  void CopyFrom(const BitwiseStatusArray& other);

  /// Word element index of (v, word) for transaction accounting.
  int64_t ElementIndex(graph::VertexId v, int word) const {
    return RowOffset(v) + word;
  }

  int64_t StorageBytes() const {
    return static_cast<int64_t>(data_.size() * sizeof(uint64_t));
  }

  /// Mask of valid bits in the last word of a row.
  uint64_t LastWordMask() const { return last_word_mask_; }

 private:
  int64_t RowOffset(graph::VertexId v) const {
    return static_cast<int64_t>(v) * words_;
  }

  int64_t vertex_count_;
  int instance_count_;
  int words_;
  uint64_t last_word_mask_;
  std::vector<uint64_t> data_;
};

}  // namespace ibfs

#endif  // IBFS_IBFS_BITWISE_STATUS_ARRAY_H_
