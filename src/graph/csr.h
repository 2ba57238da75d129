#ifndef IBFS_GRAPH_CSR_H_
#define IBFS_GRAPH_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/status.h"

namespace ibfs::graph {

class GraphBuilder;

/// Vertex identifier. 32 bits covers the scaled benchmark suite; the builder
/// rejects graphs that would overflow.
using VertexId = uint32_t;

/// Index into the CSR edge array (64-bit: edge counts exceed 2^32 at paper
/// scale).
using EdgeIndex = uint64_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex = ~VertexId{0};

/// Immutable directed graph in Compressed Sparse Row form, the storage format
/// the paper uses (Section 8.1). Bottom-up traversal searches a vertex's
/// *in*-neighbors for a visited parent, so the graph also carries the reverse
/// (in-edge) CSR. For the undirected benchmark graphs the two are identical
/// by construction (each undirected edge is stored as two directed edges):
/// GraphBuilder hands such a graph over with one copy, and the 4-array
/// constructor drops in-arrays equal to the out-arrays, so a symmetric graph
/// keeps one copy on the host and the in-accessors return the out-arrays.
/// StorageBytes still counts both copies: it is the simulated device's
/// footprint, where the kernels address the in-CSR as its own arrays.
class Csr {
 public:
  /// Builds a CSR from already-validated arrays. `row_offsets` has
  /// vertex_count+1 entries; `row_offsets.back() == adjacency.size()`.
  /// Prefer GraphBuilder (builder.h) which sorts, deduplicates, and
  /// validates; this constructor IBFS_CHECKs structural invariants and
  /// drops the in-arrays when they equal the out-arrays (an O(V + E)
  /// comparison the binary loader and directed builds pay).
  Csr(std::vector<EdgeIndex> row_offsets, std::vector<VertexId> adjacency,
      std::vector<EdgeIndex> in_row_offsets,
      std::vector<VertexId> in_adjacency);

  Csr(Csr&&) = default;
  Csr& operator=(Csr&&) = default;
  Csr(const Csr&) = delete;
  Csr& operator=(const Csr&) = delete;

  int64_t vertex_count() const {
    return static_cast<int64_t>(row_offsets_.size()) - 1;
  }
  /// Number of directed edges (the paper's |E|; undirected input doubles).
  int64_t edge_count() const { return static_cast<int64_t>(adjacency_.size()); }

  /// Out-neighbors of `v`, in ascending order.
  std::span<const VertexId> OutNeighbors(VertexId v) const {
    return {adjacency_.data() + row_offsets_[v],
            adjacency_.data() + row_offsets_[v + 1]};
  }

  /// In-neighbors of `v` (used by bottom-up parent search).
  std::span<const VertexId> InNeighbors(VertexId v) const {
    const std::vector<EdgeIndex>& offsets = InOffsets();
    const VertexId* const adjacency = InAdjacency().data();
    return {adjacency + offsets[v], adjacency + offsets[v + 1]};
  }

  int64_t OutDegree(VertexId v) const {
    return static_cast<int64_t>(row_offsets_[v + 1] - row_offsets_[v]);
  }
  int64_t InDegree(VertexId v) const {
    const std::vector<EdgeIndex>& offsets = InOffsets();
    return static_cast<int64_t>(offsets[v + 1] - offsets[v]);
  }

  /// Raw CSR arrays, exposed for the simulator's address-level memory
  /// accounting (the kernels compute which 128-byte segments a warp touches).
  std::span<const EdgeIndex> row_offsets() const { return row_offsets_; }
  std::span<const VertexId> adjacency() const { return adjacency_; }
  std::span<const EdgeIndex> in_row_offsets() const { return InOffsets(); }
  std::span<const VertexId> in_adjacency() const { return InAdjacency(); }

  /// Bytes of device memory the graph occupies (the S term of the paper's
  /// group-size bound N <= (M - S - |JFQ|) / |SA|).
  int64_t StorageBytes() const;

  /// FNV-1a digest of the out-CSR arrays (counts, row offsets, adjacency).
  /// Two Csr objects with equal topology hash equal; any structural change
  /// changes it with high probability. O(V + E) — callers that key caches
  /// on graph identity compute it once and hold the value (the service's
  /// result cache does this at Create).
  uint64_t Fingerprint() const;

 private:
  friend class GraphBuilder;

  // A symmetric graph: the arrays serve as both the out- and the in-CSR.
  // Only GraphBuilder, which knows every edge arrived with its reverse,
  // skips the 4-array constructor's O(V + E) comparison this way.
  Csr(std::vector<EdgeIndex> row_offsets, std::vector<VertexId> adjacency);

  const std::vector<EdgeIndex>& InOffsets() const {
    return symmetric_ ? row_offsets_ : in_row_offsets_;
  }
  const std::vector<VertexId>& InAdjacency() const {
    return symmetric_ ? adjacency_ : in_adjacency_;
  }

  std::vector<EdgeIndex> row_offsets_;
  std::vector<VertexId> adjacency_;
  std::vector<EdgeIndex> in_row_offsets_;
  std::vector<VertexId> in_adjacency_;
  // The in-arrays equal the out-arrays and were dropped.
  bool symmetric_ = false;
};

}  // namespace ibfs::graph

#endif  // IBFS_GRAPH_CSR_H_
