#ifndef IBFS_GRAPH_BUILDER_H_
#define IBFS_GRAPH_BUILDER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "util/status.h"

namespace ibfs::graph {

/// A directed edge (source, destination).
struct Edge {
  VertexId src;
  VertexId dst;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Accumulates an edge list and produces a validated Csr in O(V + E).
///
/// Matching the paper's preprocessing (Section 8.1): undirected inputs add
/// each edge in both directions; for directed graphs the reverse adjacency is
/// materialized as well so bottom-up traversal can search in-neighbors.
/// Duplicate edges are removed and adjacency lists are sorted so traversal
/// order — and therefore bottom-up early termination — is deterministic.
class GraphBuilder {
 public:
  /// Creates a builder for a graph with `vertex_count` vertices.
  explicit GraphBuilder(int64_t vertex_count);

  /// Adds a directed edge. Out-of-range endpoints are reported by Build().
  void AddEdge(VertexId src, VertexId dst);

  /// Adds both (u, v) and (v, u).
  void AddUndirectedEdge(VertexId u, VertexId v);

  /// Adds every edge from `edges`.
  void AddEdges(const std::vector<Edge>& edges);

  int64_t edge_count() const { return static_cast<int64_t>(edges_.size()); }

  /// Validates endpoints, sorts by (src, dst) with two stable counting
  /// sorts, and deduplicates (keeping self-loops, as Graph500 TEPS counting
  /// allows them). A graph built only through AddUndirectedEdge is symmetric
  /// by construction and gets the shared out/in adjacency directly; once an
  /// edge came through AddEdge or AddEdges, one more counting pass builds
  /// the in-CSR and Csr keeps it unless it equals the out-CSR.
  Result<Csr> Build() &&;

 private:
  int64_t vertex_count_;
  std::vector<Edge> edges_;
  // Some edge came through AddEdge or AddEdges, so the set may be
  // asymmetric.
  bool directed_ = false;
};

}  // namespace ibfs::graph

#endif  // IBFS_GRAPH_BUILDER_H_
