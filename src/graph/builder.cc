#include "graph/builder.h"

#include <algorithm>
#include <string>

namespace ibfs::graph {
namespace {

constexpr auto kSrc = [](const Edge& e) { return e.src; };
constexpr auto kDst = [](const Edge& e) { return e.dst; };
constexpr auto kWhole = [](const Edge& e) { return e; };

// One stable counting-sort pass keyed by `key`: writes `value(e)` for each
// edge, in input order within a key, to `out` and returns the CSR offsets
// (offsets[v] is where key v's run starts; the last entry is edges.size()).
template <typename T, typename Key, typename Value>
std::vector<EdgeIndex> CountingScatter(const std::vector<Edge>& edges,
                                       int64_t vertex_count, Key key,
                                       Value value, std::vector<T>* out) {
  std::vector<EdgeIndex> offsets(static_cast<size_t>(vertex_count) + 1, 0);
  for (const Edge& e : edges) ++offsets[key(e) + 1];
  for (size_t v = 1; v < offsets.size(); ++v) offsets[v] += offsets[v - 1];
  out->resize(edges.size());
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) (*out)[cursor[key(e)]++] = value(e);
  return offsets;
}

}  // namespace

GraphBuilder::GraphBuilder(int64_t vertex_count)
    : vertex_count_(vertex_count) {}

void GraphBuilder::AddEdge(VertexId src, VertexId dst) {
  edges_.push_back({src, dst});
  directed_ = true;
}

void GraphBuilder::AddUndirectedEdge(VertexId u, VertexId v) {
  edges_.push_back({u, v});
  edges_.push_back({v, u});
}

void GraphBuilder::AddEdges(const std::vector<Edge>& edges) {
  edges_.insert(edges_.end(), edges.begin(), edges.end());
  directed_ |= !edges.empty();
}

Result<Csr> GraphBuilder::Build() && {
  if (vertex_count_ <= 0) {
    return Status::InvalidArgument("vertex_count must be positive");
  }
  if (vertex_count_ > static_cast<int64_t>(kInvalidVertex)) {
    return Status::InvalidArgument("vertex_count exceeds VertexId range");
  }
  for (const Edge& e : edges_) {
    if (e.src >= vertex_count_ || e.dst >= vertex_count_) {
      return Status::OutOfRange("edge endpoint " + std::to_string(e.src) +
                                "->" + std::to_string(e.dst) +
                                " outside vertex range");
    }
  }
  // LSD radix sort on (src, dst): by dst, then stably by src.
  {
    std::vector<Edge> by_dst;
    CountingScatter(edges_, vertex_count_, kDst, kWhole, &by_dst);
    CountingScatter(by_dst, vertex_count_, kSrc, kWhole, &edges_);
  }
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  std::vector<VertexId> adjacency;
  std::vector<EdgeIndex> row_offsets =
      CountingScatter(edges_, vertex_count_, kSrc, kDst, &adjacency);
  if (!directed_) {
    // Every edge arrived with its reverse, so the in-CSR is the out-CSR.
    return Csr(std::move(row_offsets), std::move(adjacency));
  }
  // Edges are in (src, dst) order, so a stable pass by dst leaves each
  // in-list sorted by source.
  std::vector<VertexId> in_adjacency;
  std::vector<EdgeIndex> in_row_offsets =
      CountingScatter(edges_, vertex_count_, kDst, kSrc, &in_adjacency);
  return Csr(std::move(row_offsets), std::move(adjacency),
             std::move(in_row_offsets), std::move(in_adjacency));
}

}  // namespace ibfs::graph
