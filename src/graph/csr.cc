#include "graph/csr.h"

#include "util/checksum.h"
#include "util/logging.h"

namespace ibfs::graph {

Csr::Csr(std::vector<EdgeIndex> row_offsets, std::vector<VertexId> adjacency,
         std::vector<EdgeIndex> in_row_offsets,
         std::vector<VertexId> in_adjacency)
    : row_offsets_(std::move(row_offsets)),
      adjacency_(std::move(adjacency)),
      in_row_offsets_(std::move(in_row_offsets)),
      in_adjacency_(std::move(in_adjacency)) {
  IBFS_CHECK(!row_offsets_.empty());
  IBFS_CHECK(row_offsets_.size() == in_row_offsets_.size());
  IBFS_CHECK(row_offsets_.front() == 0);
  IBFS_CHECK(row_offsets_.back() == adjacency_.size());
  IBFS_CHECK(in_row_offsets_.front() == 0);
  IBFS_CHECK(in_row_offsets_.back() == in_adjacency_.size());
  IBFS_CHECK(adjacency_.size() == in_adjacency_.size());
  symmetric_ =
      row_offsets_ == in_row_offsets_ && adjacency_ == in_adjacency_;
  if (symmetric_) {
    // Move-assign empty vectors: `= {}` would pick the initializer-list
    // overload, which keeps the capacity.
    in_row_offsets_ = std::vector<EdgeIndex>();
    in_adjacency_ = std::vector<VertexId>();
  }
}

Csr::Csr(std::vector<EdgeIndex> row_offsets, std::vector<VertexId> adjacency)
    : row_offsets_(std::move(row_offsets)),
      adjacency_(std::move(adjacency)),
      symmetric_(true) {
  IBFS_CHECK(!row_offsets_.empty());
  IBFS_CHECK(row_offsets_.front() == 0);
  IBFS_CHECK(row_offsets_.back() == adjacency_.size());
}

uint64_t Csr::Fingerprint() const {
  // The out-CSR determines the in-CSR (the builder derives one from the
  // other), so hashing row offsets + adjacency identifies the topology.
  uint64_t state = kFnv1aOffsetBasis;
  const uint64_t v = static_cast<uint64_t>(vertex_count());
  const uint64_t e = static_cast<uint64_t>(edge_count());
  state = Fnv1aExtend(
      state, {reinterpret_cast<const uint8_t*>(&v), sizeof(v)});
  state = Fnv1aExtend(
      state, {reinterpret_cast<const uint8_t*>(&e), sizeof(e)});
  state = Fnv1aExtend(
      state, {reinterpret_cast<const uint8_t*>(row_offsets_.data()),
              row_offsets_.size() * sizeof(EdgeIndex)});
  state = Fnv1aExtend(
      state, {reinterpret_cast<const uint8_t*>(adjacency_.data()),
              adjacency_.size() * sizeof(VertexId)});
  return state;
}

int64_t Csr::StorageBytes() const {
  // The device holds the in-CSR as its own arrays, shared on the host or
  // not; the constructor checked both have the out-CSR's sizes.
  return 2 * static_cast<int64_t>(row_offsets_.size() * sizeof(EdgeIndex) +
                                  adjacency_.size() * sizeof(VertexId));
}

}  // namespace ibfs::graph
