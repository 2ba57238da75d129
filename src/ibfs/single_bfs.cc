#include "ibfs/single_bfs.h"

#include <array>

#include "gpusim/device_spec.h"
#include "gpusim/memory_model.h"

namespace ibfs {
namespace {

// Charges one warp-sized batch of random single-byte status probes.
class GatherBatcher {
 public:
  GatherBatcher(gpusim::KernelScope* scope, int elem_bytes)
      : scope_(scope), elem_bytes_(elem_bytes) {}

  void Add(int64_t element_index) {
    lanes_[count_++] = element_index;
    if (count_ == gpusim::kWarpSize) Flush();
  }

  void Flush() {
    if (count_ == 0) return;
    scope_->LoadGather({lanes_.data(), static_cast<size_t>(count_)},
                       elem_bytes_);
    count_ = 0;
  }

 private:
  gpusim::KernelScope* scope_;
  int elem_bytes_;
  std::array<int64_t, gpusim::kWarpSize> lanes_{};
  int count_ = 0;
};

// Same, for scattered stores.
class ScatterBatcher {
 public:
  ScatterBatcher(gpusim::KernelScope* scope, int elem_bytes)
      : scope_(scope), elem_bytes_(elem_bytes) {}

  void Add(int64_t element_index) {
    lanes_[count_++] = element_index;
    if (count_ == gpusim::kWarpSize) Flush();
  }

  void Flush() {
    if (count_ == 0) return;
    scope_->StoreGather({lanes_.data(), static_cast<size_t>(count_)},
                        elem_bytes_);
    count_ = 0;
  }

 private:
  gpusim::KernelScope* scope_;
  int elem_bytes_;
  std::array<int64_t, gpusim::kWarpSize> lanes_{};
  int count_ = 0;
};

}  // namespace

SingleBfs::SingleBfs(const graph::Csr& graph, graph::VertexId source,
                     const TraversalOptions& options)
    : graph_(graph), options_(options) {
  depths_.assign(static_cast<size_t>(graph.vertex_count()), kUnvisitedDepth);
  parents_.assign(static_cast<size_t>(graph.vertex_count()),
                  graph::kInvalidVertex);
  depths_[source] = 0;
  parents_[source] = source;
  frontier_.Push(source);
}

int64_t SingleBfs::TopDown(int level, gpusim::KernelScope* scope) {
  // Mark unvisited out-neighbors of each frontier. Large frontiers are
  // expanded by many thread groups in parallel (Enterprise's workload
  // classification), so the schedulable item is re-opened every 256
  // neighbors.
  constexpr int64_t kExpandChunk = 256;
  GatherBatcher status_loads(scope, /*elem_bytes=*/1);
  ScatterBatcher status_stores(scope, /*elem_bytes=*/1);
  int64_t inspections = 0;
  for (graph::VertexId f : frontier_.vertices()) {
    scope->BeginItem();
    const auto neighbors = graph_.OutNeighbors(f);
    scope->LoadContiguous(
        static_cast<int64_t>(graph_.row_offsets()[f]),
        static_cast<int64_t>(neighbors.size()), sizeof(graph::VertexId));
    // The 2 ops per inspected neighbor accumulate per chunk and flush
    // before every item boundary — same totals at every EndItem snapshot
    // as charging them one by one.
    int64_t in_chunk = 0;
    for (graph::VertexId w : neighbors) {
      if (in_chunk == kExpandChunk) {
        scope->BulkCompute(in_chunk, 2);
        in_chunk = 0;
        scope->EndItem();
        scope->BeginItem();
      }
      ++in_chunk;
      status_loads.Add(w);
      if (depths_[w] == kUnvisitedDepth) {
        depths_[w] = static_cast<uint8_t>(level);
        parents_[w] = f;
        status_stores.Add(w);
        ++new_visits_;
        frontier_edges_ += graph_.OutDegree(w);
      }
    }
    inspections += static_cast<int64_t>(neighbors.size());
    scope->BulkCompute(in_chunk, 2);
    scope->EndItem();
  }
  status_loads.Flush();
  status_stores.Flush();
  total_inspections_ += inspections;
  return inspections;
}

int64_t SingleBfs::BottomUp(int level, gpusim::KernelScope* scope) {
  // Each unvisited vertex searches its in-neighbors for a parent visited
  // at an earlier level, stopping at the first hit.
  GatherBatcher status_loads(scope, /*elem_bytes=*/1);
  ScatterBatcher status_stores(scope, /*elem_bytes=*/1);
  int64_t inspections = 0;
  for (graph::VertexId v : frontier_.vertices()) {
    scope->BeginItem();
    const auto neighbors = graph_.InNeighbors(v);
    int64_t scanned = 0;
    for (graph::VertexId w : neighbors) {
      ++scanned;
      status_loads.Add(w);
      if (depths_[w] < level) {  // kUnvisitedDepth compares greater
        depths_[v] = static_cast<uint8_t>(level);
        parents_[v] = w;
        status_stores.Add(v);
        ++new_visits_;
        frontier_edges_ += graph_.OutDegree(v);
        break;  // per-instance early exit inherent to bottom-up
      }
    }
    inspections += scanned;
    scope->BulkCompute(scanned, 2);
    scope->LoadContiguous(
        static_cast<int64_t>(graph_.in_row_offsets()[v]), scanned,
        sizeof(graph::VertexId));
    scope->EndItem();
  }
  status_loads.Flush();
  status_stores.Flush();
  bu_inspections_ += inspections;
  total_inspections_ += inspections;
  return inspections;
}

LevelSweep SingleBfs::Sweep(int /*level*/, gpusim::KernelScope* /*scope*/) {
  const LevelSweep sweep{new_visits_, frontier_edges_};
  visited_count_ += new_visits_;
  new_visits_ = 0;
  frontier_edges_ = 0;
  return sweep;
}

int64_t SingleBfs::BuildQueue(bool bottom_up, int level,
                              gpusim::KernelScope* scope) {
  frontier_.Clear();
  const int64_t n = graph_.vertex_count();
  if (visited_count_ >= n) return 0;
  // One status-array scan: the newly visited set for top-down, the
  // unvisited set for bottom-up.
  scope->LoadContiguous(0, n, /*elem_bytes=*/1);
  scope->Compute(n);
  const uint8_t target =
      bottom_up ? kUnvisitedDepth : static_cast<uint8_t>(level);
  for (int64_t v = 0; v < n; ++v) {
    if (depths_[v] == target) frontier_.Push(static_cast<graph::VertexId>(v));
  }
  scope->StoreContiguous(0, frontier_.size(), sizeof(graph::VertexId));
  scope->Atomic((frontier_.size() + gpusim::kWarpSize - 1) /
                gpusim::kWarpSize);
  return frontier_.size();
}

void SingleBfs::Export(GroupResult* result) {
  if (options_.collect_instance_stats) {
    result->trace.bottom_up_inspections_per_instance.push_back(
        bu_inspections_);
  }
  if (options_.record_parents) result->parents.push_back(std::move(parents_));
  result->depths.push_back(std::move(depths_));
}

}  // namespace ibfs
