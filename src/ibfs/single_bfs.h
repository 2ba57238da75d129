#ifndef IBFS_IBFS_SINGLE_BFS_H_
#define IBFS_IBFS_SINGLE_BFS_H_

#include <cstdint>
#include <vector>

#include "gpusim/device.h"
#include "graph/csr.h"
#include "ibfs/frontier_queue.h"
#include "ibfs/level_driver.h"
#include "ibfs/runner.h"
#include "ibfs/status_array.h"

namespace ibfs {

/// One direction-optimizing BFS instance with private data structures: the
/// per-instance kernel of the sequential and naive concurrent strategies,
/// driven level by level by LevelDriver (see level_driver.h for the kernel
/// contract). Mirrors the Enterprise-style single BFS the paper builds on:
/// every level performs expansion, inspection, and frontier-queue
/// generation.
class SingleBfs {
 public:
  /// Initializes a BFS from `source`. The graph must outlive this object.
  SingleBfs(const graph::Csr& graph, graph::VertexId source,
            const TraversalOptions& options);

  /// Frontier count for the upcoming level.
  int64_t queue_size() const { return frontier_.size(); }

  /// Expansion + inspection of `level` in one direction, charging memory
  /// traffic and compute to `scope`. Returns the neighbor checks made.
  int64_t TopDown(int level, gpusim::KernelScope* scope);
  int64_t BottomUp(int level, gpusim::KernelScope* scope);

  /// The vertices the level just visited and their out-edges (counted
  /// during inspection, so the sweep charges nothing).
  LevelSweep Sweep(int level, gpusim::KernelScope* scope);

  /// Scans the status array to build the next level's frontier queue for
  /// the chosen direction (charged to `scope`); returns its size. Once
  /// every vertex is visited the queue stays empty and nothing is charged.
  int64_t BuildQueue(bool bottom_up, int level, gpusim::KernelScope* scope);

  /// Appends this instance's depths, and its parents and bottom-up
  /// inspection count when the options ask for them, to `result`.
  void Export(GroupResult* result);

  /// Depths after (or during) traversal; kUnvisitedDepth when unreached.
  const std::vector<uint8_t>& depths() const { return depths_; }

  /// Neighbor checks performed during bottom-up levels (Figure 11 metric).
  int64_t bottom_up_inspections() const { return bu_inspections_; }
  /// Neighbor checks performed over the whole traversal.
  int64_t total_inspections() const { return total_inspections_; }

 private:
  const graph::Csr& graph_;
  TraversalOptions options_;
  std::vector<uint8_t> depths_;
  // BFS-tree parents (kInvalidVertex when unreached; the source is its own
  // parent), maintained alongside the depths at one extra store per
  // discovery.
  std::vector<graph::VertexId> parents_;
  FrontierQueue frontier_;
  int64_t visited_count_ = 1;
  // Discoveries of the level being inspected and their out-degree sum.
  int64_t new_visits_ = 0;
  int64_t frontier_edges_ = 0;
  int64_t bu_inspections_ = 0;
  int64_t total_inspections_ = 0;
};

}  // namespace ibfs

#endif  // IBFS_IBFS_SINGLE_BFS_H_
