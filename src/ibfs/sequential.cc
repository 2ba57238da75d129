#include "ibfs/level_driver.h"
#include "ibfs/single_bfs.h"
#include "ibfs/strategies.h"

namespace ibfs::internal_strategies {

// Runs each instance's full BFS back to back: the paper's "sequential"
// baseline of Figure 15 (state-of-the-art single BFS, repeated i times).
// Every level of every instance pays its own kernel launches, and the
// private per-byte status probes coalesce poorly. With private queues
// nothing is shared, so each level's joint size in the merged trace equals
// its private sum.
Result<GroupResult> RunSequentialGroup(const graph::Csr& graph,
                                       std::span<const graph::VertexId> sources,
                                       const TraversalOptions& options,
                                       gpusim::Device* device) {
  GroupResult result;
  result.trace.instance_count = static_cast<int>(sources.size());
  for (const graph::VertexId& source : sources) {
    SingleBfs bfs(graph, source, options);
    LevelDriver(graph, {&source, 1}, options)
        .Run(bfs, device, &result.trace.levels);
    bfs.Export(&result);
  }
  return result;
}

}  // namespace ibfs::internal_strategies
