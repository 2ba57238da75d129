#ifndef IBFS_APPS_CENTRALITY_H_
#define IBFS_APPS_CENTRALITY_H_

#include <span>
#include <vector>

#include "graph/csr.h"

namespace ibfs::apps {

/// Exact betweenness centrality (an application the paper's introduction
/// motivates [11]) via Brandes' algorithm, one BFS-based dependency
/// accumulation per source (host-exact; used to validate and to demonstrate
/// the application, not instrumented for simulated time). Pass all
/// vertices as sources for the classical definition.
std::vector<double> BetweennessCentrality(
    const graph::Csr& graph, std::span<const graph::VertexId> sources);

}  // namespace ibfs::apps

#endif  // IBFS_APPS_CENTRALITY_H_
