#include "apps/centrality.h"

#include <algorithm>
#include <deque>

namespace ibfs::apps {

std::vector<double> BetweennessCentrality(
    const graph::Csr& graph, std::span<const graph::VertexId> sources) {
  const int64_t n = graph.vertex_count();
  std::vector<double> bc(static_cast<size_t>(n), 0.0);

  // Brandes' algorithm: forward BFS builds shortest-path counts sigma and
  // the level DAG; the backward sweep accumulates dependencies.
  std::vector<int32_t> dist(static_cast<size_t>(n));
  std::vector<double> sigma(static_cast<size_t>(n));
  std::vector<double> delta(static_cast<size_t>(n));
  std::vector<graph::VertexId> order;
  order.reserve(static_cast<size_t>(n));

  for (graph::VertexId s : sources) {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    order.clear();

    dist[s] = 0;
    sigma[s] = 1.0;
    std::deque<graph::VertexId> queue{s};
    while (!queue.empty()) {
      const graph::VertexId v = queue.front();
      queue.pop_front();
      order.push_back(v);
      for (graph::VertexId w : graph.OutNeighbors(v)) {
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          queue.push_back(w);
        }
        if (dist[w] == dist[v] + 1) sigma[w] += sigma[v];
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const graph::VertexId w = *it;
      for (graph::VertexId v : graph.InNeighbors(w)) {
        if (dist[v] == dist[w] - 1 && sigma[w] > 0.0) {
          delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
        }
      }
      if (w != s) bc[w] += delta[w];
    }
  }
  return bc;
}

}  // namespace ibfs::apps
