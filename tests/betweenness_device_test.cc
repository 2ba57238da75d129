#include <numeric>
#include <vector>

#include "apps/betweenness_device.h"
#include "apps/centrality.h"
#include "graph/builder.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace ibfs::apps {
namespace {

using graph::VertexId;

std::vector<VertexId> AllVertices(const graph::Csr& g) {
  std::vector<VertexId> v(static_cast<size_t>(g.vertex_count()));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(DeviceBetweennessTest, MatchesHostBrandesOnSmallGraph) {
  const graph::Csr g = testing::MakeSmallGraph();
  const auto pivots = AllVertices(g);
  auto device = DeviceBetweenness(g, pivots, /*group_size=*/4);
  ASSERT_TRUE(device.ok()) << device.status().ToString();
  const auto host = BetweennessCentrality(g, pivots);
  ASSERT_EQ(device.value().centrality.size(), host.size());
  for (size_t v = 0; v < host.size(); ++v) {
    EXPECT_NEAR(device.value().centrality[v], host[v], 1e-9)
        << "vertex " << v;
  }
  EXPECT_GT(device.value().sim_seconds, 0.0);
}

TEST(DeviceBetweennessTest, MatchesHostBrandesOnRmat) {
  const graph::Csr g = testing::MakeRmatGraph(6, 6);
  const auto pivots = AllVertices(g);
  for (int group_size : {1, 7, 64}) {
    auto device = DeviceBetweenness(g, pivots, group_size);
    ASSERT_TRUE(device.ok());
    const auto host = BetweennessCentrality(g, pivots);
    for (size_t v = 0; v < host.size(); ++v) {
      ASSERT_NEAR(device.value().centrality[v], host[v],
                  1e-6 * (1.0 + host[v]))
          << "vertex " << v << " group_size " << group_size;
    }
  }
}

TEST(DeviceBetweennessTest, StarCenterTakesAllPaths) {
  graph::GraphBuilder builder(6);
  for (int leaf = 1; leaf < 6; ++leaf) {
    builder.AddUndirectedEdge(0, static_cast<VertexId>(leaf));
  }
  auto g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  auto result = DeviceBetweenness(g.value(), AllVertices(g.value()), 6);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().centrality[0], 5.0 * 4.0, 1e-9);
  for (int leaf = 1; leaf < 6; ++leaf) {
    EXPECT_NEAR(result.value().centrality[leaf], 0.0, 1e-12);
  }
}

TEST(DeviceBetweennessTest, GroupingInvariant) {
  // Betweenness must not depend on how pivots are grouped.
  const graph::Csr g = testing::MakeRmatGraph(6, 8, 5);
  const auto pivots = AllVertices(g);
  auto a = DeviceBetweenness(g, pivots, 16);
  auto b = DeviceBetweenness(g, pivots, 64);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t v = 0; v < a.value().centrality.size(); ++v) {
    ASSERT_NEAR(a.value().centrality[v], b.value().centrality[v], 1e-6);
  }
}

TEST(DeviceBetweennessTest, RejectsBadInput) {
  const graph::Csr g = testing::MakeSmallGraph();
  EXPECT_FALSE(DeviceBetweenness(g, {}, 4).ok());
  const std::vector<VertexId> bad = {100};
  EXPECT_FALSE(DeviceBetweenness(g, bad, 4).ok());
  const std::vector<VertexId> ok_pivots = {0};
  EXPECT_FALSE(DeviceBetweenness(g, ok_pivots, 0).ok());
}

}  // namespace
}  // namespace ibfs::apps
