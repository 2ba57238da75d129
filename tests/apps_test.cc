#include <numeric>

#include "apps/centrality.h"
#include "apps/reachability_index.h"
#include "baselines/reference_bfs.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace ibfs::apps {
namespace {

using graph::VertexId;

TEST(ReachabilityIndexTest, MatchesTruncatedReference) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  std::vector<VertexId> sources(32);
  std::iota(sources.begin(), sources.end(), 0);
  auto index = KHopReachabilityIndex::Build(g, sources, 3, {});
  ASSERT_TRUE(index.ok());
  const auto& idx = index.value();
  EXPECT_EQ(idx.source_count(), 32);
  EXPECT_EQ(idx.k(), 3);
  EXPECT_GT(idx.build_seconds(), 0.0);
  EXPECT_GT(idx.IndexBytes(), 0);
  for (int64_t i = 0; i < idx.source_count(); ++i) {
    // Recover which source this row belongs to via HopsTo(s) == 0.
    VertexId s = graph::kInvalidVertex;
    for (int64_t v = 0; v < g.vertex_count(); ++v) {
      if (idx.HopsTo(i, static_cast<VertexId>(v)) == 0) {
        s = static_cast<VertexId>(v);
        break;
      }
    }
    ASSERT_NE(s, graph::kInvalidVertex);
    const auto ref = baselines::ReferenceBfs(g, s, 3);
    for (int64_t v = 0; v < g.vertex_count(); ++v) {
      const auto vid = static_cast<VertexId>(v);
      EXPECT_EQ(idx.Reachable(i, vid), ref[v] >= 0);
      EXPECT_EQ(idx.HopsTo(i, vid), ref[v]);
    }
  }
}

TEST(ReachabilityIndexTest, RejectsBadK) {
  const graph::Csr g = testing::MakeSmallGraph();
  const std::vector<VertexId> sources = {0};
  EXPECT_FALSE(KHopReachabilityIndex::Build(g, sources, 0, {}).ok());
  EXPECT_FALSE(KHopReachabilityIndex::Build(g, sources, 300, {}).ok());
}

TEST(ReachabilityIndexTest, UnreachableBeyondKHops) {
  const graph::Csr g = testing::MakeDisconnectedGraph(12);  // a chain
  const std::vector<VertexId> sources = {0};
  auto index = KHopReachabilityIndex::Build(g, sources, 2, {});
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index.value().Reachable(0, 2));
  EXPECT_FALSE(index.value().Reachable(0, 3));
  EXPECT_FALSE(index.value().Reachable(0, 11));
}


TEST(ReachabilityIndexTest, ReachableWithinUsesIndexAndFallback) {
  const graph::Csr g = testing::MakeDisconnectedGraph(12);  // chain 0..9
  const std::vector<VertexId> sources = {0};
  auto index = KHopReachabilityIndex::Build(g, sources, 3, {});
  ASSERT_TRUE(index.ok());
  const auto& idx = index.value();
  // Within the horizon: answered from the index.
  EXPECT_TRUE(idx.ReachableWithin(g, 0, 3, 3));
  EXPECT_FALSE(idx.ReachableWithin(g, 0, 4, 3));
  EXPECT_TRUE(idx.ReachableWithin(g, 0, 2, 2));
  EXPECT_FALSE(idx.ReachableWithin(g, 0, 3, 2));
  // Beyond the horizon: online fallback BFS answers correctly.
  EXPECT_TRUE(idx.ReachableWithin(g, 0, 7, 7));
  EXPECT_FALSE(idx.ReachableWithin(g, 0, 8, 7));
  EXPECT_FALSE(idx.ReachableWithin(g, 0, 11, 100));  // island
  // Degenerate limit: only the source itself.
  EXPECT_TRUE(idx.ReachableWithin(g, 0, 0, 0));
  EXPECT_FALSE(idx.ReachableWithin(g, 0, 1, 0));
}

TEST(BetweennessTest, ChainInteriorDominates) {
  // Chain 0-1-2-...-9 (plus an island): interior vertices carry all paths.
  const graph::Csr g = testing::MakeDisconnectedGraph(12);
  std::vector<VertexId> sources(10);
  std::iota(sources.begin(), sources.end(), 0);
  const auto bc = BetweennessCentrality(g, sources);
  EXPECT_EQ(bc[0], 0.0);   // endpoints lie on no interior path
  EXPECT_EQ(bc[9], 0.0);
  EXPECT_GT(bc[4], bc[1]);  // middle beats near-end
  EXPECT_GT(bc[5], 0.0);
  EXPECT_EQ(bc[10], 0.0);  // island untouched
}

TEST(BetweennessTest, SymmetricStarCenter) {
  // Star: center 0 connected to 1..4. All shortest paths go through 0.
  graph::GraphBuilder builder(5);
  for (int leaf = 1; leaf < 5; ++leaf) {
    builder.AddUndirectedEdge(0, static_cast<VertexId>(leaf));
  }
  auto g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  std::vector<VertexId> sources(5);
  std::iota(sources.begin(), sources.end(), 0);
  const auto bc = BetweennessCentrality(g.value(), sources);
  // 4 leaves, 3 other leaves each, ordered pairs: 4*3 = 12 paths via center.
  EXPECT_NEAR(bc[0], 12.0, 1e-9);
  for (int leaf = 1; leaf < 5; ++leaf) EXPECT_NEAR(bc[leaf], 0.0, 1e-12);
}

}  // namespace
}  // namespace ibfs::apps
