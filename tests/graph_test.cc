#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/csr.h"
#include "graph/degree_stats.h"
#include "graph/io.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/prng.h"

namespace ibfs::graph {
namespace {

TEST(BuilderTest, BuildsSimpleDirectedGraph) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  auto result = std::move(builder).Build();
  ASSERT_TRUE(result.ok());
  const Csr& g = result.value();
  EXPECT_EQ(g.vertex_count(), 3);
  EXPECT_EQ(g.edge_count(), 3);
  EXPECT_EQ(g.OutDegree(0), 2);
  EXPECT_EQ(g.OutDegree(2), 0);
  EXPECT_EQ(g.InDegree(2), 2);
  // A directed graph keeps its own reverse lists.
  EXPECT_NE(g.in_adjacency().data(), g.adjacency().data());
  EXPECT_EQ(g.InDegree(0), 0);
  EXPECT_TRUE(g.InNeighbors(0).empty());
  ASSERT_EQ(g.InNeighbors(1).size(), 1u);
  EXPECT_EQ(g.InNeighbors(1)[0], 0u);
  ASSERT_EQ(g.InNeighbors(2).size(), 2u);
  EXPECT_EQ(g.InNeighbors(2)[0], 0u);
  EXPECT_EQ(g.InNeighbors(2)[1], 1u);
}

TEST(BuilderTest, UndirectedEdgesStoreBothDirections) {
  GraphBuilder builder(2);
  builder.AddUndirectedEdge(0, 1);
  auto result = std::move(builder).Build();
  ASSERT_TRUE(result.ok());
  const Csr& g = result.value();
  EXPECT_EQ(g.edge_count(), 2);
  EXPECT_EQ(g.OutDegree(0), 1);
  EXPECT_EQ(g.OutDegree(1), 1);
}

TEST(BuilderTest, DeduplicatesEdges) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 1);
  auto result = std::move(builder).Build();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().edge_count(), 1);
}

TEST(BuilderTest, KeepsSelfLoops) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 0);
  builder.AddEdge(0, 1);
  auto result = std::move(builder).Build();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().edge_count(), 2);
}

TEST(BuilderTest, AdjacencySorted) {
  GraphBuilder builder(5);
  builder.AddEdge(0, 4);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 3);
  auto result = std::move(builder).Build();
  ASSERT_TRUE(result.ok());
  const auto nbrs = result.value().OutNeighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(BuilderTest, RejectsOutOfRangeEndpoint) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 5);
  auto result = std::move(builder).Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(BuilderTest, RejectsNonPositiveVertexCount) {
  GraphBuilder builder(0);
  auto result = std::move(builder).Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(BuilderTest, AddEdgesBulk) {
  GraphBuilder builder(4);
  builder.AddEdges({{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(builder.edge_count(), 3);
  auto result = std::move(builder).Build();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().edge_count(), 3);
}

// Checks `g` against the deduplicated edge set `edges`: out-lists ascending
// by destination, in-lists ascending by source, and one shared copy of the
// arrays exactly when the set is symmetric.
void ExpectMatchesReference(
    const Csr& g, int64_t vertex_count,
    const std::set<std::pair<VertexId, VertexId>>& edges) {
  ASSERT_EQ(g.vertex_count(), vertex_count);
  ASSERT_EQ(g.edge_count(), static_cast<int64_t>(edges.size()));
  std::vector<std::vector<VertexId>> out(static_cast<size_t>(vertex_count));
  std::vector<std::vector<VertexId>> in(static_cast<size_t>(vertex_count));
  bool symmetric = true;
  for (const auto& [src, dst] : edges) {  // (src, dst) order
    out[src].push_back(dst);
    in[dst].push_back(src);
    symmetric &= edges.contains({dst, src});
  }
  for (auto& list : in) std::sort(list.begin(), list.end());
  for (int64_t v = 0; v < vertex_count; ++v) {
    const auto id = static_cast<VertexId>(v);
    const auto got_out = g.OutNeighbors(id);
    const auto got_in = g.InNeighbors(id);
    EXPECT_TRUE(std::equal(got_out.begin(), got_out.end(), out[id].begin(),
                           out[id].end()))
        << "out-list of " << v;
    EXPECT_TRUE(std::equal(got_in.begin(), got_in.end(), in[id].begin(),
                           in[id].end()))
        << "in-list of " << v;
  }
  EXPECT_EQ(g.in_adjacency().data() == g.adjacency().data(), symmetric);
  EXPECT_EQ(g.in_row_offsets().data() == g.row_offsets().data(), symmetric);
}

TEST(BuilderTest, MatchesSetReference) {
  // Seeded random edge lists with duplicates, self-loops and isolated
  // vertices (endpoints avoid the top third of the range), added through
  // each entry point and mixes of them.
  enum class Via { kAddEdge, kSymmetricAddEdge, kUndirected, kBulk, kMixed };
  for (const int64_t n : {1, 2, 17, 300}) {
    for (const Via via : {Via::kAddEdge, Via::kSymmetricAddEdge,
                          Via::kUndirected, Via::kBulk, Via::kMixed}) {
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " via="
                                          << static_cast<int>(via)
                                          << " seed=" << seed);
        Prng prng(seed * 1000 + static_cast<uint64_t>(n));
        const auto span =
            static_cast<uint64_t>(std::max<int64_t>(1, n - n / 3));
        const int64_t adds = static_cast<int64_t>(prng.NextBounded(
            static_cast<uint64_t>(3 * n + 4)));
        GraphBuilder builder(n);
        std::set<std::pair<VertexId, VertexId>> reference;
        std::vector<Edge> batch;
        for (int64_t i = 0; i < adds; ++i) {
          const auto u = static_cast<VertexId>(prng.NextBounded(span));
          // One add in eight repeats its source: a self-loop.
          const auto v = prng.NextBounded(8) == 0
                             ? u
                             : static_cast<VertexId>(prng.NextBounded(span));
          Via how = via;
          if (via == Via::kMixed) {
            how = static_cast<Via>(prng.NextBounded(4));
          }
          switch (how) {
            case Via::kAddEdge:
              builder.AddEdge(u, v);
              reference.insert({u, v});
              break;
            case Via::kSymmetricAddEdge:
              builder.AddEdge(u, v);
              builder.AddEdge(v, u);
              reference.insert({u, v});
              reference.insert({v, u});
              break;
            case Via::kUndirected:
              builder.AddUndirectedEdge(u, v);
              reference.insert({u, v});
              reference.insert({v, u});
              break;
            default:
              batch.push_back({u, v});
              reference.insert({u, v});
              if (batch.size() == 3 || prng.NextBounded(2) == 0) {
                builder.AddEdges(batch);
                batch.clear();
              }
          }
        }
        builder.AddEdges(batch);
        auto result = std::move(builder).Build();
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ExpectMatchesReference(result.value(), n, reference);
      }
    }
  }
}

TEST(CsrTest, ReverseAdjacencyMirrorsForward) {
  const Csr g = ibfs::testing::MakeSmallGraph();
  // For an undirected build, in-neighbors equal out-neighbors, and the
  // graph keeps one shared copy of them.
  for (int64_t v = 0; v < g.vertex_count(); ++v) {
    const auto out = g.OutNeighbors(static_cast<VertexId>(v));
    const auto in = g.InNeighbors(static_cast<VertexId>(v));
    ASSERT_EQ(out.size(), in.size());
    for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], in[i]);
    EXPECT_EQ(in.data(), out.data());
    EXPECT_EQ(g.InDegree(static_cast<VertexId>(v)),
              g.OutDegree(static_cast<VertexId>(v)));
  }
  EXPECT_EQ(g.in_adjacency().data(), g.adjacency().data());
  EXPECT_EQ(g.in_row_offsets().data(), g.row_offsets().data());
}

TEST(CsrTest, EdgeCountConsistentWithDegrees) {
  const Csr g = ibfs::testing::MakeSmallGraph();
  int64_t total = 0;
  for (int64_t v = 0; v < g.vertex_count(); ++v) {
    total += g.OutDegree(static_cast<VertexId>(v));
  }
  EXPECT_EQ(total, g.edge_count());
}

TEST(CsrTest, StorageBytesPositiveAndPlausible) {
  // 9 vertices, 24 directed edges: (10 offsets * 8 + 24 ids * 4) per CSR,
  // out and in. Sharing the host copy must not shrink the simulated
  // device's footprint, which caps Engine::MaxGroupSize.
  EXPECT_EQ(ibfs::testing::MakeSmallGraph().StorageBytes(), 352);
}

TEST(CsrTest, MovedGraphsAnswerInNeighbors) {
  const Csr reference = ibfs::testing::MakeSmallGraph();
  const auto expect_same = [&](const Csr& g) {
    ASSERT_EQ(g.vertex_count(), reference.vertex_count());
    EXPECT_EQ(g.StorageBytes(), reference.StorageBytes());
    for (int64_t v = 0; v < g.vertex_count(); ++v) {
      const auto id = static_cast<VertexId>(v);
      const auto want = reference.InNeighbors(id);
      const auto got = g.InNeighbors(id);
      EXPECT_TRUE(
          std::equal(got.begin(), got.end(), want.begin(), want.end()));
      EXPECT_EQ(got.data(), g.OutNeighbors(id).data());
    }
  };
  Csr moved = ibfs::testing::MakeSmallGraph();
  const Csr constructed(std::move(moved));
  expect_same(constructed);
  Csr assigned = ibfs::testing::MakeDisconnectedGraph();
  assigned = ibfs::testing::MakeSmallGraph();
  expect_same(assigned);
}

TEST(IoTest, RoundTripsEdgeList) {
  const Csr g = ibfs::testing::MakeSmallGraph();
  const std::string path = ::testing::TempDir() + "/ibfs_io_test.txt";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto loaded = LoadEdgeList(path, g.vertex_count());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().edge_count(), g.edge_count());
  for (int64_t v = 0; v < g.vertex_count(); ++v) {
    const auto a = g.OutNeighbors(static_cast<VertexId>(v));
    const auto b = loaded.value().OutNeighbors(static_cast<VertexId>(v));
    ASSERT_EQ(a.size(), b.size());
  }
  std::remove(path.c_str());
}

TEST(IoTest, SkipsCommentsAndInfersVertexCount) {
  const std::string path = ::testing::TempDir() + "/ibfs_io_comments.txt";
  {
    std::ofstream out(path);
    out << "# comment\n% comment\n0 1\n1 2\n";
  }
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().vertex_count(), 3);
  EXPECT_EQ(loaded.value().edge_count(), 2);
  std::remove(path.c_str());
}

TEST(IoTest, UndirectedLoadDoublesEdges) {
  const std::string path = ::testing::TempDir() + "/ibfs_io_undirected.txt";
  {
    std::ofstream out(path);
    out << "0 1\n";
  }
  auto loaded = LoadEdgeList(path, -1, /*undirected=*/true);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().edge_count(), 2);
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileIsIoError) {
  auto loaded = LoadEdgeList("/nonexistent/path/file.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(IoTest, MalformedLineIsIoError) {
  const std::string path = ::testing::TempDir() + "/ibfs_io_bad.txt";
  {
    std::ofstream out(path);
    out << "0 notanumber\n";
  }
  auto loaded = LoadEdgeList(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(DegreeStatsTest, ComputesAggregates) {
  const Csr g = ibfs::testing::MakeSmallGraph();
  const DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_EQ(stats.vertex_count, g.vertex_count());
  EXPECT_EQ(stats.edge_count, g.edge_count());
  EXPECT_NEAR(stats.avg_outdegree,
              static_cast<double>(g.edge_count()) / g.vertex_count(), 1e-12);
  EXPECT_GT(stats.max_outdegree, 0);
  EXPECT_EQ(stats.zero_degree_count, 0);
}

TEST(DegreeStatsTest, HighOutDegreeVertices) {
  const Csr g = ibfs::testing::MakeSmallGraph();
  const auto hubs = HighOutDegreeVertices(g, 3);
  for (VertexId h : hubs) EXPECT_GT(g.OutDegree(h), 3);
  // Threshold above max degree yields nothing.
  EXPECT_TRUE(HighOutDegreeVertices(g, 100).empty());
}

TEST(DegreeStatsTest, HistogramCountsAllVertices) {
  const Csr g = ibfs::testing::MakeRmatGraph(7, 8);
  const auto hist = DegreeHistogram(g);
  int64_t total = 0;
  for (int64_t c : hist) total += c;
  EXPECT_EQ(total, g.vertex_count());
}

}  // namespace
}  // namespace ibfs::graph
