// Tests for the release-grade extras: binary graph serialization and
// degree-ordered relabeling.
#include <cstdio>
#include <numeric>

#include "baselines/reference_bfs.h"
#include "graph/io.h"
#include "graph/relabel.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace ibfs {
namespace {

using graph::Csr;
using graph::VertexId;

TEST(BinaryIoTest, RoundTripsExactly) {
  const Csr g = testing::MakeRmatGraph(7, 8);
  const std::string path = ::testing::TempDir() + "/ibfs_graph.bin";
  ASSERT_TRUE(graph::SaveBinary(g, path).ok());
  auto loaded = graph::LoadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Csr& h = loaded.value();
  ASSERT_EQ(h.vertex_count(), g.vertex_count());
  ASSERT_EQ(h.edge_count(), g.edge_count());
  for (int64_t v = 0; v < g.vertex_count(); ++v) {
    const auto a = g.OutNeighbors(static_cast<VertexId>(v));
    const auto b = h.OutNeighbors(static_cast<VertexId>(v));
    ASSERT_EQ(std::vector<VertexId>(a.begin(), a.end()),
              std::vector<VertexId>(b.begin(), b.end()));
    const auto ia = g.InNeighbors(static_cast<VertexId>(v));
    const auto ib = h.InNeighbors(static_cast<VertexId>(v));
    ASSERT_EQ(std::vector<VertexId>(ia.begin(), ia.end()),
              std::vector<VertexId>(ib.begin(), ib.end()));
    // The undirected graph reloads with one shared adjacency.
    EXPECT_EQ(ib.data(), h.OutNeighbors(static_cast<VertexId>(v)).data());
  }
  EXPECT_EQ(h.StorageBytes(), g.StorageBytes());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsGarbageAndTruncation) {
  const std::string path = ::testing::TempDir() + "/ibfs_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a graph", f);
    std::fclose(f);
  }
  EXPECT_FALSE(graph::LoadBinary(path).ok());

  // Valid header, truncated body.
  const Csr g = testing::MakeSmallGraph();
  ASSERT_TRUE(graph::SaveBinary(g, path).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(::truncate(path.c_str(), size / 2), 0);
  }
  EXPECT_FALSE(graph::LoadBinary(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MissingFileIsIoError) {
  auto loaded = graph::LoadBinary("/nonexistent/ibfs.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(RelabelTest, MappingsAreInverse) {
  const Csr g = testing::MakeRmatGraph(7, 8);
  auto relabeled = graph::RelabelByDegree(g);
  ASSERT_TRUE(relabeled.ok());
  const auto& r = relabeled.value();
  for (int64_t v = 0; v < g.vertex_count(); ++v) {
    EXPECT_EQ(r.old_id[r.new_id[v]], static_cast<VertexId>(v));
  }
}

TEST(RelabelTest, DegreesDescendInNewIds) {
  const Csr g = testing::MakeRmatGraph(7, 8);
  auto relabeled = graph::RelabelByDegree(g);
  ASSERT_TRUE(relabeled.ok());
  const Csr& h = relabeled.value().graph;
  for (int64_t v = 0; v + 1 < h.vertex_count(); ++v) {
    EXPECT_GE(h.OutDegree(static_cast<VertexId>(v)),
              h.OutDegree(static_cast<VertexId>(v + 1)));
  }
}

TEST(RelabelTest, TraversalEquivalentAfterMappingBack) {
  const Csr g = testing::MakeRmatGraph(7, 8);
  auto relabeled = graph::RelabelByDegree(g);
  ASSERT_TRUE(relabeled.ok());
  const auto& r = relabeled.value();
  const VertexId source = 37;
  const auto direct = baselines::ReferenceBfs(g, source);
  const auto on_new =
      baselines::ReferenceBfs(r.graph, r.new_id[source]);
  std::vector<uint8_t> new_depths;
  for (int32_t d : on_new) {
    new_depths.push_back(d < 0 ? 0xFF : static_cast<uint8_t>(d));
  }
  const auto mapped = graph::MapDepthsToOriginal(r, new_depths);
  for (int64_t v = 0; v < g.vertex_count(); ++v) {
    const int got = mapped[v] == 0xFF ? -1 : mapped[v];
    EXPECT_EQ(got, direct[v]) << "vertex " << v;
  }
}

}  // namespace
}  // namespace ibfs
