#include "baselines/reference_bfs.h"
#include "gpusim/device.h"
#include "gtest/gtest.h"
#include "ibfs/level_driver.h"
#include "ibfs/single_bfs.h"
#include "test_util.h"

namespace ibfs {
namespace {

// Drives `bfs` (started at `source`) to completion through the level loop
// and returns its per-level trace.
std::vector<LevelTrace> Drive(SingleBfs& bfs, const graph::Csr& graph,
                              graph::VertexId source,
                              const TraversalOptions& options,
                              gpusim::Device* device) {
  std::vector<LevelTrace> levels;
  LevelDriver(graph, {&source, 1}, options).Run(bfs, device, &levels);
  return levels;
}

// Drives one SingleBfs to completion and returns its depths.
std::vector<uint8_t> RunToEnd(const graph::Csr& graph, graph::VertexId source,
                              const TraversalOptions& options,
                              gpusim::Device* device) {
  SingleBfs bfs(graph, source, options);
  Drive(bfs, graph, source, options, device);
  return bfs.depths();
}

TEST(SingleBfsTest, MatchesReferenceOnSmallGraph) {
  const graph::Csr g = testing::MakeSmallGraph();
  gpusim::Device device;
  for (int64_t s = 0; s < g.vertex_count(); ++s) {
    const auto depths =
        RunToEnd(g, static_cast<graph::VertexId>(s), {}, &device);
    EXPECT_TRUE(baselines::DepthsMatchReference(
        g, static_cast<graph::VertexId>(s), depths))
        << "source " << s;
  }
}

TEST(SingleBfsTest, MatchesReferenceOnRmat) {
  const graph::Csr g = testing::MakeRmatGraph(8, 8);
  gpusim::Device device;
  for (graph::VertexId s : {0u, 17u, 99u, 255u}) {
    const auto depths = RunToEnd(g, s, {}, &device);
    EXPECT_TRUE(baselines::DepthsMatchReference(g, s, depths))
        << "source " << s;
  }
}

TEST(SingleBfsTest, MatchesReferenceOnUniform) {
  const graph::Csr g = testing::MakeUniformGraph(256, 4);
  gpusim::Device device;
  for (graph::VertexId s : {0u, 100u, 200u}) {
    const auto depths = RunToEnd(g, s, {}, &device);
    EXPECT_TRUE(baselines::DepthsMatchReference(g, s, depths));
  }
}

TEST(SingleBfsTest, UnreachableStayUnvisited) {
  const graph::Csr g = testing::MakeDisconnectedGraph(12);
  gpusim::Device device;
  const auto depths = RunToEnd(g, 0, {}, &device);
  EXPECT_EQ(depths[10], kUnvisitedDepth);
  EXPECT_EQ(depths[11], kUnvisitedDepth);
  EXPECT_TRUE(baselines::DepthsMatchReference(g, 0, depths));
}

TEST(SingleBfsTest, SwitchesToBottomUpOnDenseGraph) {
  const graph::Csr g = testing::MakeRmatGraph(8, 16);
  TraversalOptions options;
  gpusim::Device device;
  SingleBfs bfs(g, 0, options);
  bool saw_bottom_up = false;
  for (const LevelTrace& lt : Drive(bfs, g, 0, options, &device)) {
    saw_bottom_up |= lt.bottom_up;
  }
  EXPECT_TRUE(saw_bottom_up);
}

TEST(SingleBfsTest, ForceTopDownNeverSwitches) {
  const graph::Csr g = testing::MakeRmatGraph(8, 16);
  TraversalOptions options;
  options.force_top_down = true;
  gpusim::Device device;
  SingleBfs bfs(g, 0, options);
  for (const LevelTrace& lt : Drive(bfs, g, 0, options, &device)) {
    EXPECT_FALSE(lt.bottom_up);
  }
  EXPECT_TRUE(baselines::DepthsMatchReference(g, 0, bfs.depths()));
}

TEST(SingleBfsTest, MaxLevelTruncates) {
  const graph::Csr g = testing::MakeDisconnectedGraph(12);  // chain
  TraversalOptions options;
  options.max_level = 3;
  gpusim::Device device;
  const auto depths = RunToEnd(g, 0, options, &device);
  EXPECT_TRUE(baselines::DepthsMatchReference(g, 0, depths, 3));
  EXPECT_EQ(depths[3], 3);
  EXPECT_EQ(depths[4], kUnvisitedDepth);
}

TEST(SingleBfsTest, ChargesDeviceWork) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  gpusim::Device device;
  RunToEnd(g, 0, {}, &device);
  EXPECT_GT(device.elapsed_seconds(), 0.0);
  EXPECT_GT(device.totals().mem.load_transactions, 0u);
  EXPECT_GT(device.totals().mem.store_transactions, 0u);
}

TEST(SingleBfsTest, InspectionCountersPopulated) {
  const graph::Csr g = testing::MakeRmatGraph(7, 12);
  gpusim::Device device;
  SingleBfs bfs(g, 0, {});
  Drive(bfs, g, 0, {}, &device);
  EXPECT_GT(bfs.total_inspections(), 0);
  EXPECT_GE(bfs.total_inspections(), bfs.bottom_up_inspections());
}

}  // namespace
}  // namespace ibfs
