#include <vector>

#include "baselines/cpu_bfs.h"
#include "baselines/cpu_model.h"
#include "baselines/reference_bfs.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace ibfs::baselines {
namespace {

using graph::VertexId;

std::vector<VertexId> FirstSources(int64_t n) {
  std::vector<VertexId> sources;
  for (int64_t i = 0; i < n; ++i) sources.push_back(static_cast<VertexId>(i));
  return sources;
}

TEST(ReferenceBfsTest, SmallGraphDepths) {
  const graph::Csr g = ibfs::testing::MakeSmallGraph();
  const auto depths = ReferenceBfs(g, 0);
  EXPECT_EQ(depths[0], 0);
  EXPECT_EQ(depths[1], 1);
  EXPECT_EQ(depths[4], 1);
  // Every vertex of the connected example graph is reached.
  for (int32_t d : depths) EXPECT_GE(d, 0);
}

TEST(ReferenceBfsTest, MaxLevelTruncation) {
  const graph::Csr g = ibfs::testing::MakeDisconnectedGraph(12);
  const auto depths = ReferenceBfs(g, 0, 2);
  EXPECT_EQ(depths[2], 2);
  EXPECT_EQ(depths[3], -1);
}

TEST(ReferenceBfsTest, DepthsMatchHelperDetectsMismatch) {
  const graph::Csr g = ibfs::testing::MakeSmallGraph();
  std::vector<uint8_t> depths(9, 0xFF);
  EXPECT_FALSE(DepthsMatchReference(g, 0, depths));
}

TEST(CpuModelTest, AccumulatesAndModelsTime) {
  CpuCostModel cpu;
  EXPECT_EQ(cpu.Seconds(), 0.0);
  cpu.Compute(1000);
  cpu.RandomLines(10);
  cpu.SequentialBytes(4096);
  cpu.Atomic(5);
  cpu.ParallelSection();
  EXPECT_GT(cpu.Seconds(), 0.0);
  EXPECT_EQ(cpu.compute_ops(), 1000);
  EXPECT_EQ(cpu.random_lines(), 10);
  EXPECT_EQ(cpu.atomics(), 5);
  cpu.Reset();
  EXPECT_EQ(cpu.Seconds(), 0.0);
}

TEST(CpuModelTest, BandwidthBoundDominatesMemoryHeavyWork) {
  CpuSpec spec;
  spec.mem_bandwidth_gbps = 1.0;
  CpuCostModel cpu(spec);
  cpu.SequentialBytes(int64_t{1} << 30);
  EXPECT_GE(cpu.Seconds(), 1.0);
}

TEST(MsBfsTest, MatchesReference) {
  const graph::Csr g = ibfs::testing::MakeRmatGraph(7, 8);
  const auto sources = FirstSources(64);
  CpuCostModel cpu;
  auto result = RunMsBfs(g, sources, {}, &cpu);
  ASSERT_TRUE(result.ok());
  for (size_t j = 0; j < sources.size(); ++j) {
    EXPECT_TRUE(
        DepthsMatchReference(g, sources[j], result.value().depths[j]))
        << "instance " << j;
  }
  EXPECT_GT(result.value().seconds, 0.0);
  EXPECT_GT(result.value().edges_inspected, 0);
}

TEST(MsBfsTest, WorksAcrossWordBoundaries) {
  const graph::Csr g = ibfs::testing::MakeRmatGraph(7, 8);
  for (int n : {1, 63, 64, 65}) {
    CpuCostModel cpu;
    auto result = RunMsBfs(g, FirstSources(n), {}, &cpu);
    ASSERT_TRUE(result.ok());
    for (int j = 0; j < n; ++j) {
      EXPECT_TRUE(DepthsMatchReference(g, static_cast<VertexId>(j),
                                       result.value().depths[j]));
    }
  }
}

TEST(MsBfsTest, RespectsMaxLevel) {
  const graph::Csr g = ibfs::testing::MakeDisconnectedGraph(12);
  TraversalOptions options;
  options.max_level = 3;
  CpuCostModel cpu;
  auto result = RunMsBfs(g, FirstSources(2), options, &cpu);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(DepthsMatchReference(g, 0, result.value().depths[0], 3));
}

TEST(MsBfsTest, RejectsBadInputs) {
  const graph::Csr g = ibfs::testing::MakeSmallGraph();
  CpuCostModel cpu;
  EXPECT_FALSE(RunMsBfs(g, {}, {}, &cpu).ok());
  EXPECT_FALSE(RunMsBfs(g, FirstSources(2), {}, nullptr).ok());
}

TEST(CpuIbfsTest, MatchesReference) {
  const graph::Csr g = ibfs::testing::MakeRmatGraph(7, 8);
  const auto sources = FirstSources(64);
  CpuCostModel cpu;
  auto result = RunCpuIbfs(g, sources, {}, &cpu);
  ASSERT_TRUE(result.ok());
  for (size_t j = 0; j < sources.size(); ++j) {
    EXPECT_TRUE(
        DepthsMatchReference(g, sources[j], result.value().depths[j]))
        << "instance " << j;
  }
}

TEST(CpuIbfsTest, WorksAcrossWordBoundaries) {
  const graph::Csr g = ibfs::testing::MakeRmatGraph(7, 8);
  for (int n : {1, 64, 65, 127}) {
    CpuCostModel cpu;
    auto result = RunCpuIbfs(g, FirstSources(n), {}, &cpu);
    ASSERT_TRUE(result.ok());
    for (int j = 0; j < n; ++j) {
      EXPECT_TRUE(DepthsMatchReference(g, static_cast<VertexId>(j),
                                       result.value().depths[j]));
    }
  }
}

TEST(CpuIbfsTest, FasterThanMsBfsOnPowerLaw) {
  // Figure 22's CPU-side claim: CPU-iBFS beats MS-BFS thanks to early
  // termination and the cumulative status array.
  const graph::Csr g = ibfs::testing::MakeRmatGraph(8, 16);
  const auto sources = FirstSources(64);
  CpuCostModel cpu_ms;
  CpuCostModel cpu_ibfs;
  auto ms = RunMsBfs(g, sources, {}, &cpu_ms);
  auto ib = RunCpuIbfs(g, sources, {}, &cpu_ibfs);
  ASSERT_TRUE(ms.ok() && ib.ok());
  EXPECT_LT(ib.value().seconds, ms.value().seconds);
}

}  // namespace
}  // namespace ibfs::baselines
