#include <string>
#include <tuple>
#include <vector>

#include "baselines/reference_bfs.h"
#include "gpusim/device.h"
#include "graph/components.h"
#include "gtest/gtest.h"
#include "ibfs/level_driver.h"
#include "ibfs/runner.h"
#include "test_util.h"

namespace ibfs {
namespace {

using graph::VertexId;

std::vector<VertexId> FirstSources(int64_t n, int64_t stride = 1) {
  std::vector<VertexId> sources;
  for (int64_t i = 0; i < n; ++i) {
    sources.push_back(static_cast<VertexId>(i * stride));
  }
  return sources;
}

// ---------------------------------------------------------------------------
// Correctness sweep: every strategy x several graphs x group sizes must
// reproduce the reference BFS depths for every instance.
// ---------------------------------------------------------------------------

enum class TestGraph { kSmall, kDisconnected, kRmat, kUniform };

graph::Csr MakeGraph(TestGraph which) {
  switch (which) {
    case TestGraph::kSmall:
      return testing::MakeSmallGraph();
    case TestGraph::kDisconnected:
      return testing::MakeDisconnectedGraph(16);
    case TestGraph::kRmat:
      return testing::MakeRmatGraph(7, 8);
    case TestGraph::kUniform:
      return testing::MakeUniformGraph(128, 4);
  }
  return testing::MakeSmallGraph();
}

class StrategyCorrectnessTest
    : public ::testing::TestWithParam<
          std::tuple<Strategy, TestGraph, int>> {};

TEST_P(StrategyCorrectnessTest, DepthsMatchReference) {
  const auto [strategy, which, group_size] = GetParam();
  const graph::Csr g = MakeGraph(which);
  const int64_t n =
      std::min<int64_t>(group_size, g.vertex_count());
  const auto sources = FirstSources(n);
  gpusim::Device device;
  auto result = RunGroup(strategy, g, sources, {}, &device);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const GroupResult& group = result.value();
  ASSERT_EQ(group.depths.size(), sources.size());
  for (size_t j = 0; j < sources.size(); ++j) {
    EXPECT_TRUE(
        baselines::DepthsMatchReference(g, sources[j], group.depths[j]))
        << StrategyName(strategy) << " instance " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyCorrectnessTest,
    ::testing::Combine(
        ::testing::Values(Strategy::kSequential, Strategy::kNaiveConcurrent,
                          Strategy::kJointTraversal, Strategy::kBitwise),
        ::testing::Values(TestGraph::kSmall, TestGraph::kDisconnected,
                          TestGraph::kRmat, TestGraph::kUniform),
        ::testing::Values(1, 3, 32, 64)),
    [](const auto& info) {
      std::string name = StrategyName(std::get<0>(info.param));
      name += "_g";
      name += std::to_string(static_cast<int>(std::get<1>(info.param)));
      name += "_n";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

// Group sizes around the 64-bit word boundary for the bitwise runner.
class BitwiseWordBoundaryTest : public ::testing::TestWithParam<int> {};

TEST_P(BitwiseWordBoundaryTest, DepthsMatchReference) {
  const int n = GetParam();
  const graph::Csr g = testing::MakeRmatGraph(8, 8);
  const auto sources = FirstSources(n);
  gpusim::Device device;
  auto result = RunGroup(Strategy::kBitwise, g, sources, {}, &device);
  ASSERT_TRUE(result.ok());
  for (size_t j = 0; j < sources.size(); ++j) {
    EXPECT_TRUE(baselines::DepthsMatchReference(g, sources[j],
                                                result.value().depths[j]));
  }
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, BitwiseWordBoundaryTest,
                         ::testing::Values(1, 63, 64, 65, 127, 128, 130));

// ---------------------------------------------------------------------------
// Behavioral checks.
// ---------------------------------------------------------------------------

TEST(StrategiesTest, RunGroupValidatesInputs) {
  const graph::Csr g = testing::MakeSmallGraph();
  gpusim::Device device;
  EXPECT_FALSE(RunGroup(Strategy::kBitwise, g, {}, {}, &device).ok());
  const std::vector<VertexId> bad = {1000};
  EXPECT_FALSE(RunGroup(Strategy::kBitwise, g, bad, {}, &device).ok());
  const std::vector<VertexId> ok_src = {0};
  EXPECT_FALSE(RunGroup(Strategy::kBitwise, g, ok_src, {}, nullptr).ok());
  TraversalOptions bad_opts;
  bad_opts.alpha = -1;
  EXPECT_FALSE(
      RunGroup(Strategy::kBitwise, g, ok_src, bad_opts, &device).ok());
  bad_opts = {};
  bad_opts.max_level = 0;
  EXPECT_FALSE(
      RunGroup(Strategy::kBitwise, g, ok_src, bad_opts, &device).ok());
}

TEST(StrategiesTest, StrategyNames) {
  EXPECT_STREQ(StrategyName(Strategy::kSequential), "sequential");
  EXPECT_STREQ(StrategyName(Strategy::kNaiveConcurrent), "naive");
  EXPECT_STREQ(StrategyName(Strategy::kJointTraversal), "joint");
  EXPECT_STREQ(StrategyName(Strategy::kBitwise), "bitwise");
}

TEST(StrategiesTest, DuplicateSourcesAllowed) {
  const graph::Csr g = testing::MakeSmallGraph();
  const std::vector<VertexId> sources = {2, 2, 2};
  gpusim::Device device;
  for (Strategy s : {Strategy::kJointTraversal, Strategy::kBitwise}) {
    auto result = RunGroup(s, g, sources, {}, &device);
    ASSERT_TRUE(result.ok());
    for (int j = 0; j < 3; ++j) {
      EXPECT_TRUE(
          baselines::DepthsMatchReference(g, 2, result.value().depths[j]));
    }
  }
}

TEST(StrategiesTest, JointSharedFrontiersEnqueuedOnce) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = FirstSources(16);
  gpusim::Device device;
  auto result = RunGroup(Strategy::kJointTraversal, g, sources, {}, &device);
  ASSERT_TRUE(result.ok());
  // The joint queue never exceeds |V| per level, while the private sum can.
  for (const LevelTrace& lt : result.value().trace.levels) {
    EXPECT_LE(lt.jfq_size, g.vertex_count());
    EXPECT_GE(lt.private_fq_sum, lt.jfq_size);
  }
  EXPECT_GE(result.value().trace.SharingDegree(), 1.0);
}

TEST(StrategiesTest, SequentialHasNoSharing) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = FirstSources(8);
  gpusim::Device device;
  auto result = RunGroup(Strategy::kSequential, g, sources, {}, &device);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().trace.SharingDegree(), 1.0);
}

TEST(StrategiesTest, JointBeatsNaiveOnSimulatedTime) {
  const graph::Csr g = testing::MakeRmatGraph(8, 12);
  const auto sources = FirstSources(32);
  gpusim::Device naive_dev;
  gpusim::Device joint_dev;
  ASSERT_TRUE(
      RunGroup(Strategy::kNaiveConcurrent, g, sources, {}, &naive_dev).ok());
  ASSERT_TRUE(
      RunGroup(Strategy::kJointTraversal, g, sources, {}, &joint_dev).ok());
  EXPECT_LT(joint_dev.elapsed_seconds(), naive_dev.elapsed_seconds());
}

TEST(StrategiesTest, BitwiseBeatsJointOnSimulatedTime) {
  const graph::Csr g = testing::MakeRmatGraph(10, 16);
  const auto sources = graph::SampleConnectedSources(g, 64, 5);
  gpusim::Device joint_dev;
  gpusim::Device bitwise_dev;
  ASSERT_TRUE(
      RunGroup(Strategy::kJointTraversal, g, sources, {}, &joint_dev).ok());
  ASSERT_TRUE(
      RunGroup(Strategy::kBitwise, g, sources, {}, &bitwise_dev).ok());
  EXPECT_LT(bitwise_dev.elapsed_seconds(), joint_dev.elapsed_seconds());
}

TEST(StrategiesTest, EarlyTerminationReducesBottomUpLoads) {
  const graph::Csr g = testing::MakeRmatGraph(8, 16);
  // Sources must come from the giant component: an instance stuck in a
  // tiny component can never fill any status row, which forecloses early
  // termination group-wide (the paper samples Graph500-style sources).
  const auto sources = graph::SampleConnectedSources(g, 64, 5);
  TraversalOptions with_et;
  TraversalOptions without_et;
  without_et.early_termination = false;
  gpusim::Device dev_et;
  gpusim::Device dev_no;
  auto r1 = RunGroup(Strategy::kBitwise, g, sources, with_et, &dev_et);
  auto r2 = RunGroup(Strategy::kBitwise, g, sources, without_et, &dev_no);
  ASSERT_TRUE(r1.ok() && r2.ok());
  // Same results either way...
  for (size_t j = 0; j < sources.size(); ++j) {
    ASSERT_EQ(r1.value().depths[j], r2.value().depths[j]);
  }
  // ...but early termination strictly reduces bottom-up memory traffic.
  EXPECT_LT(dev_et.PhaseStats("bu_inspect").mem.load_transactions,
            dev_no.PhaseStats("bu_inspect").mem.load_transactions);
}

TEST(StrategiesTest, MsBfsResetModeSlowerThanIbfs) {
  const graph::Csr g = testing::MakeRmatGraph(8, 16);
  const auto sources = FirstSources(64);
  TraversalOptions msbfs_style;
  msbfs_style.msbfs_reset = true;
  gpusim::Device dev_ibfs;
  gpusim::Device dev_msbfs;
  auto r1 = RunGroup(Strategy::kBitwise, g, sources, {}, &dev_ibfs);
  auto r2 = RunGroup(Strategy::kBitwise, g, sources, msbfs_style, &dev_msbfs);
  ASSERT_TRUE(r1.ok() && r2.ok());
  for (size_t j = 0; j < sources.size(); ++j) {
    ASSERT_EQ(r1.value().depths[j], r2.value().depths[j]);
  }
  EXPECT_LT(dev_ibfs.elapsed_seconds(), dev_msbfs.elapsed_seconds());
}

TEST(StrategiesTest, AdjacencyCacheReducesLoads) {
  const graph::Csr g = testing::MakeRmatGraph(8, 12);
  const auto sources = FirstSources(32);
  TraversalOptions no_cache;
  no_cache.adjacency_cache = false;
  gpusim::Device dev_cache;
  gpusim::Device dev_nocache;
  ASSERT_TRUE(
      RunGroup(Strategy::kJointTraversal, g, sources, {}, &dev_cache).ok());
  ASSERT_TRUE(RunGroup(Strategy::kJointTraversal, g, sources, no_cache,
                       &dev_nocache)
                  .ok());
  EXPECT_LT(dev_cache.totals().mem.load_transactions,
            dev_nocache.totals().mem.load_transactions);
}

TEST(StrategiesTest, MaxLevelTruncatesAllStrategies) {
  const graph::Csr g = testing::MakeDisconnectedGraph(16);  // a chain
  TraversalOptions options;
  options.max_level = 2;
  const std::vector<VertexId> sources = {0, 1};
  for (Strategy s :
       {Strategy::kSequential, Strategy::kNaiveConcurrent,
        Strategy::kJointTraversal, Strategy::kBitwise}) {
    gpusim::Device device;
    auto result = RunGroup(s, g, sources, options, &device);
    ASSERT_TRUE(result.ok());
    for (size_t j = 0; j < sources.size(); ++j) {
      EXPECT_TRUE(baselines::DepthsMatchReference(
          g, sources[j], result.value().depths[j], 2))
          << StrategyName(s);
    }
  }
}

TEST(StrategiesTest, ForceTopDownNeverRunsBottomUp) {
  // The graph is dense enough that every strategy switches to bottom-up
  // unless forced, so the forced runs below show what the flag does.
  const graph::Csr g = testing::MakeRmatGraph(7, 12);
  const auto sources = FirstSources(16);
  TraversalOptions forced;
  forced.force_top_down = true;
  for (Strategy s :
       {Strategy::kSequential, Strategy::kNaiveConcurrent,
        Strategy::kJointTraversal, Strategy::kBitwise}) {
    gpusim::Device free_device;
    ASSERT_TRUE(RunGroup(s, g, sources, {}, &free_device).ok());
    EXPECT_GT(free_device.PhaseStats("bu_inspect").launch_count, 0)
        << StrategyName(s);

    gpusim::Device device;
    auto result = RunGroup(s, g, sources, forced, &device);
    ASSERT_TRUE(result.ok());
    for (size_t j = 0; j < sources.size(); ++j) {
      EXPECT_TRUE(baselines::DepthsMatchReference(g, sources[j],
                                                  result.value().depths[j]))
          << StrategyName(s);
    }
    for (const auto& lt : result.value().trace.levels) {
      EXPECT_FALSE(lt.bottom_up) << StrategyName(s);
    }
    // No strategy launches a bottom-up kernel: the level loop opens only
    // the direction some traversal takes.
    const gpusim::KernelStats bu = device.PhaseStats("bu_inspect");
    EXPECT_EQ(bu.item_count, 0) << StrategyName(s);
    EXPECT_EQ(bu.mem.load_transactions, 0u) << StrategyName(s);
    EXPECT_EQ(bu.launch_count, 0) << StrategyName(s);
  }
}

TEST(StrategiesTest, DirectionRuleBoundaries) {
  TraversalOptions options;  // alpha 14, beta 24
  // Top-down turns bottom-up only when frontier edges exceed
  // unexplored / alpha: 140 / 14 = 10.
  EXPECT_FALSE(NextBottomUp(false, 10, 140, 0, 240, options));
  EXPECT_TRUE(NextBottomUp(false, 11, 140, 0, 240, options));
  // Bottom-up stays until new visits fall below pairs / beta: 240 / 24 =
  // 10.
  EXPECT_TRUE(NextBottomUp(true, 0, 140, 10, 240, options));
  EXPECT_FALSE(NextBottomUp(true, 0, 140, 9, 240, options));
  // Each direction reads only its own test.
  EXPECT_FALSE(NextBottomUp(false, 10, 140, 1000, 240, options));
  EXPECT_TRUE(NextBottomUp(true, 1000, 140, 10, 240, options));
  // Both thresholds truncate to integers: 150 / 14 = 10.7 -> 10 and
  // 21 / 2 = 10.5 -> 10, so 10 new visits keep a bottom-up run going.
  EXPECT_FALSE(NextBottomUp(false, 10, 150, 0, 240, options));
  EXPECT_TRUE(NextBottomUp(false, 11, 150, 0, 240, options));
  TraversalOptions half;
  half.beta = 2.0;
  EXPECT_TRUE(NextBottomUp(true, 0, 140, 10, 21, half));
  EXPECT_FALSE(NextBottomUp(true, 0, 140, 9, 21, half));
  // force_top_down wins over both tests.
  TraversalOptions forced;
  forced.force_top_down = true;
  EXPECT_FALSE(NextBottomUp(false, 1000, 140, 0, 240, forced));
  EXPECT_FALSE(NextBottomUp(true, 0, 140, 1000, 240, forced));
}

TEST(StrategiesTest, JointAndBitwiseTakeSameLevelDecisions) {
  // Joint counts a level's visits and frontier edges during inspection,
  // bitwise in its frontier sweep; the direction rule must see the same
  // numbers from both, so every level runs in the same direction over
  // queues of the same size.
  int64_t configs = 0;
  int64_t switches = 0;
  for (const bool rmat : {true, false}) {
    for (const int scale : {7, 8, 10}) {
      for (const int edge_factor : {4, 8, 16}) {
        const graph::Csr g =
            rmat ? testing::MakeRmatGraph(scale, edge_factor)
                 : testing::MakeUniformGraph(int64_t{1} << scale,
                                             edge_factor);
        for (const int group : {1, 16, 64, 100, 128, 192}) {
          SCOPED_TRACE(std::string(rmat ? "rmat" : "uniform") + " scale " +
                       std::to_string(scale) + " edge factor " +
                       std::to_string(edge_factor) + " group " +
                       std::to_string(group));
          // Spread sources; groups larger than the graph repeat some.
          std::vector<VertexId> sources;
          for (int i = 0; i < group; ++i) {
            sources.push_back(
                static_cast<VertexId>((i * int64_t{37}) % g.vertex_count()));
          }
          gpusim::Device joint_device;
          gpusim::Device bitwise_device;
          auto joint = RunGroup(Strategy::kJointTraversal, g, sources, {},
                                &joint_device);
          auto bitwise =
              RunGroup(Strategy::kBitwise, g, sources, {}, &bitwise_device);
          ASSERT_TRUE(joint.ok());
          ASSERT_TRUE(bitwise.ok());
          const auto& jl = joint.value().trace.levels;
          const auto& bl = bitwise.value().trace.levels;
          ASSERT_EQ(jl.size(), bl.size());
          for (size_t k = 0; k < jl.size(); ++k) {
            EXPECT_EQ(jl[k].bottom_up, bl[k].bottom_up) << "level " << k + 1;
            EXPECT_EQ(jl[k].jfq_size, bl[k].jfq_size) << "level " << k + 1;
            EXPECT_EQ(jl[k].private_fq_sum, bl[k].private_fq_sum)
                << "level " << k + 1;
            EXPECT_EQ(jl[k].new_visits, bl[k].new_visits)
                << "level " << k + 1;
            if (k > 0 && jl[k].bottom_up != jl[k - 1].bottom_up) ++switches;
          }
          ++configs;
        }
      }
    }
  }
  EXPECT_EQ(configs, 108);
  // The sweep exercises both directions and the switches between them:
  // more switches than configs.
  EXPECT_GT(switches, configs);
}

TEST(StrategiesTest, TraceLevelsCoverTraversal) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = FirstSources(16);
  gpusim::Device device;
  auto result = RunGroup(Strategy::kJointTraversal, g, sources, {}, &device);
  ASSERT_TRUE(result.ok());
  const GroupTrace& trace = result.value().trace;
  ASSERT_GE(trace.levels.size(), 2u);
  EXPECT_EQ(trace.instance_count, 16);
  // Total new visits across levels + sources equals total visited pairs.
  int64_t visits = 0;
  for (const auto& lt : trace.levels) visits += lt.new_visits;
  int64_t reachable_pairs = 0;
  for (const auto& d : result.value().depths) {
    for (uint8_t x : d) reachable_pairs += x != 0xFF;
  }
  EXPECT_EQ(visits + 16, reachable_pairs);
}

TEST(StrategiesTest, BottomUpInspectionStatsCollected) {
  const graph::Csr g = testing::MakeRmatGraph(8, 16);
  const auto sources = FirstSources(16);
  gpusim::Device device;
  auto result = RunGroup(Strategy::kJointTraversal, g, sources, {}, &device);
  ASSERT_TRUE(result.ok());
  const auto& per_instance =
      result.value().trace.bottom_up_inspections_per_instance;
  ASSERT_EQ(per_instance.size(), sources.size());
  int64_t total = 0;
  for (int64_t c : per_instance) total += c;
  EXPECT_GT(total, 0);
}

}  // namespace
}  // namespace ibfs
