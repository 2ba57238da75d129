#include "graph/partition.h"

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster_engine.h"
#include "core/engine.h"
#include "gen/benchmarks.h"
#include "gpusim/memory_model.h"
#include "graph/builder.h"
#include "graph/components.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "gtest/gtest.h"
#include "ibfs/runner.h"
#include "test_util.h"

namespace ibfs {
namespace {

using graph::VertexId;

// ---------------------------------------------------------------------------
// PartitionByEdges1D

TEST(PartitionTest, CoversAllVerticesAndEdges) {
  const graph::Csr g = testing::MakeRmatGraph(8, 8);
  for (int partitions : {1, 2, 3, 4, 7, 8}) {
    auto parted = graph::PartitionByEdges1D(g, partitions);
    ASSERT_TRUE(parted.ok()) << parted.status().ToString();
    const graph::Partitioning& p = parted.value();
    ASSERT_EQ(p.partition_count(), partitions);

    VertexId cursor = 0;
    int64_t edge_sum = 0;
    for (const graph::GraphPartition& part : p.parts) {
      EXPECT_EQ(part.range.begin, cursor);
      EXPECT_GT(part.range.size(), 0);
      EXPECT_EQ(part.local.vertex_count(), part.range.size());
      edge_sum += part.local.edge_count();
      cursor = part.range.end;
    }
    EXPECT_EQ(static_cast<int64_t>(cursor), g.vertex_count());
    EXPECT_EQ(edge_sum, g.edge_count());
    EXPECT_EQ(p.total_edges, g.edge_count());
  }
}

TEST(PartitionTest, LocalCsrMatchesParentAdjacency) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  auto parted = graph::PartitionByEdges1D(g, 4);
  ASSERT_TRUE(parted.ok());
  for (const graph::GraphPartition& part : parted.value().parts) {
    for (int64_t r = 0; r < part.local.vertex_count(); ++r) {
      const auto v = static_cast<VertexId>(part.range.begin + r);
      const auto expect = g.OutNeighbors(v);
      const auto got = part.local.OutNeighbors(r);
      ASSERT_EQ(got.size(), expect.size()) << "vertex " << v;
      for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expect[i]);
    }
  }
}

TEST(PartitionTest, OwnerOfAgreesWithRanges) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  auto parted = graph::PartitionByEdges1D(g, 5);
  ASSERT_TRUE(parted.ok());
  const graph::Partitioning& p = parted.value();
  for (VertexId v = 0; v < static_cast<VertexId>(g.vertex_count()); ++v) {
    const int owner = p.OwnerOf(v);
    EXPECT_TRUE(p.parts[static_cast<size_t>(owner)].range.Contains(v));
  }
}

TEST(PartitionTest, DeterministicAndBalanced) {
  const graph::Csr g = testing::MakeRmatGraph(8, 8);
  auto a = graph::PartitionByEdges1D(g, 4);
  auto b = graph::PartitionByEdges1D(g, 4);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().range_ends, b.value().range_ends);
  // Greedy prefix cut: the heaviest partition stays within one vertex's
  // degree of the ideal share. On this power-law graph that bounds the
  // imbalance well below 2x.
  EXPECT_GE(a.value().EdgeImbalance(), 1.0);
  EXPECT_LT(a.value().EdgeImbalance(), 2.0);
}

TEST(PartitionTest, RejectsBadPartitionCounts) {
  const graph::Csr g = testing::MakeSmallGraph();  // 9 vertices
  EXPECT_FALSE(graph::PartitionByEdges1D(g, 0).ok());
  EXPECT_FALSE(graph::PartitionByEdges1D(g, -1).ok());
  EXPECT_FALSE(graph::PartitionByEdges1D(g, 10).ok());
  EXPECT_TRUE(graph::PartitionByEdges1D(g, 9).ok());
}

// Two disjoint identical components split exactly at the component
// boundary: the two partitions' local CSRs differ only in their global
// neighbor ids. To make the *local byte patterns* collide we build each
// component's adjacency so the second is the first shifted by the
// component size — with local row rebasing, only the adjacency's global
// ids differ... so instead use self-contained rings whose adjacency bytes
// cannot match, and assert on the range salt directly: equal-topology
// partitions of *different ranges* must produce different cache keys.
TEST(PartitionTest, FingerprintIsSaltedByVertexRange) {
  // Ring of 8 + ring of 8: partitioning at 2 cuts exactly between them.
  graph::GraphBuilder builder(16);
  for (int c = 0; c < 2; ++c) {
    const int base = c * 8;
    for (int i = 0; i < 8; ++i) {
      builder.AddUndirectedEdge(static_cast<VertexId>(base + i),
                                static_cast<VertexId>(base + (i + 1) % 8));
    }
  }
  auto built = std::move(builder).Build();
  ASSERT_TRUE(built.ok());
  const graph::Csr g = std::move(built).value();
  auto parted = graph::PartitionByEdges1D(g, 2);
  ASSERT_TRUE(parted.ok());
  const graph::Partitioning& p = parted.value();
  ASSERT_EQ(p.parts[0].range.end, 8u);

  // Same local shape (row offsets identical; adjacency differs only by the
  // +8 shift), and crucially the same *sizes* — a topology-only key is one
  // id-pattern coincidence away from colliding. The range salt separates
  // the keys no matter what the local bytes look like.
  EXPECT_EQ(p.parts[0].local.vertex_count(), p.parts[1].local.vertex_count());
  EXPECT_EQ(p.parts[0].local.edge_count(), p.parts[1].local.edge_count());
  EXPECT_NE(p.parts[0].Fingerprint(), p.parts[1].Fingerprint());
  // And the salt is the only difference once topologies coincide: a
  // partition fingerprinted twice is stable.
  EXPECT_EQ(p.parts[0].Fingerprint(), p.parts[0].Fingerprint());
  EXPECT_NE(p.parts[0].Fingerprint(), p.parts[0].local.TopologyFingerprint());
}

// ---------------------------------------------------------------------------
// FrontierExchangeCost

TEST(CommCostTest, SingleParticipantIsFree) {
  const gpusim::LinkSpec link;
  for (auto schedule :
       {gpusim::CommSchedule::kAllGather, gpusim::CommSchedule::kButterfly}) {
    const auto cost = gpusim::FrontierExchangeCost(schedule, 1, 4096, link);
    EXPECT_EQ(cost.seconds, 0.0);
    EXPECT_EQ(cost.bytes_on_wire, 0);
    EXPECT_EQ(cost.rounds, 0);
  }
}

TEST(CommCostTest, BytesAndRoundsFollowTheModel) {
  const gpusim::LinkSpec link{10.0, 5.0};
  const int64_t bytes = 1 << 20;
  for (int p : {2, 3, 4, 8, 16}) {
    const auto ag = gpusim::FrontierExchangeCost(
        gpusim::CommSchedule::kAllGather, p, bytes, link);
    const auto bf = gpusim::FrontierExchangeCost(
        gpusim::CommSchedule::kButterfly, p, bytes, link);
    // Both schedules move every slice to every rank.
    EXPECT_EQ(ag.bytes_on_wire, static_cast<int64_t>(p) * (p - 1) * bytes);
    EXPECT_EQ(bf.bytes_on_wire, ag.bytes_on_wire);
    EXPECT_EQ(ag.rounds, p - 1);
    int64_t log2p = 0;
    for (int64_t reach = 1; reach < p; reach <<= 1) ++log2p;
    EXPECT_EQ(bf.rounds, log2p);
  }
}

TEST(CommCostTest, ButterflyBeatsRingPastTwoRanks) {
  const gpusim::LinkSpec link{12.0, 5.0};
  const int64_t bytes = 64 * 1024;
  const auto ag2 = gpusim::FrontierExchangeCost(
      gpusim::CommSchedule::kAllGather, 2, bytes, link);
  const auto bf2 = gpusim::FrontierExchangeCost(
      gpusim::CommSchedule::kButterfly, 2, bytes, link);
  EXPECT_DOUBLE_EQ(ag2.seconds, bf2.seconds);  // 1 round either way
  for (int p : {4, 8, 16}) {
    const auto ag = gpusim::FrontierExchangeCost(
        gpusim::CommSchedule::kAllGather, p, bytes, link);
    const auto bf = gpusim::FrontierExchangeCost(
        gpusim::CommSchedule::kButterfly, p, bytes, link);
    EXPECT_LT(bf.seconds, ag.seconds) << "P=" << p;
  }
}

// ---------------------------------------------------------------------------
// RunPartitioned parity with the unpartitioned engine

EngineOptions ParityOptions(Strategy strategy) {
  EngineOptions options;
  options.strategy = strategy;
  options.grouping = GroupingPolicy::kGroupBy;
  options.group_size = 16;
  options.traversal.collect_instance_stats = false;
  return options;
}

TEST(RunPartitionedTest, DepthsMatchEngineAcrossPartitionsAndStrategies) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = graph::SampleConnectedSources(g, 48, 1);
  for (Strategy strategy :
       {Strategy::kSequential, Strategy::kNaiveConcurrent,
        Strategy::kJointTraversal, Strategy::kBitwise}) {
    const EngineOptions options = ParityOptions(strategy);
    Engine engine(&g, options);
    auto baseline = engine.Run(sources);
    ASSERT_TRUE(baseline.ok());
    const uint64_t expected = DepthChecksum(baseline.value().groups);
    for (int partitions : {1, 2, 4, 8}) {
      PartitionRunOptions prun;
      prun.partitions = partitions;
      auto result = RunPartitioned(g, sources, options, prun);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result.value().groups.size(), baseline.value().groups.size());
      EXPECT_EQ(DepthChecksum(result.value().groups), expected)
          << StrategyName(strategy) << " P=" << partitions;
    }
  }
}

TEST(RunPartitionedTest, ScheduleAndThreadsDoNotChangeDepths) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = graph::SampleConnectedSources(g, 32, 3);
  EngineOptions options = ParityOptions(Strategy::kBitwise);
  PartitionRunOptions prun;
  prun.partitions = 4;
  auto base = RunPartitioned(g, sources, options, prun);
  ASSERT_TRUE(base.ok());
  const uint64_t expected = DepthChecksum(base.value().groups);
  for (auto schedule :
       {gpusim::CommSchedule::kAllGather, gpusim::CommSchedule::kButterfly}) {
    for (int threads : {1, 4}) {
      EngineOptions opts = options;
      opts.threads = threads;
      PartitionRunOptions p = prun;
      p.schedule = schedule;
      auto result = RunPartitioned(g, sources, opts, p);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(DepthChecksum(result.value().groups), expected);
      // The schedule shapes time, never answers: compute matches exactly.
      EXPECT_DOUBLE_EQ(result.value().compute_seconds,
                       base.value().compute_seconds);
    }
  }
}

TEST(RunPartitionedTest, CommGrowsWithPartitionsAndButterflyWins) {
  const graph::Csr g = testing::MakeRmatGraph(8, 8);
  const auto sources = graph::SampleConnectedSources(g, 64, 1);
  const EngineOptions options = ParityOptions(Strategy::kBitwise);
  double last_comm = -1.0;
  for (int partitions : {1, 2, 4, 8}) {
    PartitionRunOptions prun;
    prun.partitions = partitions;
    auto ag = RunPartitioned(g, sources, options, prun);
    ASSERT_TRUE(ag.ok());
    EXPECT_GT(ag.value().comm_seconds, last_comm);
    last_comm = ag.value().comm_seconds;
    if (partitions == 1) {
      EXPECT_EQ(ag.value().comm_seconds, 0.0);
      EXPECT_EQ(ag.value().bytes_on_wire, 0);
      continue;
    }
    prun.schedule = gpusim::CommSchedule::kButterfly;
    auto bf = RunPartitioned(g, sources, options, prun);
    ASSERT_TRUE(bf.ok());
    EXPECT_EQ(bf.value().bytes_on_wire, ag.value().bytes_on_wire);
    if (partitions >= 4) {
      EXPECT_LT(bf.value().comm_seconds, ag.value().comm_seconds);
    }
  }
}

TEST(RunPartitionedTest, MaxLevelTruncatesLikeTheEngine) {
  const graph::Csr g = testing::MakeRmatGraph(7, 4);
  const auto sources = graph::SampleConnectedSources(g, 16, 1);
  EngineOptions options = ParityOptions(Strategy::kBitwise);
  options.traversal.max_level = 2;
  Engine engine(&g, options);
  auto baseline = engine.Run(sources);
  ASSERT_TRUE(baseline.ok());
  PartitionRunOptions prun;
  prun.partitions = 4;
  auto result = RunPartitioned(g, sources, options, prun);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(DepthChecksum(result.value().groups),
            DepthChecksum(baseline.value().groups));
}

TEST(RunPartitionedTest, ParityHoldsUnderFaultInjection) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = graph::SampleConnectedSources(g, 32, 1);
  EngineOptions options = ParityOptions(Strategy::kBitwise);
  Engine engine(&g, options);
  auto baseline = engine.Run(sources);
  ASSERT_TRUE(baseline.ok());
  const uint64_t expected = DepthChecksum(baseline.value().groups);

  auto plan = gpusim::FaultPlan::Parse(
      "seed=11,devices=4,p_fail=0.02,corrupt=0.1,straggle=1:3");
  ASSERT_TRUE(plan.ok());
  options.faults = plan.value();
  options.retry.max_attempts = 8;
  options.retry.initial_backoff_ms = 0.0;
  options.retry.max_backoff_ms = 0.0;
  for (int partitions : {2, 4}) {
    PartitionRunOptions prun;
    prun.partitions = partitions;
    auto result = RunPartitioned(g, sources, options, prun);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(DepthChecksum(result.value().groups), expected)
        << "P=" << partitions;
    // The chaos plan is dense enough that some recovery must have fired;
    // either retries (launch faults) or detected corruptions count.
    EXPECT_GT(result.value().retries + result.value().corruptions_detected, 0)
        << "P=" << partitions;
  }
}

// Failed partitioned attempts go through the same accounting as the
// engine's: every retry samples the backoff histogram and every failed
// attempt leaves an attempt_failed trace instant.
TEST(RunPartitionedTest, FailedAttemptsAreMeteredAndTraced) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = graph::SampleConnectedSources(g, 64, 1);
  EngineOptions options = ParityOptions(Strategy::kBitwise);
  auto plan = gpusim::FaultPlan::Parse(
      "seed=11,devices=4,p_fail=0.02,corrupt=0.1,straggle=1:3");
  ASSERT_TRUE(plan.ok());
  options.faults = plan.value();
  options.retry.max_attempts = 8;
  options.retry.initial_backoff_ms = 0.0;
  options.retry.max_backoff_ms = 0.0;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  options.observer.metrics = &metrics;
  options.observer.tracer = &tracer;
  PartitionRunOptions prun;
  prun.partitions = 4;
  auto result = RunPartitioned(g, sources, options, prun);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const int64_t attempts = metrics.GetCounter("retry.attempts")->value();
  const int64_t failed = metrics.GetCounter("fault.failed_attempts")->value();
  EXPECT_GT(attempts, 0);
  EXPECT_EQ(attempts, result.value().retries);
  const obs::Histogram* backoff = metrics.FindHistogram("retry.backoff_ms");
  ASSERT_NE(backoff, nullptr);
  EXPECT_EQ(backoff->count(), attempts);

  std::ostringstream json;
  tracer.WriteJson(json);
  const std::string trace = json.str();
  int64_t instants = 0;
  for (size_t at = trace.find("\"attempt_failed\""); at != std::string::npos;
       at = trace.find("\"attempt_failed\"", at + 1)) {
    ++instants;
  }
  EXPECT_GT(failed, 0);
  EXPECT_EQ(instants, failed);
}

TEST(RunPartitionedTest, StragglerStretchesComputeOnly) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = graph::SampleConnectedSources(g, 16, 1);
  EngineOptions options = ParityOptions(Strategy::kBitwise);
  PartitionRunOptions prun;
  prun.partitions = 4;
  auto clean = RunPartitioned(g, sources, options, prun);
  ASSERT_TRUE(clean.ok());

  auto plan = gpusim::FaultPlan::Parse("seed=1,devices=4,straggle=2:5");
  ASSERT_TRUE(plan.ok());
  options.faults = plan.value();
  auto slow = RunPartitioned(g, sources, options, prun);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(DepthChecksum(slow.value().groups),
            DepthChecksum(clean.value().groups));
  // The straggler rank gates every level-synchronous step...
  EXPECT_GT(slow.value().compute_seconds, clean.value().compute_seconds);
  // ...but the frontier exchange is priced by the link model alone.
  EXPECT_DOUBLE_EQ(slow.value().comm_seconds, clean.value().comm_seconds);
}

TEST(RunPartitionedTest, ReportsPartitionAccounting) {
  const graph::Csr g = testing::MakeRmatGraph(7, 8);
  const auto sources = graph::SampleConnectedSources(g, 16, 1);
  PartitionRunOptions prun;
  prun.partitions = 3;
  prun.link_gbps = 50.0;
  prun.link_us = 1.0;
  auto result =
      RunPartitioned(g, sources, ParityOptions(Strategy::kBitwise), prun);
  ASSERT_TRUE(result.ok());
  const PartitionedRunResult& res = result.value();
  EXPECT_EQ(res.partitions, 3);
  EXPECT_DOUBLE_EQ(res.link.bandwidth_gbps, 50.0);
  EXPECT_DOUBLE_EQ(res.link.latency_us, 1.0);
  ASSERT_EQ(res.partition_vertices.size(), 3u);
  ASSERT_EQ(res.partition_edges.size(), 3u);
  ASSERT_EQ(res.device_seconds.size(), 3u);
  int64_t edges = 0;
  for (int64_t e : res.partition_edges) edges += e;
  EXPECT_EQ(edges, g.edge_count());
  EXPECT_GT(res.supersteps, 0);
  EXPECT_NEAR(res.sim_seconds, res.compute_seconds + res.comm_seconds, 1e-15);
  EXPECT_GT(res.teps, 0.0);
  EXPECT_FALSE(res.phases.empty());
  EXPECT_GT(res.totals.seconds, 0.0);
}

// The partitioned engine on the PK preset: 64 giant-component sources,
// bitwise in GroupBy groups of 32, at P in {1, 2, 4, 8} under both
// exchange schedules (P=1 exchanges nothing, so one row covers it).
// Every field is deterministic simulated output, compared bit for bit.
TEST(RunPartitionedTest, PkPointsMatchGoldens) {
  auto generated = gen::GenerateBenchmark(gen::BenchmarkId::kPK);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const graph::Csr& g = generated.value();
  const auto sources = graph::SampleConnectedSources(g, 64, 2016);
  EngineOptions options = ParityOptions(Strategy::kBitwise);
  options.group_size = 32;
  options.threads = 1;
  Engine engine(&g, options);
  auto baseline = engine.Run(sources);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const uint64_t kChecksum = 0x5ba2a237a323a0a9ULL;
  EXPECT_EQ(DepthChecksum(baseline.value().groups), kChecksum);

  using gpusim::CommSchedule;
  struct Point {
    int partitions;
    CommSchedule schedule;
    double compute_seconds;
    double comm_seconds;
    double sim_seconds;
    int64_t bytes_on_wire;
    int64_t rounds;
    int64_t supersteps;
    double edge_imbalance;
  };
  const Point kPoints[] = {
      {1, CommSchedule::kAllGather, 0.00026469033557046978, 0,
       0.00026469033557046978, 0, 0, 14, 1},
      {2, CommSchedule::kAllGather, 0.00023220199105145409,
       8.5829333333333328e-05, 0.0003180313243847874, 379904, 14, 14,
       1.0000461063211767},
      {2, CommSchedule::kButterfly, 0.00023220199105145409,
       8.5829333333333328e-05, 0.0003180313243847874, 379904, 14, 14,
       1.0000461063211767},
      {4, CommSchedule::kAllGather, 0.00022374679343773303,
       0.00023867200000000002, 0.00046241879343773308, 1376256, 42, 14,
       1.0022284721902039},
      {4, CommSchedule::kButterfly, 0.000223746793437733, 0.000168672,
       0.00039241879343773301, 1376256, 28, 14, 1.0022284721902039},
      {8, CommSchedule::kAllGather, 0.00022135151379567493,
       0.00054435733333333325, 0.00076570884712900814, 5218304, 98, 14,
       1.0080686062059108},
      {8, CommSchedule::kButterfly, 0.00022135151379567479,
       0.00026435733333333332, 0.00048570884712900811, 5218304, 42, 14,
       1.0080686062059108},
  };
  for (const Point& point : kPoints) {
    SCOPED_TRACE(::testing::Message()
                 << "P=" << point.partitions << " "
                 << gpusim::CommScheduleName(point.schedule));
    PartitionRunOptions prun;
    prun.partitions = point.partitions;
    prun.schedule = point.schedule;
    auto run = RunPartitioned(g, sources, options, prun);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const PartitionedRunResult& res = run.value();
    EXPECT_EQ(DepthChecksum(res.groups), kChecksum);
    EXPECT_EQ(res.compute_seconds, point.compute_seconds);
    EXPECT_EQ(res.comm_seconds, point.comm_seconds);
    EXPECT_EQ(res.sim_seconds, point.sim_seconds);
    EXPECT_EQ(res.bytes_on_wire, point.bytes_on_wire);
    EXPECT_EQ(res.comm_rounds, point.rounds);
    EXPECT_EQ(res.supersteps, point.supersteps);
    EXPECT_EQ(res.edge_imbalance, point.edge_imbalance);
  }
}

}  // namespace
}  // namespace ibfs
