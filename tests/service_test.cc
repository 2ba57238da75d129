// Tests of the online BFS query service: option validation, the shared
// GroupSources planning path, batcher close semantics (size vs deadline vs
// shutdown), drain guarantees, duplicate-query fan-out, workload
// generation, determinism across executor thread counts, and the
// dynamic-vs-oracle sharing SLO.
#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/group_plan.h"
#include "core/validate.h"
#include "graph/components.h"
#include "ibfs/status_array.h"
#include "service/service.h"
#include "service/workload.h"
#include "test_util.h"

namespace ibfs::service {
namespace {

using ::ibfs::testing::MakeRmatGraph;
using ::ibfs::testing::MakeSmallGraph;

EngineOptions SmallEngineOptions() {
  EngineOptions options;
  options.strategy = Strategy::kBitwise;
  options.grouping = GroupingPolicy::kGroupBy;
  options.group_size = 16;
  return options;
}

ServiceOptions QuickServiceOptions() {
  ServiceOptions options;
  options.max_batch = 16;
  options.max_delay_ms = 5.0;
  options.execute_threads = 2;
  options.engine = SmallEngineOptions();
  return options;
}

// ------------------------------------------------------------ validation --

TEST(ServiceOptionsTest, RejectsNegativeDelay) {
  ServiceOptions options = QuickServiceOptions();
  options.max_delay_ms = -1.0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ServiceOptionsTest, RejectsZeroMaxBatch) {
  ServiceOptions options = QuickServiceOptions();
  options.max_batch = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ServiceOptionsTest, RejectsNegativeThreads) {
  ServiceOptions options = QuickServiceOptions();
  options.execute_threads = -1;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ServiceOptionsTest, RejectsInvalidEmbeddedEngineOptions) {
  ServiceOptions options = QuickServiceOptions();
  options.engine.group_size = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ServiceOptionsTest, RejectsNegativeDeadlineWithDistinctMessage) {
  ServiceOptions options = QuickServiceOptions();
  options.resilience.deadline_ms = -1.0;
  const Status status = options.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("deadline_ms"), std::string::npos);
}

TEST(ServiceOptionsTest, RejectsNegativeMaxPendingWithDistinctMessage) {
  ServiceOptions options = QuickServiceOptions();
  options.resilience.max_pending = -1;
  const Status status = options.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("max_pending"), std::string::npos);
}

TEST(ServiceOptionsTest, RejectsZeroBreakerThresholdWithDistinctMessage) {
  ServiceOptions options = QuickServiceOptions();
  options.resilience.breaker_threshold = 0;
  const Status status = options.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("breaker_threshold"), std::string::npos);
}

TEST(ServiceOptionsTest, AcceptsDefaults) {
  ServiceOptions options;
  EXPECT_TRUE(options.Validate().ok());
  // max_delay_ms == 0 is legal (close as soon as the batcher wakes).
  options.max_delay_ms = 0.0;
  EXPECT_TRUE(options.Validate().ok());
}

// ----------------------------------------------------------- group plan --

TEST(ServiceGroupPlanTest, MatchesEngineRunGrouping) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  EngineOptions options = SmallEngineOptions();
  options.keep_depths = false;
  const auto sources = graph::SampleConnectedSources(graph, 48, 7);

  auto plan = GroupSources(graph, sources, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Engine engine(&graph, options);
  auto run = engine.Run(sources);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Engine::Run plans through the same GroupSources call, so the group
  // decomposition must agree exactly.
  ASSERT_EQ(plan.value().grouping.groups.size(),
            run.value().group_sources.size());
  for (size_t g = 0; g < run.value().group_sources.size(); ++g) {
    EXPECT_EQ(plan.value().grouping.groups[g],
              run.value().group_sources[g]);
  }
}

TEST(ServiceGroupPlanTest, RejectsEmptyBatch) {
  const graph::Csr graph = MakeSmallGraph();
  EXPECT_FALSE(GroupSources(graph, {}, SmallEngineOptions()).ok());
}

TEST(ServiceGroupPlanTest, RejectsOutOfRangeSource) {
  const graph::Csr graph = MakeSmallGraph();
  const std::vector<graph::VertexId> sources = {
      0, static_cast<graph::VertexId>(graph.vertex_count())};
  EXPECT_FALSE(GroupSources(graph, sources, SmallEngineOptions()).ok());
}

TEST(ServiceGroupPlanTest, DuplicatePolicyControlsRepeats) {
  const graph::Csr graph = MakeSmallGraph();
  const std::vector<graph::VertexId> sources = {1, 2, 1};
  EXPECT_TRUE(GroupSources(graph, sources, SmallEngineOptions(),
                           DuplicatePolicy::kAllow)
                  .ok());
  const auto rejected = GroupSources(graph, sources, SmallEngineOptions(),
                                     DuplicatePolicy::kReject);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceGroupPlanTest, ClampsGroupSizeToDeviceBound) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  EngineOptions options = SmallEngineOptions();
  options.group_size = 1 << 20;  // far beyond any device bound
  const std::vector<graph::VertexId> sources = {0, 1, 2, 3};
  auto plan = GroupSources(graph, sources, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_LE(plan.value().group_size,
            Engine::MaxGroupSize(graph, options.device));
}

// --------------------------------------------------------------- batcher --

TEST(ServiceBatcherTest, SizeCloseAtMaxBatch) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  ServiceOptions options = QuickServiceOptions();
  options.max_batch = 8;
  options.max_delay_ms = 5000.0;  // only a size close can fire quickly
  auto svc = BfsService::Create(&graph, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  const auto sources = graph::SampleConnectedSources(graph, 8, 3);
  std::vector<std::future<QueryResult>> futures;
  for (graph::VertexId s : sources) {
    futures.push_back(svc.value()->Submit(s));
  }
  for (auto& f : futures) {
    const QueryResult r = f.get();
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_GE(r.batch_id, 0);
    EXPECT_GE(r.group_index, 0);
  }
  const BfsService::Stats stats = svc.value()->stats();
  EXPECT_EQ(stats.queries, 8);
  EXPECT_EQ(stats.completed, 8);
  EXPECT_GE(stats.size_closes, 1);
  svc.value()->Shutdown();
}

TEST(ServiceBatcherTest, DeadlineCloseForPartialBatch) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  ServiceOptions options = QuickServiceOptions();
  options.max_batch = 1024;  // never fills
  options.max_delay_ms = 20.0;
  auto svc = BfsService::Create(&graph, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  const auto sources = graph::SampleConnectedSources(graph, 6, 4);
  std::vector<std::future<QueryResult>> futures;
  for (graph::VertexId s : sources) {
    futures.push_back(svc.value()->Submit(s));
  }
  // The futures can only resolve once the deadline closes the batch.
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().status.ok());
  }
  const BfsService::Stats stats = svc.value()->stats();
  EXPECT_GE(stats.deadline_closes, 1);
  EXPECT_EQ(stats.completed, 6);
  svc.value()->Shutdown();
}

TEST(ServiceBatcherTest, CloseReasonsPartitionBatches) {
  // Size and deadline race at max_batch-sized bursts: whatever wins, every
  // batch must be accounted to exactly one close reason and every query
  // must complete.
  const graph::Csr graph = MakeRmatGraph(8, 8);
  ServiceOptions options = QuickServiceOptions();
  options.max_batch = 4;
  options.max_delay_ms = 1.0;
  auto svc = BfsService::Create(&graph, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  const auto sources = graph::SampleConnectedSources(graph, 32, 5);
  std::vector<std::future<QueryResult>> futures;
  for (graph::VertexId s : sources) {
    futures.push_back(svc.value()->Submit(s));
  }
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().status.ok());
  }
  svc.value()->Shutdown();
  const BfsService::Stats stats = svc.value()->stats();
  EXPECT_EQ(stats.completed, 32);
  EXPECT_GE(stats.batches, 1);
  EXPECT_EQ(stats.size_closes + stats.deadline_closes +
                stats.shutdown_closes,
            stats.batches);
}

TEST(ServiceBatcherTest, ShutdownDrainsAllPendingFutures) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  ServiceOptions options = QuickServiceOptions();
  options.max_batch = 1 << 20;
  options.max_delay_ms = 60000.0;  // neither close can fire on its own
  auto svc = BfsService::Create(&graph, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  const auto sources = graph::SampleConnectedSources(graph, 12, 6);
  std::vector<std::future<QueryResult>> futures;
  for (graph::VertexId s : sources) {
    futures.push_back(svc.value()->Submit(s));
  }
  svc.value()->Shutdown();  // must flush the open batch and resolve all
  int ok = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    if (f.get().status.ok()) ++ok;
  }
  EXPECT_EQ(ok, 12);
  const BfsService::Stats stats = svc.value()->stats();
  EXPECT_GE(stats.shutdown_closes, 1);
}

TEST(ServiceBatcherTest, SubmitAfterShutdownFailsFast) {
  const graph::Csr graph = MakeSmallGraph();
  auto svc = BfsService::Create(&graph, QuickServiceOptions());
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  svc.value()->Shutdown();
  auto future = svc.value()->Submit(0);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const QueryResult result = future.get();
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
}

TEST(ServiceBatcherTest, OutOfRangeSourceFailsItsOwnQueryOnly) {
  const graph::Csr graph = MakeSmallGraph();
  auto svc = BfsService::Create(&graph, QuickServiceOptions());
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  auto bad = svc.value()->Submit(
      static_cast<graph::VertexId>(graph.vertex_count()));
  auto good = svc.value()->Submit(0);
  EXPECT_EQ(bad.get().status.code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(good.get().status.ok());
  svc.value()->Shutdown();
  const BfsService::Stats stats = svc.value()->stats();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.completed, 1);
}

TEST(ServiceBatcherTest, DuplicateSourcesShareOneExecution) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  ServiceOptions options = QuickServiceOptions();
  options.max_batch = 4;
  options.max_delay_ms = 50.0;
  auto svc = BfsService::Create(&graph, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  const graph::VertexId source =
      graph::SampleConnectedSources(graph, 1, 8).front();
  auto a = svc.value()->Submit(source);
  auto b = svc.value()->Submit(source);
  const QueryResult ra = a.get();
  const QueryResult rb = b.get();
  ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
  ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
  EXPECT_EQ(ra.depth_checksum, rb.depth_checksum);
  EXPECT_EQ(ra.reached, rb.reached);
  EXPECT_EQ(ra.depths, rb.depths);
  EXPECT_NE(ra.query_id, rb.query_id);
  svc.value()->Shutdown();
}

TEST(ServiceBatcherTest, DepthsMatchReferenceBfs) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  auto svc = BfsService::Create(&graph, QuickServiceOptions());
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  const auto sources = graph::SampleConnectedSources(graph, 8, 9);
  std::vector<std::future<QueryResult>> futures;
  for (graph::VertexId s : sources) {
    futures.push_back(svc.value()->Submit(s));
  }
  for (auto& f : futures) {
    const QueryResult r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_EQ(r.depths.size(),
              static_cast<size_t>(graph.vertex_count()));
    EXPECT_GT(r.reached, 0);
    const Status valid = ValidateBfsDepths(
        graph, r.source, r.depths, TraversalOptions::kMaxTraversalLevel);
    EXPECT_TRUE(valid.ok()) << valid.ToString();
  }
  svc.value()->Shutdown();
}

TEST(ServiceBatcherTest, LatencyBreakdownIsConsistent) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  auto svc = BfsService::Create(&graph, QuickServiceOptions());
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  const QueryResult r = svc.value()->Submit(0).get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_GE(r.latency.queue_ms, 0.0);
  EXPECT_GE(r.latency.batch_ms, 0.0);
  EXPECT_GE(r.latency.execute_ms, 0.0);
  // Total covers the whole pipeline (equality up to clock reads).
  EXPECT_GE(r.latency.total_ms,
            r.latency.queue_ms + r.latency.execute_ms - 1e-6);
  svc.value()->Shutdown();
}

// -------------------------------------------------------------- workload --

TEST(ServiceWorkloadTest, ValidatesOptions) {
  WorkloadOptions options;
  options.qps = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options = WorkloadOptions();
  options.duration_s = -1.0;
  EXPECT_FALSE(options.Validate().ok());
  options = WorkloadOptions();
  options.burst_size = 0;
  EXPECT_FALSE(options.Validate().ok());
  EXPECT_TRUE(WorkloadOptions().Validate().ok());
}

TEST(ServiceWorkloadTest, ArrivalNamesRoundTrip) {
  for (ArrivalProcess arrival :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty,
        ArrivalProcess::kUniform}) {
    const auto parsed = ParseArrivalProcess(ArrivalProcessName(arrival));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, arrival);
  }
  EXPECT_FALSE(ParseArrivalProcess("adversarial").has_value());
}

TEST(ServiceWorkloadTest, GenerationIsDeterministicAndOrdered) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  WorkloadOptions options;
  options.qps = 500.0;
  options.duration_s = 0.5;
  options.seed = 11;
  for (ArrivalProcess arrival :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty,
        ArrivalProcess::kUniform}) {
    options.arrival = arrival;
    auto a = GenerateArrivals(graph, options);
    auto b = GenerateArrivals(graph, options);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().size(), b.value().size());
    for (size_t i = 0; i < a.value().size(); ++i) {
      EXPECT_EQ(a.value()[i].at_s, b.value()[i].at_s);
      EXPECT_EQ(a.value()[i].source, b.value()[i].source);
      EXPECT_LT(a.value()[i].source, graph.vertex_count());
      if (i > 0) {
        EXPECT_GE(a.value()[i].at_s, a.value()[i - 1].at_s);
      }
      EXPECT_LT(a.value()[i].at_s, options.duration_s);
    }
  }
}

TEST(ServiceWorkloadTest, UniformArrivalsMatchOfferedLoad) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  WorkloadOptions options;
  options.arrival = ArrivalProcess::kUniform;
  options.qps = 100.0;
  options.duration_s = 1.0;
  auto events = GenerateArrivals(graph, options);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_NEAR(static_cast<double>(events.value().size()),
              options.qps * options.duration_s, 2.0);
}

TEST(ServiceWorkloadTest, MaxQueriesCapsGeneration) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  WorkloadOptions options;
  options.arrival = ArrivalProcess::kBursty;
  options.qps = 10000.0;
  options.duration_s = 1.0;
  options.max_queries = 37;
  auto events = GenerateArrivals(graph, options);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ(events.value().size(), 37u);
}

// --------------------------------------------------- determinism + SLOs --

// Collects source -> checksum for one full pass of `events` through a
// service with the given executor width, asserting every query succeeds.
std::map<graph::VertexId, uint64_t> RunPass(
    const graph::Csr& graph, const std::vector<WorkloadEvent>& events,
    int execute_threads) {
  ServiceOptions options = QuickServiceOptions();
  options.max_batch = 16;
  options.max_delay_ms = 2.0;
  options.execute_threads = execute_threads;
  options.keep_depths = false;
  auto svc = BfsService::Create(&graph, options);
  IBFS_CHECK(svc.ok()) << svc.status().ToString();
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(events.size());
  for (const WorkloadEvent& event : events) {
    futures.push_back(svc.value()->Submit(event.source));
  }
  svc.value()->Shutdown();
  std::map<graph::VertexId, uint64_t> checksums;
  for (auto& f : futures) {
    const QueryResult r = f.get();
    IBFS_CHECK(r.status.ok()) << r.status.ToString();
    const auto [it, inserted] =
        checksums.emplace(r.source, r.depth_checksum);
    // A repeated source must reproduce its checksum even within one pass.
    if (!inserted) IBFS_CHECK(it->second == r.depth_checksum);
  }
  return checksums;
}

TEST(ServiceDeterminismTest, DepthChecksumsIdenticalAcrossThreadCounts) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  WorkloadOptions workload;
  workload.qps = 2000.0;
  workload.duration_s = 0.05;
  workload.seed = 2016;
  auto events = GenerateArrivals(graph, workload);
  ASSERT_TRUE(events.ok()) << events.status().ToString();

  const auto serial = RunPass(graph, events.value(), 1);
  const auto parallel = RunPass(graph, events.value(), 4);
  // Batch composition differs run to run (it depends on wall-clock
  // timing), but per-query depths depend only on (graph, source), so the
  // checksum maps must match bit for bit.
  EXPECT_EQ(serial, parallel);
}

TEST(ServiceSharingTest, FullBatchMatchesOracleSharing) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  WorkloadOptions workload;
  workload.arrival = ArrivalProcess::kUniform;
  workload.qps = 64000.0;
  workload.duration_s = 0.001;
  workload.max_queries = 64;
  auto events = GenerateArrivals(graph, workload);
  ASSERT_TRUE(events.ok()) << events.status().ToString();

  ServiceOptions options = QuickServiceOptions();
  options.max_batch = 64;
  options.max_delay_ms = 1000.0;  // the size close fires first
  options.keep_depths = false;
  auto svc = BfsService::Create(&graph, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  std::vector<std::future<QueryResult>> futures;
  for (const WorkloadEvent& event : events.value()) {
    futures.push_back(svc.value()->Submit(event.source));
  }
  for (auto& f : futures) {
    ASSERT_TRUE(f.get().status.ok());
  }
  svc.value()->Shutdown();

  auto oracle =
      OracleSharingRatio(graph, options.engine, events.value());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  const double achieved = svc.value()->stats().SharingRatio();
  EXPECT_GT(achieved, 0.0);
  // One full 64-query batch goes through the identical GroupSources path
  // the oracle uses, so dynamic batching must retain at least the
  // acceptance bar of 80% of the oracle's sharing (it is typically equal).
  EXPECT_GE(achieved, 0.8 * oracle.value());
}

TEST(ServiceSharingTest, ReportBuildsFromDrivenWorkload) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  WorkloadOptions workload;
  workload.arrival = ArrivalProcess::kPoisson;
  workload.qps = 800.0;
  workload.duration_s = 0.05;
  workload.seed = 3;
  auto events = GenerateArrivals(graph, workload);
  ASSERT_TRUE(events.ok()) << events.status().ToString();

  ServiceOptions options = QuickServiceOptions();
  options.keep_depths = false;
  auto svc = BfsService::Create(&graph, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  auto drive = DriveWorkload(svc.value().get(), events.value());
  ASSERT_TRUE(drive.ok()) << drive.status().ToString();
  EXPECT_EQ(drive.value().results.size(), events.value().size());

  auto oracle = OracleSharingRatio(graph, options.engine, events.value());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  const obs::ServiceReport report = BuildServiceReport(
      "rmat8", graph, options, workload, drive.value(), oracle.value());
  EXPECT_EQ(report.queries,
            static_cast<int64_t>(events.value().size()));
  EXPECT_EQ(report.completed + report.failed, report.queries);
  EXPECT_GT(report.achieved_qps, 0.0);
  EXPECT_GT(report.batches, 0);
  EXPECT_LE(report.total_ms.p50, report.total_ms.p95);
  EXPECT_LE(report.total_ms.p95, report.total_ms.p99);
  EXPECT_GT(report.total_ms.max, 0.0);
}

// ------------------------------------------------------- stats snapshots --

TEST(ServiceStatsTest, AddSumsEveryField) {
  BfsService::Stats a;
  a.queries = 3;
  a.completed = 2;
  a.failed = 1;
  a.batches = 2;
  a.groups = 2;
  a.executed_instances = 3;
  a.cache_hits = 1;
  a.rejected = 1;
  a.shed = 1;
  a.degraded = 1;
  a.retries = 2;
  a.breaker_opened = 1;
  a.sim_seconds = 0.5;
  a.private_fq_sum = 10;
  a.jfq_sum = 4;
  BfsService::Stats b = a;
  b.queries = 7;
  b.sim_seconds = 1.5;
  a.Add(b);
  EXPECT_EQ(a.queries, 10);
  EXPECT_EQ(a.completed, 4);
  EXPECT_EQ(a.failed, 2);
  EXPECT_EQ(a.batches, 4);
  EXPECT_EQ(a.executed_instances, 6);
  EXPECT_EQ(a.cache_hits, 2);
  EXPECT_EQ(a.rejected, 2);
  EXPECT_EQ(a.shed, 2);
  EXPECT_EQ(a.degraded, 2);
  EXPECT_EQ(a.retries, 4);
  EXPECT_EQ(a.breaker_opened, 2);
  EXPECT_DOUBLE_EQ(a.sim_seconds, 2.0);
  EXPECT_EQ(a.private_fq_sum, 20);
  EXPECT_EQ(a.jfq_sum, 8);
}

TEST(ServiceStatsTest, SnapshotsNeverTearUnderConcurrentLoad) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  ServiceOptions options = QuickServiceOptions();
  options.max_delay_ms = 0.5;
  auto svc = BfsService::Create(&graph, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  // Poll snapshots while queries flow. Every mutation path accounts
  // under the stats lock *before* resolving the client future, so each
  // snapshot must satisfy the cross-field invariant — a torn read
  // (e.g. completed bumped before queries) breaks it.
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const BfsService::Stats snap = svc.value()->stats();
      if (snap.completed + snap.failed >
          snap.queries + snap.cache_hits + snap.shed + snap.rejected) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      if (snap.queries < 0 || snap.completed < 0 || snap.failed < 0) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  const auto sources = graph::SampleConnectedSources(graph, 64, 13);
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(sources.size() + 8);
  for (graph::VertexId s : sources) {
    futures.push_back(svc.value()->Submit(s));
  }
  for (int i = 0; i < 8; ++i) {
    // Out-of-range rejects exercise the failure accounting path too.
    futures.push_back(svc.value()->Submit(
        static_cast<graph::VertexId>(graph.vertex_count() + i)));
  }
  for (auto& f : futures) f.wait();
  svc.value()->Shutdown();
  stop.store(true, std::memory_order_relaxed);
  poller.join();

  EXPECT_EQ(violations.load(), 0);
  const BfsService::Stats final_stats = svc.value()->stats();
  // Every future resolved, so the final snapshot is exact.
  EXPECT_EQ(final_stats.completed + final_stats.failed,
            static_cast<int64_t>(futures.size()));
  EXPECT_EQ(final_stats.failed, 8);
  EXPECT_EQ(final_stats.rejected, 8);
}

}  // namespace
}  // namespace ibfs::service
