// Tests of the distributed serving fleet: consistent-hash ring properties
// (seeded determinism, bounded imbalance, minimal disruption on shard
// loss and join), front-door checksum parity with a single BfsService at
// every shard count and replication factor, scatter-gather merge
// determinism, health/failover behavior with degrade->recover lifecycle,
// the CPU-fallback path, cache behavior across a failover, elastic joins
// with targeted cache warmup, in-order replica failover reads, replica
// cache fan-out and mismatch quarantine, and the chaos harness +
// fleet-report validator.
#include <algorithm>
#include <cstdint>
#include <future>
#include <map>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/reference_bfs.h"
#include "fleet/fleet.h"
#include "fleet/fleet_workload.h"
#include "gen/benchmarks.h"
#include "graph/components.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/validate.h"
#include "service/service.h"
#include "service/workload.h"
#include "test_util.h"
#include "util/checksum.h"
#include "util/hash_ring.h"

namespace ibfs::fleet {
namespace {

using ::ibfs::testing::MakeRmatGraph;

// --------------------------------------------------------------- hash ring --

TEST(HashRingTest, SeededPlacementIsDeterministic) {
  HashRing::Options options;
  options.vnodes = 64;
  options.seed = 7;
  const HashRing a(4, options);
  const HashRing b(4, options);
  for (uint64_t key = 0; key < 4096; ++key) {
    ASSERT_EQ(a.ShardFor(key), b.ShardFor(key)) << "key " << key;
  }
}

TEST(HashRingTest, DifferentSeedsRouteDifferently) {
  HashRing::Options options;
  options.vnodes = 64;
  options.seed = 7;
  const HashRing a(4, options);
  options.seed = 8;
  const HashRing b(4, options);
  int moved = 0;
  for (uint64_t key = 0; key < 4096; ++key) {
    if (a.ShardFor(key) != b.ShardFor(key)) ++moved;
  }
  EXPECT_GT(moved, 0);
}

TEST(HashRingTest, KeyImbalanceStaysUnder15PercentAt128Vnodes) {
  HashRing::Options options;
  options.vnodes = 128;
  options.seed = 2016;
  const int shards = 4;
  const HashRing ring(shards, options);
  std::vector<int64_t> counts(shards, 0);
  const int64_t keys = 100000;
  for (int64_t key = 0; key < keys; ++key) {
    const int shard = ring.ShardFor(static_cast<uint64_t>(key));
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, shards);
    ++counts[static_cast<size_t>(shard)];
  }
  const double mean =
      static_cast<double>(keys) / static_cast<double>(shards);
  for (int s = 0; s < shards; ++s) {
    const double share = static_cast<double>(counts[static_cast<size_t>(s)]);
    EXPECT_LE(share / mean, 1.15)
        << "shard " << s << " owns " << share << " of " << keys;
    EXPECT_GE(share / mean, 0.85)
        << "shard " << s << " owns " << share << " of " << keys;
  }
}

TEST(HashRingTest, RemovalOnlyMovesKeysOfTheDeadShard) {
  HashRing::Options options;
  options.vnodes = 128;
  options.seed = 2016;
  HashRing ring(4, options);
  const int dead = 2;
  std::map<uint64_t, int> before;
  for (uint64_t key = 0; key < 8192; ++key) {
    before[key] = ring.ShardFor(key);
  }
  ASSERT_TRUE(ring.Remove(dead));
  EXPECT_FALSE(ring.Remove(dead));  // already gone
  int64_t remapped = 0;
  for (const auto& [key, owner] : before) {
    const int now = ring.ShardFor(key);
    ASSERT_NE(now, dead);
    if (owner == dead) {
      ++remapped;  // must land on some survivor
    } else {
      // Minimal disruption: survivors keep every key they already owned.
      EXPECT_EQ(now, owner) << "key " << key << " moved needlessly";
    }
  }
  EXPECT_GT(remapped, 0);
}

TEST(HashRingTest, WeightsBiasOwnership) {
  HashRing::Options options;
  options.vnodes = 128;
  options.seed = 3;
  options.weights = {1, 3};
  const HashRing ring(2, options);
  int64_t heavy = 0;
  const int64_t keys = 20000;
  for (int64_t key = 0; key < keys; ++key) {
    if (ring.ShardFor(static_cast<uint64_t>(key)) == 1) ++heavy;
  }
  // Shard 1 carries 3/4 of the virtual nodes; its key share should be
  // well above an even split.
  EXPECT_GT(static_cast<double>(heavy) / static_cast<double>(keys), 0.6);
}

TEST(HashRingTest, EmptyRingReturnsNoOwner) {
  HashRing::Options options;
  options.vnodes = 8;
  HashRing ring(2, options);
  EXPECT_TRUE(ring.Remove(0));
  EXPECT_TRUE(ring.Remove(1));
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.ShardFor(123), -1);
}

// ---------------------------------------------------- hash ring elasticity --

TEST(HashRingAddTest, AddOnlyStealsKeysFromSurvivors) {
  HashRing::Options options;
  options.vnodes = 128;
  options.seed = 2016;
  HashRing ring(3, options);
  std::map<uint64_t, int> before;
  for (uint64_t key = 0; key < 8192; ++key) before[key] = ring.ShardFor(key);
  ASSERT_TRUE(ring.Add(3));
  EXPECT_EQ(ring.active_count(), 4);
  int64_t stolen = 0;
  for (const auto& [key, owner] : before) {
    const int now = ring.ShardFor(key);
    if (now != owner) {
      // Minimal disruption: a key may only move to the joiner, never
      // between survivors.
      EXPECT_EQ(now, 3) << "key " << key << " moved between survivors";
      ++stolen;
    }
  }
  // The joiner carries ~1/4 of the key space at equal weight.
  EXPECT_GT(stolen, 0);
  EXPECT_LT(stolen, 8192 / 2);
}

TEST(HashRingAddTest, GrownRingEqualsRingBuiltAtFullSize) {
  HashRing::Options options;
  options.vnodes = 64;
  options.seed = 7;
  HashRing grown(3, options);
  ASSERT_TRUE(grown.Add(3));
  const HashRing direct(4, options);
  // Placement is a pure function of (seed, shard, vnode): growing 3 -> 4
  // reproduces the ring that was born with 4 shards.
  for (uint64_t key = 0; key < 8192; ++key) {
    ASSERT_EQ(grown.ShardFor(key), direct.ShardFor(key)) << "key " << key;
  }
}

TEST(HashRingAddTest, ReAddAfterRemoveRestoresOriginalRouting) {
  HashRing::Options options;
  options.vnodes = 64;
  options.seed = 11;
  HashRing ring(4, options);
  std::map<uint64_t, int> before;
  for (uint64_t key = 0; key < 8192; ++key) before[key] = ring.ShardFor(key);
  ASSERT_TRUE(ring.Remove(2));
  ASSERT_TRUE(ring.Add(2));
  for (const auto& [key, owner] : before) {
    ASSERT_EQ(ring.ShardFor(key), owner)
        << "key " << key << " did not round-trip Remove+Add";
  }
}

TEST(HashRingAddTest, RejectsActiveGapAndBadWeightIds) {
  HashRing::Options options;
  options.vnodes = 8;
  HashRing ring(2, options);
  EXPECT_FALSE(ring.Add(0));      // already active
  EXPECT_FALSE(ring.Add(4));      // would leave a gap (2 is the next id)
  EXPECT_FALSE(ring.Add(2, 0));   // weight < 1
  // vnodes x weight past the point cap (the id stays free, no gap).
  EXPECT_FALSE(ring.Add(2, HashRing::kMaxShardPoints / 8 + 1));
  EXPECT_FALSE(ring.Add(-1));
  EXPECT_TRUE(ring.Add(2, 2));    // next id, weighted join
  EXPECT_EQ(ring.weight(2), 2);
  EXPECT_EQ(ring.shard_count(), 3);
}

TEST(HashRingAddTest, ReplicaSetsAreDistinctAndAlignWithFailover) {
  HashRing::Options options;
  options.vnodes = 64;
  options.seed = 13;
  HashRing ring(4, options);
  for (uint64_t key = 0; key < 2048; ++key) {
    const std::vector<int> replicas = ring.ReplicasFor(key, 3);
    ASSERT_EQ(replicas.size(), 3u);
    ASSERT_EQ(replicas[0], ring.ShardFor(key));
    EXPECT_NE(replicas[0], replicas[1]);
    EXPECT_NE(replicas[1], replicas[2]);
    EXPECT_NE(replicas[0], replicas[2]);
    // Replica 1 is exactly where the key falls over if the primary dies.
    HashRing failed = ring;
    ASSERT_TRUE(failed.Remove(replicas[0]));
    ASSERT_EQ(failed.ShardFor(key), replicas[1]) << "key " << key;
  }
  // More replicas than shards: the walk returns every distinct shard.
  EXPECT_EQ(ring.ReplicasFor(1, 16).size(), 4u);
}

TEST(HashRingAddTest, ReplicasForCapsAtActiveShardCountAfterRemovals) {
  HashRing::Options options;
  options.vnodes = 32;
  options.seed = 7;
  HashRing ring(5, options);
  ASSERT_TRUE(ring.Remove(1));
  ASSERT_TRUE(ring.Remove(3));
  for (uint64_t key = 0; key < 256; ++key) {
    // Asking for more replicas than the ring has active shards returns
    // every distinct active shard once — never a removed id, never a
    // duplicate padding the set out to the requested size.
    const std::vector<int> replicas = ring.ReplicasFor(key, 8);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_EQ(replicas[0], ring.ShardFor(key));
    std::vector<int> sorted = replicas;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 2, 4}));
  }
  EXPECT_TRUE(ring.ReplicasFor(1, 0).empty());
  HashRing empty(0, options);
  EXPECT_TRUE(empty.ReplicasFor(1, 3).empty());
}

// ------------------------------------------------------- stats imbalance --

TEST(FleetImbalanceTest, UnweightedReducesToMaxOverMean) {
  FleetStats stats;
  stats.routed = {10, 20, 30};
  stats.health.assign(3, ShardHealth::kHealthy);
  EXPECT_NEAR(stats.Imbalance(), 1.5, 1e-12);  // 30 / mean(20)
}

TEST(FleetImbalanceTest, ProportionalWeightedRoutingScoresOne) {
  FleetStats stats;
  stats.routed = {300, 100, 100, 100};
  stats.health.assign(4, ShardHealth::kHealthy);
  stats.weight = {3, 1, 1, 1};
  stats.weight_share = {0.5, 1.0 / 6, 1.0 / 6, 1.0 / 6};
  EXPECT_NEAR(stats.Imbalance(), 1.0, 1e-12);
}

TEST(FleetImbalanceTest, DownShardDoesNotBiasTheWeightedScore) {
  // Regression: weight_share spans the whole fleet (down shards included)
  // while the load fractions only see live traffic. Without renormalizing
  // the shares over live shards, this proportionally-routed fleet scored
  // 1 / (1 - dead_share) = 2.0 instead of 1.0.
  FleetStats stats;
  stats.routed = {600, 200, 200, 0};
  stats.health = {ShardHealth::kHealthy, ShardHealth::kHealthy,
                  ShardHealth::kHealthy, ShardHealth::kDown};
  stats.weight_share = {0.3, 0.1, 0.1, 0.5};
  EXPECT_NEAR(stats.Imbalance(), 1.0, 1e-12);
}

TEST(FleetImbalanceTest, MixedWeightInfoUsesOneNormalization) {
  // Shard 2 predates weight tracking (share 0 -> equal-share fallback).
  // The fallback 1/live lives on a different scale than the ring shares,
  // so all three are renormalized by their sum (0.5 + 0.25 + 1/3); routing
  // exactly by the renormalized shares must still score 1.0.
  FleetStats stats;
  stats.health.assign(3, ShardHealth::kHealthy);
  stats.weight_share = {0.5, 0.25, 0.0};
  const double fallback = 1.0 / 3.0;
  const double sum = 0.5 + 0.25 + fallback;
  stats.routed = {static_cast<int64_t>(1e6 * 0.5 / sum),
                  static_cast<int64_t>(1e6 * 0.25 / sum),
                  static_cast<int64_t>(1e6 * fallback / sum)};
  EXPECT_NEAR(stats.Imbalance(), 1.0, 1e-3);
}

TEST(FleetImbalanceTest, NoLiveTrafficIsZero) {
  FleetStats stats;
  stats.routed = {0, 0};
  stats.health.assign(2, ShardHealth::kHealthy);
  EXPECT_EQ(stats.Imbalance(), 0.0);
  stats.routed = {5, 9};
  stats.health.assign(2, ShardHealth::kDown);
  EXPECT_EQ(stats.Imbalance(), 0.0);
}

// ----------------------------------------------------------- fleet options --

TEST(FleetOptionsTest, RejectsBadKnobs) {
  FleetOptions options;
  options.shards = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = FleetOptions();
  options.vnodes = 0;
  EXPECT_FALSE(options.Validate().ok());
  options.vnodes = HashRing::kMaxShardPoints + 1;
  EXPECT_FALSE(options.Validate().ok());
  options = FleetOptions();
  options.error_rate_threshold = 1.5;
  EXPECT_FALSE(options.Validate().ok());
  options = FleetOptions();
  options.gather_threads = 0;
  EXPECT_FALSE(options.Validate().ok());
  EXPECT_TRUE(FleetOptions().Validate().ok());
}

// --------------------------------------------------------- checksum parity --

FleetOptions QuickFleetOptions(int shards) {
  FleetOptions options;
  options.shards = shards;
  options.vnodes = 64;
  options.service.max_batch = 16;
  options.service.max_delay_ms = 1.0;
  options.service.execute_threads = 2;
  options.service.engine.strategy = Strategy::kBitwise;
  options.service.engine.grouping = GroupingPolicy::kGroupBy;
  options.service.engine.group_size = 16;
  return options;
}

service::WorkloadOptions QuickWorkload() {
  service::WorkloadOptions workload;
  workload.arrival = service::ArrivalProcess::kPoisson;
  workload.qps = 300.0;
  workload.duration_s = 0.25;
  workload.seed = 11;
  return workload;
}

uint64_t FoldDriveChecksum(
    const std::vector<service::QueryResult>& results) {
  uint64_t checksum = kFnv1aOffsetBasis;
  for (const service::QueryResult& result : results) {
    if (result.status.ok()) {
      checksum = FoldChecksum(checksum, result.depth_checksum);
    }
  }
  return checksum;
}

TEST(FleetParityTest, MatchesSingleServiceAtEveryShardCount) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  const service::WorkloadOptions workload = QuickWorkload();
  auto events = service::GenerateArrivals(graph, workload);
  ASSERT_TRUE(events.ok()) << events.status().ToString();

  auto baseline_svc = service::BfsService::Create(
      &graph, QuickFleetOptions(1).service);
  ASSERT_TRUE(baseline_svc.ok()) << baseline_svc.status().ToString();
  auto baseline =
      service::DriveWorkload(baseline_svc.value().get(), events.value());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const uint64_t expected = FoldDriveChecksum(baseline.value().results);

  for (int shards : {1, 2, 4, 8}) {
    auto fleet =
        FleetFrontDoor::Create(&graph, QuickFleetOptions(shards));
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    FleetWorkloadOptions options;
    options.workload = workload;
    auto drive =
        DriveFleet(fleet.value().get(), events.value(), options);
    ASSERT_TRUE(drive.ok()) << drive.status().ToString();
    EXPECT_EQ(drive.value().unanswered, 0) << shards << " shards";
    EXPECT_EQ(drive.value().checksum, expected)
        << shards << "-shard fleet diverged from the single service";
  }
}

TEST(FleetParityTest, MultiSourceScatterMatchesSingleService) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  const service::WorkloadOptions workload = QuickWorkload();
  auto events = service::GenerateArrivals(graph, workload);
  ASSERT_TRUE(events.ok()) << events.status().ToString();

  auto baseline_svc = service::BfsService::Create(
      &graph, QuickFleetOptions(1).service);
  ASSERT_TRUE(baseline_svc.ok()) << baseline_svc.status().ToString();
  auto baseline =
      service::DriveWorkload(baseline_svc.value().get(), events.value());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto fleet = FleetFrontDoor::Create(&graph, QuickFleetOptions(4));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  FleetWorkloadOptions options;
  options.workload = workload;
  options.multi_source = 3;
  auto drive = DriveFleet(fleet.value().get(), events.value(), options);
  ASSERT_TRUE(drive.ok()) << drive.status().ToString();
  EXPECT_EQ(drive.value().unanswered, 0);
  EXPECT_GT(drive.value().multi_queries, 0);
  EXPECT_EQ(drive.value().checksum,
            FoldDriveChecksum(baseline.value().results));
}

// The fleet parity tests compare each fleet against a single service on
// the same workload. This pins that single-service answer fold itself on
// the PK preset: 1 s of 400 qps Poisson arrivals (seed 2016), bitwise in
// GroupBy batches of up to 64.
TEST(FleetParityTest, PkSingleServiceChecksumMatchesGolden) {
  auto generated = gen::GenerateBenchmark(gen::BenchmarkId::kPK);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const graph::Csr& graph = generated.value();
  service::WorkloadOptions workload;
  workload.arrival = service::ArrivalProcess::kPoisson;
  workload.qps = 400.0;
  workload.duration_s = 1.0;
  workload.seed = 2016;
  auto events = service::GenerateArrivals(graph, workload);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ(events.value().size(), 388u);

  service::ServiceOptions options;
  options.max_batch = 64;
  options.max_delay_ms = 2.0;
  options.execute_threads = 2;
  options.keep_depths = false;
  options.engine.strategy = Strategy::kBitwise;
  options.engine.grouping = GroupingPolicy::kGroupBy;
  auto svc = service::BfsService::Create(&graph, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  std::vector<std::future<service::QueryResult>> futures;
  for (const service::WorkloadEvent& event : events.value()) {
    futures.push_back(svc.value()->Submit(event.source));
  }
  std::vector<service::QueryResult> results;
  for (auto& future : futures) results.push_back(future.get());
  svc.value()->Shutdown();
  EXPECT_EQ(FoldDriveChecksum(results), 16131961355110028984ULL);
}

TEST(FleetScatterTest, CombinedChecksumIsShardCountInvariant) {
  const graph::Csr graph = MakeRmatGraph(7, 8);
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 12, 5);

  uint64_t combined_at_one = 0;
  for (int shards : {1, 4}) {
    auto fleet =
        FleetFrontDoor::Create(&graph, QuickFleetOptions(shards));
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    const MultiQueryResult multi = fleet.value()->MultiQuery(sources);
    ASSERT_TRUE(multi.status.ok()) << multi.status.ToString();
    ASSERT_EQ(multi.results.size(), sources.size());
    for (size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(multi.results[i].source, sources[i]) << "request order";
    }
    if (shards == 1) {
      combined_at_one = multi.combined_checksum;
      EXPECT_EQ(multi.shards_touched, 1);
    } else {
      EXPECT_EQ(multi.combined_checksum, combined_at_one);
      EXPECT_GT(multi.shards_touched, 1);
    }
    fleet.value()->Shutdown();
  }
}

// ------------------------------------------------------------ stats merge --

TEST(FleetStatsTest, TotalsAreTheFieldwiseSumOfShards) {
  const graph::Csr graph = MakeRmatGraph(7, 8);
  auto fleet = FleetFrontDoor::Create(&graph, QuickFleetOptions(3));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 24, 9);
  for (graph::VertexId source : sources) {
    auto result = fleet.value()->Submit(source).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  }
  fleet.value()->Shutdown();
  const FleetStats stats = fleet.value()->stats();
  ASSERT_EQ(stats.shard.size(), 3u);
  int64_t queries = 0;
  int64_t completed = 0;
  int64_t routed = 0;
  for (const service::BfsService::Stats& shard : stats.shard) {
    queries += shard.queries;
    completed += shard.completed;
  }
  for (int64_t r : stats.routed) routed += r;
  EXPECT_EQ(stats.totals.queries, queries);
  EXPECT_EQ(stats.totals.completed, completed);
  EXPECT_EQ(completed, static_cast<int64_t>(sources.size()));
  EXPECT_EQ(routed, static_cast<int64_t>(sources.size()));
  EXPECT_EQ(stats.healthy, 3);
  EXPECT_GT(stats.Imbalance(), 0.0);
}

// ------------------------------------------------------- failover / health --

TEST(FleetFailoverTest, KilledShardLeavesTheRingAndSurvivorsAnswer) {
  const graph::Csr graph = MakeRmatGraph(7, 8);
  auto fleet = FleetFrontDoor::Create(&graph, QuickFleetOptions(4));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  FleetFrontDoor& door = *fleet.value();

  // Find a source homed on shard 1 so the kill provably reroutes it.
  graph::VertexId victim = -1;
  for (graph::VertexId v = 0; v < graph.vertex_count(); ++v) {
    if (door.HomeShard(v) == 1) {
      victim = v;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  const std::vector<uint8_t> reference = baselines::ReferenceDepthsU8(
      graph, victim, TraversalOptions::kMaxTraversalLevel);

  ASSERT_TRUE(door.KillShard(1));
  EXPECT_FALSE(door.KillShard(1));  // already down
  EXPECT_EQ(door.shard_health(1), ShardHealth::kDown);
  for (graph::VertexId v = 0; v < graph.vertex_count(); ++v) {
    EXPECT_NE(door.OwnerShard(v), 1) << "vertex " << v;
  }
  EXPECT_EQ(door.HomeShard(victim), 1);  // the full ring never changes

  auto rerouted = door.Submit(victim).get();
  ASSERT_TRUE(rerouted.status.ok()) << rerouted.status.ToString();
  EXPECT_EQ(rerouted.depth_checksum, Fnv1a(reference));
  door.Shutdown();
  const FleetStats stats = door.stats();
  EXPECT_GE(stats.failover_reroutes, 1);
  EXPECT_EQ(stats.down, 1);
}

TEST(FleetFailoverTest, CpuFallbackAnswersWhenEveryShardIsDown) {
  const graph::Csr graph = MakeRmatGraph(6, 8);
  FleetOptions options = QuickFleetOptions(2);
  auto fleet = FleetFrontDoor::Create(&graph, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ASSERT_TRUE(fleet.value()->KillShard(0));
  ASSERT_TRUE(fleet.value()->KillShard(1));

  const graph::VertexId source = 3;
  auto result = fleet.value()->Submit(source).get();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.depth_checksum,
            Fnv1a(baselines::ReferenceDepthsU8(
                graph, source, TraversalOptions::kMaxTraversalLevel)));
  const FleetStats stats = fleet.value()->stats();
  EXPECT_EQ(stats.fallback_answers, 1);

  auto bad = fleet.value()->Submit(graph.vertex_count() + 5).get();
  EXPECT_EQ(bad.status.code(), StatusCode::kOutOfRange);
}

TEST(FleetFailoverTest, UnavailableWhenFallbackDisabled) {
  const graph::Csr graph = MakeRmatGraph(6, 8);
  FleetOptions options = QuickFleetOptions(1);
  options.cpu_fallback = false;
  auto fleet = FleetFrontDoor::Create(&graph, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ASSERT_TRUE(fleet.value()->KillShard(0));
  auto result = fleet.value()->Submit(1).get();
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST(FleetHealthTest, ErrorRateProbeMarksShardDegraded) {
  const graph::Csr graph = MakeRmatGraph(6, 8);
  FleetOptions options = QuickFleetOptions(1);
  options.min_health_samples = 4;
  options.error_rate_threshold = 0.5;
  auto fleet = FleetFrontDoor::Create(&graph, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  // Out-of-range sources fail inside the shard, driving its error rate
  // to 100% — well past the 50% threshold once enough samples landed.
  for (int i = 0; i < 8; ++i) {
    auto result =
        fleet.value()->shard_for_test(0)->Submit(graph.vertex_count() + 1);
    EXPECT_FALSE(result.get().status.ok());
  }
  EXPECT_EQ(fleet.value()->CheckHealth(), 1);
  EXPECT_EQ(fleet.value()->shard_health(0), ShardHealth::kDegraded);
  // Keep the burst going: the failure rate since the degrade snapshot
  // stays at 100%, so the shard stays degraded.
  for (int i = 0; i < 4; ++i) {
    auto result =
        fleet.value()->shard_for_test(0)->Submit(graph.vertex_count() + 1);
    EXPECT_FALSE(result.get().status.ok());
  }
  EXPECT_EQ(fleet.value()->CheckHealth(), 0);
  EXPECT_EQ(fleet.value()->shard_health(0), ShardHealth::kDegraded);
}

TEST(FleetHealthTest, DegradedShardRecoversOnceTheBurstStops) {
  const graph::Csr graph = MakeRmatGraph(6, 8);
  FleetOptions options = QuickFleetOptions(1);
  options.min_health_samples = 4;
  options.error_rate_threshold = 0.5;
  auto fleet = FleetFrontDoor::Create(&graph, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  for (int i = 0; i < 8; ++i) {
    auto result =
        fleet.value()->shard_for_test(0)->Submit(graph.vertex_count() + 1);
    EXPECT_FALSE(result.get().status.ok());
  }
  EXPECT_EQ(fleet.value()->CheckHealth(), 1);
  EXPECT_EQ(fleet.value()->shard_health(0), ShardHealth::kDegraded);

  // The burst is over and good traffic flows again: the next probe sees a
  // clean record since the degrade snapshot and restores the shard.
  for (int i = 0; i < 8; ++i) {
    auto result = fleet.value()->Submit(1).get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
  EXPECT_EQ(fleet.value()->CheckHealth(), 1);
  EXPECT_EQ(fleet.value()->shard_health(0), ShardHealth::kHealthy);
  EXPECT_EQ(fleet.value()->stats().recoveries, 1);

  // Recovery forgives the old burst — a fresh probe doesn't re-degrade on
  // the cumulative history.
  EXPECT_EQ(fleet.value()->CheckHealth(), 0);
  EXPECT_EQ(fleet.value()->shard_health(0), ShardHealth::kHealthy);
}

// ------------------------------------------------- cache across a failover --

TEST(FleetCacheTest, RemappedSourceMissesSurvivorCacheOnceThenHits) {
  const graph::Csr graph = MakeRmatGraph(7, 8);
  FleetOptions options = QuickFleetOptions(2);
  options.service.cache.enabled = true;
  auto fleet = FleetFrontDoor::Create(&graph, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  FleetFrontDoor& door = *fleet.value();

  graph::VertexId source = -1;
  for (graph::VertexId v = 0; v < graph.vertex_count(); ++v) {
    if (door.HomeShard(v) == 0) {
      source = v;
      break;
    }
  }
  ASSERT_GE(source, 0);

  // Warm the home shard's cache, then verify the second answer hit it.
  const auto first = door.Submit(source).get();
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  const auto warmed = door.Submit(source).get();
  ASSERT_TRUE(warmed.status.ok());
  EXPECT_TRUE(warmed.cached);
  EXPECT_EQ(warmed.depth_checksum, first.depth_checksum);

  ASSERT_TRUE(door.KillShard(0));
  const service::CacheStats survivor_before =
      door.shard_for_test(1)->cache_stats();

  // The survivor has never seen this source: exactly one miss...
  const auto remapped = door.Submit(source).get();
  ASSERT_TRUE(remapped.status.ok()) << remapped.status.ToString();
  EXPECT_FALSE(remapped.cached);
  EXPECT_EQ(remapped.depth_checksum, first.depth_checksum);
  const service::CacheStats survivor_miss =
      door.shard_for_test(1)->cache_stats();
  EXPECT_EQ(survivor_miss.misses, survivor_before.misses + 1);
  EXPECT_EQ(survivor_miss.hits, survivor_before.hits);

  // ...then it serves from its own cache, same answer as before the kill.
  const auto rehit = door.Submit(source).get();
  ASSERT_TRUE(rehit.status.ok());
  EXPECT_TRUE(rehit.cached);
  EXPECT_EQ(rehit.depth_checksum, first.depth_checksum);
  const service::CacheStats survivor_hit =
      door.shard_for_test(1)->cache_stats();
  EXPECT_EQ(survivor_hit.hits, survivor_before.hits + 1);
}

// ------------------------------------------------------------ elastic join --

TEST(FleetElasticTest, JoinedShardServesItsStolenSegment) {
  const graph::Csr graph = MakeRmatGraph(7, 8);
  auto fleet = FleetFrontDoor::Create(&graph, QuickFleetOptions(2));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  FleetFrontDoor& door = *fleet.value();
  ASSERT_EQ(door.shard_count(), 2);

  auto joined = door.AddShard();
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined.value(), 2);
  EXPECT_EQ(door.shard_count(), 3);
  EXPECT_EQ(door.shard_health(2), ShardHealth::kHealthy);
  EXPECT_EQ(door.ShardWeight(2), 1);

  // The joiner owns a segment now; a query routed there answers with the
  // reference checksum like any other shard.
  graph::VertexId stolen = -1;
  for (graph::VertexId v = 0; v < graph.vertex_count(); ++v) {
    if (door.OwnerShard(v) == 2) {
      stolen = v;
      break;
    }
  }
  ASSERT_GE(stolen, 0) << "the joiner captured no segment";
  auto result = door.Submit(stolen).get();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.depth_checksum,
            Fnv1a(baselines::ReferenceDepthsU8(
                graph, stolen, TraversalOptions::kMaxTraversalLevel)));
  door.Shutdown();
  const FleetStats stats = door.stats();
  EXPECT_EQ(stats.shard_joins, 1);
  ASSERT_EQ(stats.shard.size(), 3u);
  EXPECT_GT(stats.shard[2].completed, 0);
}

TEST(FleetElasticTest, JoinWarmupReplaysDonorCachesSoHotSourcesStillHit) {
  const graph::Csr graph = MakeRmatGraph(6, 8);
  FleetOptions options = QuickFleetOptions(2);
  options.service.cache.enabled = true;
  auto fleet = FleetFrontDoor::Create(&graph, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  FleetFrontDoor& door = *fleet.value();

  // Make every source hot: each is now resident in its owner's cache.
  for (graph::VertexId v = 0; v < graph.vertex_count(); ++v) {
    auto result = door.Submit(v).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  }

  auto joined = door.AddShard();
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  const int joiner = joined.value();

  std::vector<graph::VertexId> stolen;
  for (graph::VertexId v = 0; v < graph.vertex_count(); ++v) {
    if (door.OwnerShard(v) == joiner) stolen.push_back(v);
  }
  ASSERT_FALSE(stolen.empty()) << "the joiner captured no segment";
  EXPECT_GE(door.stats().warmup_entries,
            static_cast<int64_t>(stolen.size()));

  // A hot source whose segment moved misses the fleet cache zero times:
  // the warmup replayed its donor entry into the joiner before the join
  // returned.
  for (graph::VertexId v : stolen) {
    auto result = door.Submit(v).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(result.cached) << "source " << v << " missed after warmup";
  }
}

TEST(FleetElasticTest, AddShardRejectsBadWeight) {
  const graph::Csr graph = MakeRmatGraph(6, 8);
  auto fleet = FleetFrontDoor::Create(&graph, QuickFleetOptions(1));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_FALSE(fleet.value()->AddShard(0).ok());
  EXPECT_FALSE(fleet.value()->AddShard(-1).ok());
  // 64 vnodes x 2^24 would be 2^30 ring points (16 GiB): refused before
  // any allocation, and the fleet keeps its one shard.
  EXPECT_EQ(fleet.value()->AddShard(1 << 24).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.value()->shard_count(), 1);

  // The workload driver refuses such a join up front, before any traffic.
  auto events = service::GenerateArrivals(graph, QuickWorkload());
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  FleetWorkloadOptions workload;
  workload.workload = QuickWorkload();
  workload.join_shards = 1;
  workload.join_weight = 1 << 24;
  EXPECT_EQ(DriveFleet(fleet.value().get(), events.value(), workload)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.value()->stats().totals.queries, 0);
}

TEST(FleetElasticTest, KillThenJoinRestoresCapacity) {
  const graph::Csr graph = MakeRmatGraph(7, 8);
  auto fleet = FleetFrontDoor::Create(&graph, QuickFleetOptions(2));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  FleetFrontDoor& door = *fleet.value();
  ASSERT_TRUE(door.KillShard(0));
  auto joined = door.AddShard(2);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined.value(), 2);
  EXPECT_EQ(door.ShardWeight(0), 0);
  EXPECT_EQ(door.ShardWeight(2), 2);
  // Traffic flows across the survivor and the joiner.
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 16, 3);
  for (graph::VertexId source : sources) {
    auto result = door.Submit(source).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  }
  door.Shutdown();
  const FleetStats stats = door.stats();
  EXPECT_EQ(stats.down, 1);
  EXPECT_EQ(stats.shard_joins, 1);
  EXPECT_EQ(stats.shard[0].queries, 0);
}

// ------------------------------------------------------------- replication --

TEST(FleetReplicationTest, ParityAtEveryReplicationFactor) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  const service::WorkloadOptions workload = QuickWorkload();
  auto events = service::GenerateArrivals(graph, workload);
  ASSERT_TRUE(events.ok()) << events.status().ToString();

  auto baseline_svc = service::BfsService::Create(
      &graph, QuickFleetOptions(1).service);
  ASSERT_TRUE(baseline_svc.ok()) << baseline_svc.status().ToString();
  auto baseline =
      service::DriveWorkload(baseline_svc.value().get(), events.value());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const uint64_t expected = FoldDriveChecksum(baseline.value().results);

  for (int replication : {1, 2, 3}) {
    FleetOptions options = QuickFleetOptions(4);
    options.replication = replication;
    auto fleet = FleetFrontDoor::Create(&graph, options);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    FleetWorkloadOptions drive_options;
    drive_options.workload = workload;
    auto drive =
        DriveFleet(fleet.value().get(), events.value(), drive_options);
    ASSERT_TRUE(drive.ok()) << drive.status().ToString();
    EXPECT_EQ(drive.value().unanswered, 0) << "R=" << replication;
    EXPECT_EQ(drive.value().checksum, expected)
        << "R=" << replication << " fleet diverged from the single service";
    EXPECT_EQ(drive.value().stats.replica_mismatches, 0)
        << "R=" << replication;
  }
}

TEST(FleetReplicationTest, ReplicaSetsMatchTheRingWalk) {
  const graph::Csr graph = MakeRmatGraph(7, 8);
  FleetOptions options = QuickFleetOptions(3);
  options.replication = 2;
  auto fleet = FleetFrontDoor::Create(&graph, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  for (graph::VertexId v = 0; v < 32; ++v) {
    const std::vector<int> replicas = fleet.value()->ReplicaSet(v);
    ASSERT_EQ(replicas.size(), 2u);
    EXPECT_EQ(replicas[0], fleet.value()->OwnerShard(v));
    EXPECT_NE(replicas[0], replicas[1]);
  }
}

TEST(FleetReplicationTest, FailoverReadsSkipTrippedReplicasInOrder) {
  const graph::Csr graph = MakeRmatGraph(7, 8);
  // Every replica but the last in each source's set has its breakers
  // tripped. No service-level CPU fallback, so a tripped shard really
  // fails and only the walk down the replica set keeps reads OK; at R = 1
  // there is nothing to walk to.
  for (int replication : {1, 2, 3}) {
    FleetOptions options = QuickFleetOptions(3);
    options.replication = replication;
    options.service.resilience.cpu_fallback = false;
    auto fleet = FleetFrontDoor::Create(&graph, options);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    FleetFrontDoor& door = *fleet.value();
    const int tripped = std::max(1, replication - 1);
    for (int s = 0; s < tripped; ++s) {
      door.shard_for_test(s)->TripBreakersForTest();
    }
    int probed = 0;
    for (graph::VertexId v = 0; v < graph.vertex_count() && probed < 8;
         ++v) {
      const std::vector<int> replicas = door.ReplicaSet(v);
      ASSERT_EQ(static_cast<int>(replicas.size()), replication);
      // Sources whose first `tripped` replicas are exactly the sick shards.
      if (*std::max_element(replicas.begin(),
                            replicas.begin() + tripped) >= tripped) {
        continue;
      }
      ++probed;
      auto result = door.Submit(v).get();
      if (replication == 1) {
        EXPECT_EQ(result.status.code(), StatusCode::kUnavailable)
            << "source " << v << ": " << result.status.ToString();
        continue;
      }
      ASSERT_TRUE(result.status.ok())
          << "R=" << replication << " source " << v << ": "
          << result.status.ToString();
      EXPECT_EQ(result.depth_checksum,
                Fnv1a(baselines::ReferenceDepthsU8(
                    graph, v, TraversalOptions::kMaxTraversalLevel)));
    }
    EXPECT_EQ(probed, 8) << "R=" << replication;
    door.Shutdown();
    EXPECT_EQ(door.stats().replica_mismatches, 0);
  }
}

TEST(FleetReplicationTest, ReplicaMismatchQuarantinesBothCaches) {
  const graph::Csr graph = MakeRmatGraph(6, 8);
  FleetOptions options = QuickFleetOptions(2);
  options.replication = 2;
  options.service.cache.enabled = true;
  auto fleet = FleetFrontDoor::Create(&graph, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  FleetFrontDoor& door = *fleet.value();

  const graph::VertexId source = 1;
  const std::vector<int> replicas = door.ReplicaSet(source);
  ASSERT_EQ(replicas.size(), 2u);

  // Poison replica 1's cache with a self-consistent wrong answer: the
  // depth bytes are garbage but the checksum matches them, so only the
  // cross-replica comparison in the fan-out can catch it. The primary
  // computes fresh and serves the true answer.
  service::CachedDepths poisoned;
  poisoned.depths.assign(static_cast<size_t>(graph.vertex_count()), 1);
  poisoned.checksum = Fnv1a(poisoned.depths);
  poisoned.reached = graph.vertex_count();
  ASSERT_TRUE(door.shard_for_test(replicas[1])->WarmCache(source, poisoned));

  auto result = door.Submit(source).get();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_NE(result.depth_checksum, poisoned.checksum);
  door.Shutdown();  // drain the read wrapper so the accounting is final

  const FleetStats stats = door.stats();
  EXPECT_EQ(stats.replica_mismatches, 1);
  EXPECT_EQ(stats.replica_cache_writes, 0);
  // Both replicas' entries are quarantined: the fleet cannot adjudicate
  // two self-consistent answers, so the source recomputes fresh next time.
  EXPECT_FALSE(door.shard_for_test(replicas[0])->PeekCache(source)
                   .has_value());
  EXPECT_FALSE(door.shard_for_test(replicas[1])->PeekCache(source)
                   .has_value());
}

TEST(FleetReplicationTest, OkReadsFanTheirCacheEntryOutToReplicas) {
  const graph::Csr graph = MakeRmatGraph(6, 8);
  FleetOptions options = QuickFleetOptions(2);
  options.replication = 2;
  options.service.cache.enabled = true;
  auto fleet = FleetFrontDoor::Create(&graph, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  FleetFrontDoor& door = *fleet.value();

  const graph::VertexId source = 2;
  const std::vector<int> replicas = door.ReplicaSet(source);
  ASSERT_EQ(replicas.size(), 2u);
  ASSERT_FALSE(door.shard_for_test(replicas[1])->PeekCache(source)
                   .has_value());
  auto result = door.Submit(source).get();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  door.Shutdown();  // drain the wrapper: fan-out happens after serving

  // Only the primary computed; the replica now holds the same answer,
  // byte-identical.
  EXPECT_EQ(door.shard_for_test(replicas[1])->stats().queries, 0);
  const auto primary_entry =
      door.shard_for_test(replicas[0])->PeekCache(source);
  const auto replica_entry =
      door.shard_for_test(replicas[1])->PeekCache(source);
  ASSERT_TRUE(primary_entry.has_value());
  ASSERT_TRUE(replica_entry.has_value());
  EXPECT_EQ(primary_entry->checksum, result.depth_checksum);
  EXPECT_EQ(primary_entry->checksum, replica_entry->checksum);
  EXPECT_EQ(primary_entry->depths, replica_entry->depths);
  const FleetStats stats = door.stats();
  EXPECT_EQ(stats.replica_cache_writes, 1);
  EXPECT_EQ(stats.replica_mismatches, 0);
}

TEST(FleetStatsTest, ImbalanceNormalizesByRingWeightShare) {
  FleetStats stats;
  stats.routed = {75, 25};
  stats.health = {ShardHealth::kHealthy, ShardHealth::kHealthy};
  stats.weight_share = {0.75, 0.25};
  // Each shard carries exactly its weighted share: perfectly balanced.
  EXPECT_NEAR(stats.Imbalance(), 1.0, 1e-9);
  // An even split against a 3:1 weighting means the light shard carries
  // double its share.
  stats.routed = {50, 50};
  EXPECT_NEAR(stats.Imbalance(), 2.0, 1e-9);
  // Without weight info the old equal-share formula applies.
  stats.weight_share.clear();
  stats.routed = {75, 25};
  EXPECT_NEAR(stats.Imbalance(), 1.5, 1e-9);
}

// ------------------------------------------------------------ chaos harness --

TEST(FleetChaosTest, KillOneShardKeepsAvailabilityAndChecksums) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  FleetOptions options = QuickFleetOptions(4);
  FleetWorkloadOptions workload;
  workload.workload = QuickWorkload();
  workload.kill_shard = 2;
  auto run = RunFleetChaos("rmat8", graph, options, workload);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const obs::FleetReport& report = run.value();
  EXPECT_EQ(report.unanswered, 0);
  EXPECT_GT(report.checksums_compared, 0);
  EXPECT_EQ(report.checksum_mismatches, 0);
  EXPECT_EQ(report.down, 1);
  EXPECT_EQ(report.killed_shard, 2);
  EXPECT_EQ(report.completed + report.failed, report.queries);

  // The emitted document must satisfy its own schema validator.
  std::ostringstream os;
  report.WriteJson(os);
  auto doc = obs::ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Status valid = obs::ValidateFleetReport(doc.value());
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(FleetChaosTest, KillThenJoinEpisodeStaysAvailableAndBitIdentical) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  FleetOptions options = QuickFleetOptions(3);
  options.service.cache.enabled = true;
  FleetWorkloadOptions workload;
  workload.workload = QuickWorkload();
  workload.kill_shard = 1;
  workload.kill_at_s = 0.05;
  workload.join_shards = 1;
  workload.join_at_s = 0.12;
  auto run = RunFleetChaos("rmat8", graph, options, workload);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const obs::FleetReport& report = run.value();
  // The full elastic episode: lose a shard, keep serving, grow back, keep
  // serving — zero unanswered futures, every answer bit-identical to the
  // fault-free baseline.
  EXPECT_EQ(report.unanswered, 0);
  EXPECT_GT(report.checksums_compared, 0);
  EXPECT_EQ(report.checksum_mismatches, 0);
  EXPECT_EQ(report.killed_shard, 1);
  EXPECT_EQ(report.shard_joins, 1);
  EXPECT_EQ(report.joined_shards, 1);
  EXPECT_EQ(report.down, 1);
  ASSERT_EQ(report.shard_rows.size(), 4u);
  EXPECT_EQ(report.shard_rows[1].weight, 0);   // killed: off the ring
  EXPECT_GE(report.shard_rows[3].weight, 1);   // joiner: on the ring
  EXPECT_GT(report.shard_rows[3].completed, 0);

  // The v3 document (elasticity section, per-row weights) validates.
  std::ostringstream os;
  report.WriteJson(os);
  auto doc = obs::ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Status valid = obs::ValidateFleetReport(doc.value());
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(os.str().find("\"elasticity\""), std::string::npos);
}

TEST(FleetChaosTest, ReportEmbedsValidatedMetrics) {
  const graph::Csr graph = MakeRmatGraph(7, 8);
  obs::MetricsRegistry metrics;
  FleetOptions options = QuickFleetOptions(2);
  options.service.observer.metrics = &metrics;
  FleetWorkloadOptions workload;
  workload.workload = QuickWorkload();
  workload.workload.duration_s = 0.1;
  auto run = RunFleetChaos("rmat7", graph, options, workload);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  std::ostringstream os;
  run.value().WriteJson(os, &metrics);
  auto doc = obs::ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(obs::ValidateFleetReport(doc.value()).ok());
  // The fleet minted its routing metrics into the shared registry.
  EXPECT_NE(os.str().find("fleet.routed"), std::string::npos);
}

TEST(FleetValidatorTest, RejectsTamperedReports) {
  const graph::Csr graph = MakeRmatGraph(6, 8);
  FleetOptions options = QuickFleetOptions(1);
  FleetWorkloadOptions workload;
  workload.workload = QuickWorkload();
  workload.workload.duration_s = 0.1;
  auto run = RunFleetChaos("rmat6", graph, options, workload);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  obs::FleetReport bad = run.value();
  bad.checksum_mismatches = bad.checksums_compared + 1;
  std::ostringstream os;
  bad.WriteJson(os);
  auto doc = obs::ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_FALSE(obs::ValidateFleetReport(doc.value()).ok());

  obs::FleetReport wrong_schema = run.value();
  std::ostringstream os2;
  wrong_schema.WriteJson(os2);
  std::string text = os2.str();
  const size_t pos = text.find("ibfs.fleet_report");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "nope");
  auto doc2 = obs::ParseJson(text);
  ASSERT_TRUE(doc2.ok()) << doc2.status().ToString();
  EXPECT_FALSE(obs::ValidateFleetReport(doc2.value()).ok());

  // Like every latency distribution, the fleet's total_ms must satisfy
  // 0 <= p50 <= p95 <= p99.
  obs::FleetReport negative_p50 = run.value();
  negative_p50.total_ms.p50 = -0.5;
  std::ostringstream os3;
  negative_p50.WriteJson(os3);
  auto doc3 = obs::ParseJson(os3.str());
  ASSERT_TRUE(doc3.ok()) << doc3.status().ToString();
  EXPECT_FALSE(obs::ValidateFleetReport(doc3.value()).ok());
}

}  // namespace
}  // namespace ibfs::fleet
