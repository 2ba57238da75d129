// Tests of the serving-layer caches: option validation, result-cache
// hit/miss/LRU/quarantine semantics, plan-cache memoization, and the
// service-level integration — cache hits resolve at admission with
// bit-identical answers, corrupted entries are quarantined and
// re-executed, and the cache never changes depths under any combination
// of executor width and injected faults.
#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/group_plan.h"
#include "gpusim/fault.h"
#include "graph/builder.h"
#include "graph/components.h"
#include "graph/partition.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/cache.h"
#include "service/service.h"
#include "service/workload.h"
#include "test_util.h"
#include "util/checksum.h"

namespace ibfs::service {
namespace {

using ::ibfs::testing::MakeRmatGraph;
using ::ibfs::testing::MakeSmallGraph;

CachedDepths MakeValue(std::vector<uint8_t> depths) {
  CachedDepths value;
  value.checksum = Fnv1a(depths);
  value.reached = static_cast<int64_t>(
      std::count_if(depths.begin(), depths.end(),
                    [](uint8_t d) { return d != 0xff; }));
  value.depths = std::move(depths);
  return value;
}

// ------------------------------------------------------------ validation --

TEST(CacheOptionsTest, DefaultsValidate) {
  EXPECT_TRUE(CacheOptions{}.Validate().ok());
}

TEST(CacheOptionsTest, RejectsNegativeBudget) {
  CacheOptions options;
  options.result_budget_bytes = -1;
  EXPECT_FALSE(options.Validate().ok());
  // Zero is a degenerate but legal budget: the result cache admits
  // nothing while the plan cache keeps memoizing.
  options.result_budget_bytes = 0;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(CacheOptionsTest, RejectsNonPositiveShards) {
  CacheOptions options;
  options.shards = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(CacheOptionsTest, RejectsNegativePlanCapacity) {
  CacheOptions options;
  options.plan_capacity = -1;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(CacheOptionsTest, ServiceValidateChecksCacheOptions) {
  ServiceOptions options;
  options.cache.shards = -4;
  EXPECT_FALSE(options.Validate().ok());
}

// ---------------------------------------------------------- result cache --

TEST(CacheResultTest, MissThenHitRoundTripsValue) {
  ResultCache cache(/*graph_fingerprint=*/0xabcd, Strategy::kBitwise,
                    CacheOptions{});
  EXPECT_FALSE(cache.Get(7).has_value());
  cache.Put(7, MakeValue({0, 1, 2, 0xff}));
  auto hit = cache.Get(7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->depths, (std::vector<uint8_t>{0, 1, 2, 0xff}));
  EXPECT_EQ(hit->reached, 3);
  EXPECT_EQ(hit->checksum, Fnv1a(hit->depths));
  // A hit without depths carries the same checksum and reached count.
  auto bare = cache.Get(7, /*with_depths=*/false);
  ASSERT_TRUE(bare.has_value());
  EXPECT_TRUE(bare->depths.empty());
  EXPECT_EQ(bare->checksum, hit->checksum);
  EXPECT_EQ(bare->reached, 3);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes_resident, 0);
}

TEST(CacheResultTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  CacheOptions options;
  options.shards = 1;  // one LRU list so recency order is observable
  // Room for two 64-vertex entries of up to three planes (one 8-byte word
  // each) plus per-entry overhead, not three.
  options.result_budget_bytes = 2 * (3 * 8 + 96);
  ResultCache cache(1, Strategy::kBitwise, options);
  cache.Put(1, MakeValue(std::vector<uint8_t>(64, 1)));
  cache.Put(2, MakeValue(std::vector<uint8_t>(64, 2)));
  ASSERT_TRUE(cache.Get(1).has_value());  // refresh 1; now 2 is LRU
  cache.Put(3, MakeValue(std::vector<uint8_t>(64, 3)));
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
  EXPECT_GE(cache.stats().evictions, 1);
  EXPECT_LE(cache.bytes_resident(), options.result_budget_bytes);
}

TEST(CacheResultTest, OversizedEntryIsNotAdmitted) {
  CacheOptions options;
  options.shards = 1;
  options.result_budget_bytes = 128;
  ResultCache cache(1, Strategy::kBitwise, options);
  cache.Put(5, MakeValue(std::vector<uint8_t>(4096, 1)));
  EXPECT_FALSE(cache.Get(5).has_value());
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(CacheResultTest, CorruptedEntryIsQuarantinedAndReinsertable) {
  ResultCache cache(1, Strategy::kBitwise, CacheOptions{});
  cache.Put(9, MakeValue({0, 1, 1, 2}));
  ASSERT_TRUE(cache.CorruptEntryForTest(9));
  // The read detects the checksum mismatch, drops the entry, and misses.
  EXPECT_FALSE(cache.Get(9).has_value());
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.quarantined, 1);
  EXPECT_EQ(stats.entries, 0);
  // Quarantine is not a ban: the source can be cached again afterwards.
  cache.Put(9, MakeValue({0, 1, 1, 2}));
  EXPECT_TRUE(cache.Get(9).has_value());
}

TEST(CacheResultTest, EveryByteFlipIsQuarantinedByGetAndPeek) {
  // 1,001 vertices at depths up to 12: four planes of 16 words each, so
  // the plane words fill whole four-word seal blocks. Every single-bit
  // flip of every plane must be caught, also by a hit that skips the
  // unpack.
  std::vector<uint8_t> depths(1001);
  for (size_t i = 0; i < depths.size(); ++i) {
    depths[i] = static_cast<uint8_t>(i % 7 == 0 ? 0xff : i % 13);
  }
  constexpr int kPlanes = 4;  // bit_width(12 + 1)
  const CachedDepths value = MakeValue(depths);
  ResultCache cache(1, Strategy::kBitwise, CacheOptions{});
  cache.Put(3, value);
  EXPECT_FALSE(cache.CorruptEntryForTest(3, ResultCache::Field::kDepths, 0,
                                         kPlanes));
  for (size_t i = 0; i < depths.size(); ++i) {
    for (int plane = 0; plane < kPlanes; ++plane) {
      cache.Put(3, value);
      ASSERT_TRUE(cache.CorruptEntryForTest(3, ResultCache::Field::kDepths, i,
                                            plane));
      EXPECT_FALSE(cache.Get(3, /*with_depths=*/false).has_value())
          << "vertex " << i << " plane " << plane;
      cache.Put(3, value);
      ASSERT_TRUE(cache.CorruptEntryForTest(3, ResultCache::Field::kDepths, i,
                                            plane));
      EXPECT_FALSE(cache.Peek(3).has_value())
          << "vertex " << i << " plane " << plane;
    }
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.quarantined,
            2 * kPlanes * static_cast<int64_t>(depths.size()));
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.entries, 0);
  // An intact entry still round-trips.
  cache.Put(3, MakeValue(depths));
  ASSERT_TRUE(cache.Peek(3).has_value());
  EXPECT_EQ(cache.Get(3)->depths, depths);
}

TEST(CacheResultTest, CorruptedChecksumOrReachedIsQuarantined) {
  for (ResultCache::Field field :
       {ResultCache::Field::kChecksum, ResultCache::Field::kReached}) {
    ResultCache cache(1, Strategy::kBitwise, CacheOptions{});
    cache.Put(4, MakeValue({0, 1, 2, 0xff}));
    ASSERT_TRUE(cache.CorruptEntryForTest(4, field));
    EXPECT_FALSE(cache.Get(4).has_value());
    cache.Put(5, MakeValue({0, 1, 2, 0xff}));
    ASSERT_TRUE(cache.CorruptEntryForTest(5, field));
    EXPECT_FALSE(cache.Peek(5).has_value());
    EXPECT_EQ(cache.stats().quarantined, 2);
    EXPECT_EQ(cache.stats().entries, 0);
  }
}

TEST(CacheResultTest, EveryBitFlipOfTheSealedFieldsIsQuarantined) {
  // A corrupted width or length must be caught before the unpack reads
  // the planes with it; checksum and reached are what a hit serves.
  for (ResultCache::Field field :
       {ResultCache::Field::kChecksum, ResultCache::Field::kReached,
        ResultCache::Field::kWidth, ResultCache::Field::kLength}) {
    ResultCache cache(1, Strategy::kBitwise, CacheOptions{});
    int64_t flipped = 0;
    for (size_t bit = 0; bit < 64; ++bit) {
      cache.Put(6, MakeValue({0, 1, 2, 0xff, 3}));
      if (!cache.CorruptEntryForTest(6, field, bit)) {
        EXPECT_EQ(field, ResultCache::Field::kWidth);  // an int: 31 bits
        EXPECT_GE(bit, 31u);
        continue;
      }
      ++flipped;
      EXPECT_FALSE(cache.Get(6, /*with_depths=*/bit % 2 == 0).has_value())
          << "bit " << bit;
    }
    EXPECT_EQ(cache.stats().quarantined, flipped);
    EXPECT_EQ(cache.stats().hits, 0);
  }
}

TEST(CacheResultTest, PackRoundTripsEveryWidthAndLength) {
  // Width w holds depths up to 2^w - 2; the vector reaches that maximum and
  // also has unvisited vertices, which take the code 2^w - 1.
  for (int width = 1; width <= 8; ++width) {
    const int max_depth = (1 << width) - 2;
    for (size_t length : {1, 15, 16, 17, 1001, 8192}) {
      std::vector<uint8_t> depths(length);
      for (size_t i = 0; i < length; ++i) {
        depths[i] = i % 5 == 3
                        ? 0xff
                        : static_cast<uint8_t>((i * 7) % (max_depth + 1));
      }
      depths[length / 2] = static_cast<uint8_t>(max_depth);
      ResultCache cache(1, Strategy::kBitwise, CacheOptions{});
      cache.Put(11, MakeValue(depths));
      const int64_t plane_bytes =
          static_cast<int64_t>((length + 63) / 64 * 8);
      EXPECT_EQ(cache.bytes_resident(), width * plane_bytes + 96)
          << "width " << width << " length " << length;
      const auto peeked = cache.Peek(11);
      ASSERT_TRUE(peeked.has_value());
      EXPECT_EQ(peeked->depths, depths)
          << "width " << width << " length " << length;
      const auto hit = cache.Get(11);
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(hit->depths, depths)
          << "width " << width << " length " << length;
      EXPECT_EQ(hit->checksum, Fnv1a(depths));
    }
  }
}

TEST(CacheResultTest, DepthTwoFiftyFourIsStoredAtWidthEight) {
  std::vector<uint8_t> depths(100, 0xff);
  depths[0] = 0;
  depths[50] = 254;
  depths[99] = 127;
  ResultCache cache(1, Strategy::kBitwise, CacheOptions{});
  cache.Put(2, MakeValue(depths));
  EXPECT_EQ(cache.bytes_resident(), 8 * 2 * 8 + 96);  // 8 planes of 2 words
  const auto hit = cache.Get(2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->depths, depths);
  EXPECT_EQ(hit->reached, 3);
}

TEST(CacheResultTest, OnlyTheSourceVisitedPacksToOnePlane) {
  std::vector<uint8_t> depths(8192, 0xff);
  depths[4321] = 0;
  ResultCache cache(1, Strategy::kBitwise, CacheOptions{});
  cache.Put(4321, MakeValue(depths));
  EXPECT_EQ(cache.bytes_resident(), 8192 / 8 + 96);
  const auto hit = cache.Get(4321);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->depths, depths);
  EXPECT_EQ(hit->reached, 1);
}

TEST(CacheResultTest, PackedEntriesFitTwoAndAHalfTimesTheByteLayout) {
  // LJ-sized answers (8,192 vertices, depths at most 6) in the 8 MiB,
  // 8-shard cache of the serve_churn benchmark. One byte per vertex held
  // 8 * floor(1 MiB / (8,192 + 96 B)) = 1,008 of them; three planes hold
  // 8 * floor(1 MiB / (3,072 + 96 B)) = 2,640.
  std::vector<uint8_t> depths(8192);
  for (size_t i = 0; i < depths.size(); ++i) {
    depths[i] = i % 9 == 0 ? 0xff : static_cast<uint8_t>(i % 7);
  }
  const CachedDepths value = MakeValue(depths);
  CacheOptions options;
  options.result_budget_bytes = int64_t{8} << 20;
  options.shards = 8;
  ResultCache cache(1, Strategy::kBitwise, options);
  for (graph::VertexId source = 0; source < 4000; ++source) {
    cache.Put(source, value);
  }
  EXPECT_GE(cache.stats().entries, 2520);  // 2.5 x 1,008
  EXPECT_LE(cache.bytes_resident(), options.result_budget_bytes);
}

TEST(CacheResultTest, CorruptEntryForTestReportsAbsentSource) {
  ResultCache cache(1, Strategy::kBitwise, CacheOptions{});
  EXPECT_FALSE(cache.CorruptEntryForTest(42));
}

TEST(CachePartitionKeyTest, SaltedFingerprintsKeepTwinPartitionsApart) {
  // Two disjoint identical 8-rings; the 1D edge cut lands exactly on the
  // component boundary, so the two partitions' local CSRs have the same
  // shape (identical row offsets, adjacency differing only by the +8 id
  // shift). Regression: a cache key derived from local topology alone is
  // one id-pattern coincidence away from letting partition 1's cache
  // serve partition 0's depths. GraphPartition::Fingerprint salts the
  // topology digest with the owner vertex range, which separates the keys
  // unconditionally.
  graph::GraphBuilder builder(16);
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 8; ++i) {
      builder.AddUndirectedEdge(
          static_cast<graph::VertexId>(c * 8 + i),
          static_cast<graph::VertexId>(c * 8 + (i + 1) % 8));
    }
  }
  auto built = std::move(builder).Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const graph::Csr graph = std::move(built).value();
  auto parted = graph::PartitionByEdges1D(graph, 2);
  ASSERT_TRUE(parted.ok()) << parted.status().ToString();
  const graph::Partitioning& parts = parted.value();
  ASSERT_EQ(parts.parts[0].range.end, 8u);
  ASSERT_EQ(parts.parts[0].local.edge_count(),
            parts.parts[1].local.edge_count());

  const uint64_t key0 = parts.parts[0].Fingerprint();
  const uint64_t key1 = parts.parts[1].Fingerprint();
  EXPECT_NE(key0, key1);

  // The serving consequence: each partition's ResultCache stamps entries
  // with its own key, and Get rejects any entry whose stored fingerprint
  // disagrees — so a warmup replay or replication fan-out that offers
  // partition 0's bytes to partition 1's cache is rejected as a stale
  // graph rather than served as a hit.
  ResultCache cache0(key0, Strategy::kBitwise, CacheOptions{});
  ResultCache cache1(key1, Strategy::kBitwise, CacheOptions{});
  cache0.Put(3, MakeValue({0, 1, 2, 0xff}));
  ASSERT_TRUE(cache0.Get(3).has_value());
  EXPECT_FALSE(cache1.Get(3).has_value());
  cache1.Put(3, MakeValue({2, 1, 0, 0xff}));
  auto hit0 = cache0.Get(3);
  auto hit1 = cache1.Get(3);
  ASSERT_TRUE(hit0.has_value());
  ASSERT_TRUE(hit1.has_value());
  EXPECT_NE(hit0->depths, hit1->depths);
}

TEST(CacheResultTest, ClearDropsEverything) {
  ResultCache cache(1, Strategy::kBitwise, CacheOptions{});
  cache.Put(1, MakeValue({0, 1}));
  cache.Put(2, MakeValue({1, 0}));
  cache.Clear();
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.bytes_resident(), 0);
}

// ------------------------------------------------------------ plan cache --

TEST(CachePlanTest, MemoizesExactSourceSet) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  EngineOptions engine;
  engine.strategy = Strategy::kBitwise;
  engine.grouping = GroupingPolicy::kGroupBy;
  engine.group_size = 16;
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 32, 7);
  std::vector<graph::VertexId> sorted = sources;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  PlanCache cache(GroupConfigFingerprint(engine), /*capacity=*/8);
  EXPECT_FALSE(cache.Get(sorted).has_value());
  auto plan = GroupSources(graph, sorted, engine);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  cache.Put(sorted, plan.value());
  auto memoized = cache.Get(sorted);
  ASSERT_TRUE(memoized.has_value());
  EXPECT_EQ(memoized->group_size, plan.value().group_size);
  EXPECT_EQ(memoized->grouping.groups, plan.value().grouping.groups);
  EXPECT_EQ(memoized->grouping.group_hubs, plan.value().grouping.group_hubs);

  // A different source set misses even though the config matches.
  std::vector<graph::VertexId> other(sorted.begin(), sorted.end() - 1);
  EXPECT_FALSE(cache.Get(other).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.plan_hits, 1);
  EXPECT_EQ(stats.plan_misses, 2);
  EXPECT_EQ(stats.plan_insertions, 1);
}

TEST(CachePlanTest, EvictsAtCapacity) {
  PlanCache cache(/*config_fingerprint=*/1, /*capacity=*/2);
  GroupPlan plan;
  plan.group_size = 4;
  const std::vector<graph::VertexId> a = {1}, b = {2}, c = {3};
  cache.Put(a, plan);
  cache.Put(b, plan);
  ASSERT_TRUE(cache.Get(a).has_value());  // refresh a; b becomes LRU
  cache.Put(c, plan);
  EXPECT_TRUE(cache.Get(a).has_value());
  EXPECT_FALSE(cache.Get(b).has_value());
  EXPECT_TRUE(cache.Get(c).has_value());
  EXPECT_EQ(cache.stats().plan_evictions, 1);
}

TEST(CachePlanTest, ClearDropsPlans) {
  PlanCache cache(1, 8);
  GroupPlan plan;
  plan.group_size = 4;
  const std::vector<graph::VertexId> key = {5};
  cache.Put(key, plan);
  cache.Clear();
  EXPECT_FALSE(cache.Get(key).has_value());
}

// --------------------------------------------------- service integration --

EngineOptions SmallEngineOptions() {
  EngineOptions options;
  options.strategy = Strategy::kBitwise;
  options.grouping = GroupingPolicy::kGroupBy;
  options.group_size = 16;
  return options;
}

ServiceOptions CachedServiceOptions() {
  ServiceOptions options;
  options.max_batch = 16;
  options.max_delay_ms = 2.0;
  options.execute_threads = 2;
  options.engine = SmallEngineOptions();
  return options;
}

// Submits every source once and waits; returns the results in order.
std::vector<QueryResult> SubmitAll(
    BfsService* svc, const std::vector<graph::VertexId>& sources) {
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(sources.size());
  for (graph::VertexId s : sources) futures.push_back(svc->Submit(s));
  std::vector<QueryResult> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

TEST(CacheServiceTest, SecondWaveResolvesFromCache) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 12, 7);
  auto svc = BfsService::Create(&graph, CachedServiceOptions());
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  const auto first = SubmitAll(svc.value().get(), sources);
  const auto second = SubmitAll(svc.value().get(), sources);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i].status.ok()) << first[i].status.ToString();
    ASSERT_TRUE(second[i].status.ok()) << second[i].status.ToString();
    EXPECT_FALSE(first[i].cached);
    EXPECT_TRUE(second[i].cached);
    EXPECT_EQ(second[i].batch_id, -1);  // never joined a batch
    EXPECT_EQ(first[i].depth_checksum, second[i].depth_checksum);
    EXPECT_EQ(first[i].reached, second[i].reached);
    EXPECT_EQ(first[i].depths, second[i].depths);  // keep_depths default on
  }
  svc.value()->Shutdown();
  EXPECT_EQ(svc.value()->stats().cache_hits,
            static_cast<int64_t>(sources.size()));
  const CacheStats cache = svc.value()->cache_stats();
  EXPECT_EQ(cache.hits, static_cast<int64_t>(sources.size()));
  EXPECT_EQ(cache.insertions, static_cast<int64_t>(sources.size()));
}

TEST(CacheServiceTest, HitRatioGaugeCountsAdmissionLookups) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 12, 7);
  obs::MetricsRegistry registry;
  ServiceOptions options = CachedServiceOptions();
  options.observer.metrics = &registry;
  auto svc = BfsService::Create(&graph, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  SubmitAll(svc.value().get(), sources);  // every lookup misses
  SubmitAll(svc.value().get(), sources);  // every lookup hits
  SubmitAll(svc.value().get(), sources);
  svc.value()->Shutdown();
  const auto n = static_cast<int64_t>(sources.size());
  EXPECT_EQ(registry.FindCounter("cache.hits")->value(), 2 * n);
  EXPECT_EQ(registry.FindCounter("cache.misses")->value(), n);
  EXPECT_EQ(registry.FindCounter("service.completed")->value(), 3 * n);
  EXPECT_EQ(registry.FindHistogram("service.total_ms")->count(), 3 * n);
  EXPECT_DOUBLE_EQ(registry.FindGauge("cache.hit_ratio")->value(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(svc.value()->cache_stats().HitRatio(), 2.0 / 3.0);
}

TEST(CacheServiceTest, QuarantinedEntryIsReexecutedCorrectly) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 4, 7);
  auto svc = BfsService::Create(&graph, CachedServiceOptions());
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  const auto first = SubmitAll(svc.value().get(), sources);
  for (const QueryResult& r : first) ASSERT_TRUE(r.status.ok());
  // Corrupt one cached entry in place: the next lookup must detect the
  // checksum mismatch, quarantine the entry, and re-execute the query.
  ASSERT_TRUE(
      svc.value()->result_cache_for_test()->CorruptEntryForTest(sources[0]));
  const auto again = SubmitAll(svc.value().get(), {sources[0]});
  ASSERT_TRUE(again[0].status.ok()) << again[0].status.ToString();
  EXPECT_FALSE(again[0].cached);  // served by execution, not the cache
  EXPECT_EQ(again[0].depth_checksum, first[0].depth_checksum);
  EXPECT_EQ(again[0].depths, first[0].depths);
  svc.value()->Shutdown();
  EXPECT_EQ(svc.value()->cache_stats().quarantined, 1);
}

TEST(CacheServiceTest, EachQuarantineFiresFlightTriggerOnce) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 4, 7);
  obs::FlightRecorder::Options flight_options;
  flight_options.dump_path =
      ::testing::TempDir() + "/cache_quarantine_flight_test.json";
  flight_options.min_dump_interval_s = 0.0;  // every trigger dumps
  std::remove(flight_options.dump_path.c_str());
  obs::FlightRecorder flight(flight_options);
  ServiceOptions options = CachedServiceOptions();
  options.flight = &flight;
  auto svc = BfsService::Create(&graph, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  // Plain misses and hits never fire the trigger.
  const auto first = SubmitAll(svc.value().get(), sources);
  for (const QueryResult& r : first) ASSERT_TRUE(r.status.ok());
  SubmitAll(svc.value().get(), sources);
  EXPECT_EQ(flight.dumps(), 0);

  ASSERT_TRUE(
      svc.value()->result_cache_for_test()->CorruptEntryForTest(sources[0]));
  const auto again = SubmitAll(svc.value().get(), {sources[0]});
  ASSERT_TRUE(again[0].status.ok()) << again[0].status.ToString();
  EXPECT_FALSE(again[0].cached);
  EXPECT_EQ(again[0].depth_checksum, first[0].depth_checksum);
  // The re-executed answer is cached again: later lookups hit, and the
  // trigger stays at the one quarantine.
  const auto later = SubmitAll(svc.value().get(), sources);
  EXPECT_TRUE(later[0].cached);
  EXPECT_EQ(later[0].depth_checksum, first[0].depth_checksum);
  EXPECT_EQ(flight.dumps(), 1);
  // A replica read (PeekCache) that quarantines fires it too.
  ASSERT_TRUE(
      svc.value()->result_cache_for_test()->CorruptEntryForTest(sources[1]));
  EXPECT_FALSE(svc.value()->PeekCache(sources[1]).has_value());
  EXPECT_EQ(flight.dumps(), 2);
  svc.value()->Shutdown();
  EXPECT_EQ(svc.value()->cache_stats().quarantined, 2);

  auto dump = obs::ParseJsonFile(flight_options.dump_path);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(dump.value().Find("trigger")->string_value(), "quarantine");
  int quarantine_events = 0;
  for (const obs::JsonValue& event : dump.value().Find("events")->array()) {
    quarantine_events += event.Find("name")->string_value() ==
                         "cache_quarantined";
  }
  EXPECT_EQ(quarantine_events, 2);
  std::remove(flight_options.dump_path.c_str());
}

TEST(CacheServiceTest, InvalidateClearsBothCaches) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 8, 7);
  auto svc = BfsService::Create(&graph, CachedServiceOptions());
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  for (const QueryResult& r : SubmitAll(svc.value().get(), sources)) {
    ASSERT_TRUE(r.status.ok());
  }
  EXPECT_GT(svc.value()->cache_stats().entries, 0);
  svc.value()->InvalidateCache();
  EXPECT_EQ(svc.value()->cache_stats().entries, 0);
  EXPECT_EQ(svc.value()->cache_stats().bytes_resident, 0);
  const auto again = SubmitAll(svc.value().get(), {sources[0]});
  ASSERT_TRUE(again[0].status.ok());
  EXPECT_FALSE(again[0].cached);  // cold after invalidation
  svc.value()->Shutdown();
}

TEST(CacheServiceTest, DisabledCacheNeverServesHits) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 6, 7);
  ServiceOptions options = CachedServiceOptions();
  options.cache.enabled = false;
  auto svc = BfsService::Create(&graph, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  for (int pass = 0; pass < 2; ++pass) {
    for (const QueryResult& r : SubmitAll(svc.value().get(), sources)) {
      ASSERT_TRUE(r.status.ok());
      EXPECT_FALSE(r.cached);
    }
  }
  svc.value()->Shutdown();
  EXPECT_EQ(svc.value()->stats().cache_hits, 0);
  EXPECT_EQ(svc.value()->cache_stats().hits, 0);
}

TEST(CacheServiceTest, FirstBatchInsertsIntoPlanCache) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 16, 7);
  ServiceOptions options = CachedServiceOptions();
  options.max_batch = static_cast<int>(sources.size());
  options.max_delay_ms = 1000.0;  // the size close fires first
  auto svc = BfsService::Create(&graph, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  for (const QueryResult& r : SubmitAll(svc.value().get(), sources)) {
    ASSERT_TRUE(r.status.ok());
  }
  svc.value()->Shutdown();
  const CacheStats cache = svc.value()->cache_stats();
  EXPECT_GE(cache.plan_insertions, 1);
  EXPECT_GE(cache.plan_misses, 1);
}

TEST(CacheServiceTest, PlanCacheHitOnIdenticalResubmittedBatch) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 16, 7);
  ServiceOptions options = CachedServiceOptions();
  options.max_batch = static_cast<int>(sources.size());
  options.max_delay_ms = 1000.0;
  // Shrink the result cache below one depth vector so every repeat misses
  // the result cache and re-enters the batcher — but the plan cache still
  // remembers the batch's grouping.
  options.cache.result_budget_bytes = 8;
  options.cache.shards = 1;
  auto svc = BfsService::Create(&graph, options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  for (int pass = 0; pass < 2; ++pass) {
    for (const QueryResult& r : SubmitAll(svc.value().get(), sources)) {
      ASSERT_TRUE(r.status.ok());
      EXPECT_FALSE(r.cached);  // results never fit the tiny budget
    }
  }
  svc.value()->Shutdown();
  EXPECT_GE(svc.value()->cache_stats().plan_hits, 1);
}

// ------------------------------------------------------- determinism SLO --

// Drives `events` through a fresh service and returns each query's
// (source, checksum) in submission order, asserting every query succeeds.
std::vector<std::pair<graph::VertexId, uint64_t>> RunStream(
    const graph::Csr& graph, const std::vector<WorkloadEvent>& events,
    bool cache_on, int execute_threads,
    const gpusim::FaultPlan* faults = nullptr) {
  ServiceOptions options = CachedServiceOptions();
  options.execute_threads = execute_threads;
  options.keep_depths = false;
  options.cache.enabled = cache_on;
  if (faults != nullptr) {
    options.engine.faults = *faults;
    options.engine.retry.max_attempts = 8;
    options.engine.retry.initial_backoff_ms = 0.0;
    options.engine.retry.max_backoff_ms = 0.0;
    options.resilience.cpu_fallback = true;
  }
  auto svc = BfsService::Create(&graph, options);
  IBFS_CHECK(svc.ok()) << svc.status().ToString();
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(events.size());
  for (const WorkloadEvent& event : events) {
    futures.push_back(svc.value()->Submit(event.source));
  }
  svc.value()->Shutdown();
  std::vector<std::pair<graph::VertexId, uint64_t>> out;
  out.reserve(futures.size());
  for (auto& f : futures) {
    const QueryResult r = f.get();
    IBFS_CHECK(r.status.ok()) << r.status.ToString();
    out.emplace_back(r.source, r.depth_checksum);
  }
  return out;
}

TEST(CacheDeterminismTest, OnOffBitIdenticalAcrossThreadCounts) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  WorkloadOptions workload;
  workload.arrival = ArrivalProcess::kBursty;
  workload.qps = 2000.0;
  workload.duration_s = 0.05;
  workload.seed = 99;
  workload.burst_size = 8;
  workload.source_pool = 6;  // hot sources: plenty of cache hits
  auto events = GenerateArrivals(graph, workload);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_GT(events.value().size(), 12u);

  const auto baseline = RunStream(graph, events.value(), false, 1);
  for (bool cache_on : {false, true}) {
    for (int threads : {1, 4}) {
      const auto run = RunStream(graph, events.value(), cache_on, threads);
      // Per-query checksums depend only on (graph, source): the cache and
      // the executor width may change latency, never answers.
      EXPECT_EQ(run, baseline)
          << "cache_on=" << cache_on << " threads=" << threads;
    }
  }
}

TEST(CacheDeterminismTest, HitsMatchMissesWithAndWithoutDepths) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  const std::vector<graph::VertexId> sources =
      graph::SampleConnectedSources(graph, 12, 7);
  std::map<bool, std::vector<QueryResult>> misses, hits;
  for (bool keep_depths : {false, true}) {
    ServiceOptions options = CachedServiceOptions();
    options.keep_depths = keep_depths;
    auto svc = BfsService::Create(&graph, options);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    misses[keep_depths] = SubmitAll(svc.value().get(), sources);
    hits[keep_depths] = SubmitAll(svc.value().get(), sources);
    svc.value()->Shutdown();
  }
  for (size_t i = 0; i < sources.size(); ++i) {
    const QueryResult& filled = misses[true][i];
    ASSERT_TRUE(filled.status.ok()) << filled.status.ToString();
    for (bool keep_depths : {false, true}) {
      const QueryResult& miss = misses[keep_depths][i];
      const QueryResult& hit = hits[keep_depths][i];
      ASSERT_TRUE(miss.status.ok()) << miss.status.ToString();
      ASSERT_TRUE(hit.status.ok()) << hit.status.ToString();
      EXPECT_FALSE(miss.cached);
      EXPECT_TRUE(hit.cached);
      for (const QueryResult* r : {&miss, &hit}) {
        EXPECT_EQ(r->depth_checksum, filled.depth_checksum);
        EXPECT_EQ(r->reached, filled.reached);
        // Depths travel only when asked for, byte-identical to the miss.
        EXPECT_EQ(r->depths, keep_depths ? filled.depths
                                         : std::vector<uint8_t>{});
      }
    }
  }
}

TEST(CacheDeterminismTest, OnOffBitIdenticalUnderCorruptingFaults) {
  const graph::Csr graph = MakeRmatGraph(8, 8);
  WorkloadOptions workload;
  workload.arrival = ArrivalProcess::kBursty;
  workload.qps = 1500.0;
  workload.duration_s = 0.04;
  workload.seed = 31;
  workload.burst_size = 8;
  workload.source_pool = 5;
  auto events = GenerateArrivals(graph, workload);
  ASSERT_TRUE(events.ok()) << events.status().ToString();

  // Transfers corrupt often; the resilient executor's transfer checksum
  // catches each one before results reach clients or the cache, so the
  // cached run must still agree bit for bit with the uncached one.
  auto faults =
      gpusim::FaultPlan::Parse("seed=7,devices=4,corrupt=0.3");
  ASSERT_TRUE(faults.ok()) << faults.status().ToString();

  const auto uncached =
      RunStream(graph, events.value(), false, 1, &faults.value());
  for (int threads : {1, 4}) {
    const auto cached =
        RunStream(graph, events.value(), true, threads, &faults.value());
    EXPECT_EQ(cached, uncached) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ibfs::service
