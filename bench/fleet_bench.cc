// Distributed-fleet bench, five experiments in one BENCH_fleet.json:
//
// 1. Shard-count sweep: the same open-loop workload driven through a
//    single BfsService (the baseline) and through fleets of {1, 2, 4, 8}
//    shards. Every fleet's submit-order checksum must equal the
//    baseline's — the scatter/route/merge path may change latency, never
//    answers. -> "points": [{shards, p50_ms, p99_ms, ...}].
//
// 2. Scatter-gather: the same arrivals bundled into multi-source
//    MultiQuery calls (4 sources per scatter) at 4 shards; the flattened
//    request-order checksum must again equal the baseline's.
//    -> "scatter": {...}.
//
// 3. Failover blip: a 4-shard fleet loses one shard at the schedule
//    midpoint. Every future must still resolve (unanswered == 0) and
//    every answer must match the fault-free CPU baseline; the recorded
//    p99 and reroute count quantify the blip. -> "failover": {...}.
//
// 4. Elastic episode: a 3-shard fleet loses shard 1 mid-drive and joins a
//    fresh shard at 75% of the schedule — the full kill -> serve -> grow
//    -> serve arc, with targeted cache warmup of the stolen segment.
//    Zero unanswered futures and zero mismatches or the bench aborts.
//    -> "elastic": {...}.
//
// 5. Replication sweep: the shard-count workload at R = {1, 2} with the
//    result cache on. R = 2 gates in-order failover reads: answers stay
//    bit-identical to the baseline, replicas never disagree (zero
//    mismatches), and OK reads fan their cache entry out to the other
//    replica (replica_cache_writes > 0).
//    -> "replication": [{replication, replica_cache_writes, ...}].
//
// Environment knobs: IBFS_GRAPH (default PK), IBFS_FLEET_QPS (default
// 400), IBFS_FLEET_DURATION (default 1 s), IBFS_FLEET_VNODES (default
// 128), IBFS_FLEET_THREADS (default 2), IBFS_BENCH_OUT (default
// BENCH_fleet.json), IBFS_FLEET_SECTIONS ("all" | "elastic" — the latter
// runs only the baseline + elastic + replication sections, which is what
// the fleet_elastic_smoke ctest gates).
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "fleet/fleet.h"
#include "fleet/fleet_workload.h"
#include "obs/json.h"
#include "service/service.h"
#include "service/workload.h"
#include "util/checksum.h"

namespace ibfs::bench {
namespace {

struct Latency {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

Latency Percentiles(const std::vector<service::QueryResult>& results) {
  const std::vector<double> bounds = obs::PowerOfTwoBounds(0.001, 32);
  obs::Histogram total("total_ms", bounds);
  for (const service::QueryResult& result : results) {
    if (result.status.ok()) total.Observe(result.latency.total_ms);
  }
  return {total.Percentile(0.50), total.Percentile(0.95),
          total.Percentile(0.99)};
}

// Submit-order fold of the OK depth checksums — the same merge DriveFleet
// computes, applied to the single-service baseline for comparison.
uint64_t FoldResults(const std::vector<service::QueryResult>& results) {
  uint64_t checksum = kFnv1aOffsetBasis;
  for (const service::QueryResult& result : results) {
    if (result.status.ok()) {
      checksum = fleet::FoldChecksum(checksum, result.depth_checksum);
    }
  }
  return checksum;
}

int Main() {
  PrintHeader("fleet bench",
              "shard sweep, scatter-gather, failover, elasticity, "
              "replication");
  const std::string graph_name = EnvString("IBFS_GRAPH", "PK");
  const std::string sections = EnvString("IBFS_FLEET_SECTIONS", "all");
  const bool run_core = sections != "elastic";
  std::vector<LoadedGraph> loaded_set =
      LoadNamed(std::vector<std::string>{graph_name});
  const LoadedGraph& loaded = loaded_set.front();

  service::WorkloadOptions arrivals;
  arrivals.arrival = service::ArrivalProcess::kPoisson;
  arrivals.qps = EnvDouble("IBFS_FLEET_QPS", 400.0);
  arrivals.duration_s = EnvDouble("IBFS_FLEET_DURATION", 1.0);
  arrivals.seed = 2016;
  auto events = service::GenerateArrivals(loaded.graph, arrivals);
  IBFS_CHECK(events.ok()) << events.status().ToString();

  service::ServiceOptions service_template;
  service_template.max_batch = 64;
  service_template.max_delay_ms = 2.0;
  service_template.execute_threads = EnvInt("IBFS_FLEET_THREADS", 2);
  service_template.keep_depths = false;
  service_template.engine =
      BaseOptions(Strategy::kBitwise, GroupingPolicy::kGroupBy);

  // Single-service baseline: the answers every fleet configuration must
  // reproduce bit for bit.
  auto baseline_svc =
      service::BfsService::Create(&loaded.graph, service_template);
  IBFS_CHECK(baseline_svc.ok()) << baseline_svc.status().ToString();
  auto baseline =
      service::DriveWorkload(baseline_svc.value().get(), events.value());
  IBFS_CHECK(baseline.ok()) << baseline.status().ToString();
  const uint64_t baseline_checksum = FoldResults(baseline.value().results);
  const Latency baseline_latency = Percentiles(baseline.value().results);
  std::printf("%8s %8s %8s %10s %10s %6s\n", "shards", "p50 ms", "p99 ms",
              "qps", "imbalance", "match");
  std::printf("%8s %8.2f %8.2f %10.1f %10s %6s\n", "base",
              baseline_latency.p50, baseline_latency.p99,
              baseline.value().achieved_qps, "-", "-");

  const int vnodes = EnvInt("IBFS_FLEET_VNODES", 128);
  struct Point {
    int shards = 0;
    Latency latency;
    double achieved_qps = 0.0;
    double imbalance = 0.0;
    bool checksum_match = false;
  };
  std::vector<Point> points;
  if (run_core) {
    for (int shards : {1, 2, 4, 8}) {
      fleet::FleetOptions options;
      options.shards = shards;
      options.vnodes = vnodes;
      options.service = service_template;
      auto door = fleet::FleetFrontDoor::Create(&loaded.graph, options);
      IBFS_CHECK(door.ok()) << door.status().ToString();
      fleet::FleetWorkloadOptions workload;
      workload.workload = arrivals;
      auto drive =
          fleet::DriveFleet(door.value().get(), events.value(), workload);
      IBFS_CHECK(drive.ok()) << drive.status().ToString();
      IBFS_CHECK(drive.value().unanswered == 0)
          << drive.value().unanswered << " futures never resolved";
      Point point;
      point.shards = shards;
      point.latency = Percentiles(drive.value().results);
      point.achieved_qps = drive.value().achieved_qps;
      point.imbalance = drive.value().stats.Imbalance();
      point.checksum_match = drive.value().checksum == baseline_checksum;
      IBFS_CHECK(point.checksum_match)
          << shards << "-shard fleet disagreed with the single-service "
          << "baseline";
      std::printf("%8d %8.2f %8.2f %10.1f %10.2f %6s\n", shards,
                  point.latency.p50, point.latency.p99, point.achieved_qps,
                  point.imbalance, point.checksum_match ? "yes" : "NO");
      points.push_back(point);
    }
  }

  // Scatter-gather: identical arrivals, bundled 4 sources per MultiQuery.
  int64_t scatter_multi_queries = 0;
  Latency scatter_latency;
  bool scatter_match = false;
  if (run_core) {
    fleet::FleetWorkloadOptions scatter_workload;
    scatter_workload.workload = arrivals;
    scatter_workload.multi_source = 4;
    fleet::FleetOptions scatter_options;
    scatter_options.shards = 4;
    scatter_options.vnodes = vnodes;
    scatter_options.service = service_template;
    auto scatter_door =
        fleet::FleetFrontDoor::Create(&loaded.graph, scatter_options);
    IBFS_CHECK(scatter_door.ok()) << scatter_door.status().ToString();
    auto scatter = fleet::DriveFleet(scatter_door.value().get(),
                                     events.value(), scatter_workload);
    IBFS_CHECK(scatter.ok()) << scatter.status().ToString();
    IBFS_CHECK(scatter.value().unanswered == 0);
    scatter_match = scatter.value().checksum == baseline_checksum;
    IBFS_CHECK(scatter_match)
        << "scatter-gather answers disagreed with the baseline";
    scatter_latency = Percentiles(scatter.value().results);
    scatter_multi_queries = scatter.value().multi_queries;
    std::printf("scatter-gather:  %lld multi-queries of 4, p50 %.2f ms, "
                "p99 %.2f ms, match %s\n",
                static_cast<long long>(scatter_multi_queries),
                scatter_latency.p50, scatter_latency.p99,
                scatter_match ? "yes" : "NO");
  }

  // Failover blip: 4 shards, one killed at the schedule midpoint. The
  // chaos harness also verifies every answer against the CPU reference.
  obs::FleetReport blip;
  if (run_core) {
    fleet::FleetWorkloadOptions failover_workload;
    failover_workload.workload = arrivals;
    failover_workload.kill_shard = 1;
    fleet::FleetOptions failover_options;
    failover_options.shards = 4;
    failover_options.vnodes = vnodes;
    failover_options.service = service_template;
    auto failover = fleet::RunFleetChaos(
        graph_name, loaded.graph, failover_options, failover_workload);
    IBFS_CHECK(failover.ok()) << failover.status().ToString();
    blip = failover.value();
    IBFS_CHECK(blip.unanswered == 0)
        << blip.unanswered << " futures never resolved across the failover";
    IBFS_CHECK(blip.checksum_mismatches == 0)
        << blip.checksum_mismatches
        << " answers diverged after the failover";
    std::printf("failover:        shard 1 killed mid-run; %lld reroutes, "
                "%lld unanswered, %lld/%lld checksums OK, p99 %.2f ms\n",
                static_cast<long long>(blip.failover_reroutes),
                static_cast<long long>(blip.unanswered),
                static_cast<long long>(blip.checksums_compared -
                                       blip.checksum_mismatches),
                static_cast<long long>(blip.checksums_compared),
                blip.total_ms.p99);
  }

  // Elastic episode: kill shard 1 at the midpoint, join a replacement at
  // 75% — traffic never stops, no future is lost, and every answer stays
  // bit-identical to the CPU baseline through both membership changes.
  fleet::FleetWorkloadOptions elastic_workload;
  elastic_workload.workload = arrivals;
  elastic_workload.kill_shard = 1;
  elastic_workload.join_shards = 1;
  fleet::FleetOptions elastic_options;
  elastic_options.shards = 3;
  elastic_options.vnodes = vnodes;
  elastic_options.service = service_template;
  elastic_options.service.cache.enabled = true;  // exercise join warmup
  auto elastic = fleet::RunFleetChaos(graph_name, loaded.graph,
                                      elastic_options, elastic_workload);
  IBFS_CHECK(elastic.ok()) << elastic.status().ToString();
  const obs::FleetReport& episode = elastic.value();
  IBFS_CHECK(episode.unanswered == 0)
      << episode.unanswered << " futures never resolved across the episode";
  IBFS_CHECK(episode.checksum_mismatches == 0)
      << episode.checksum_mismatches << " answers diverged in the episode";
  IBFS_CHECK(episode.shard_joins == 1)
      << "the elastic join never happened";
  std::printf("elastic:         kill 1 + join 1; %lld warmup entries, "
              "%lld reroutes, %lld/%lld checksums OK, p99 %.2f ms\n",
              static_cast<long long>(episode.warmup_entries),
              static_cast<long long>(episode.failover_reroutes),
              static_cast<long long>(episode.checksums_compared -
                                     episode.checksum_mismatches),
              static_cast<long long>(episode.checksums_compared),
              episode.total_ms.p99);

  // Replication sweep: R = {1, 2} at 4 shards. R = 1 is the zero-overhead
  // control; R = 2 reads fail over in replica order and fan OK answers out
  // to the second replica's cache. Both must reproduce the baseline
  // checksums exactly.
  struct ReplicationRow {
    int replication = 0;
    Latency latency;
    double achieved_qps = 0.0;
    int64_t replica_mismatches = 0;
    int64_t replica_cache_writes = 0;
    bool checksum_match = false;
  };
  std::vector<ReplicationRow> replication_rows;
  for (int replication : {1, 2}) {
    fleet::FleetOptions options;
    options.shards = 4;
    options.vnodes = vnodes;
    options.service = service_template;
    options.service.cache.enabled = true;  // exercise replica fan-out
    options.replication = replication;
    auto door = fleet::FleetFrontDoor::Create(&loaded.graph, options);
    IBFS_CHECK(door.ok()) << door.status().ToString();
    fleet::FleetWorkloadOptions workload;
    workload.workload = arrivals;
    auto drive =
        fleet::DriveFleet(door.value().get(), events.value(), workload);
    IBFS_CHECK(drive.ok()) << drive.status().ToString();
    IBFS_CHECK(drive.value().unanswered == 0)
        << drive.value().unanswered << " futures never resolved at R="
        << replication;
    ReplicationRow row;
    row.replication = replication;
    row.latency = Percentiles(drive.value().results);
    row.achieved_qps = drive.value().achieved_qps;
    row.replica_mismatches = drive.value().stats.replica_mismatches;
    row.replica_cache_writes = drive.value().stats.replica_cache_writes;
    row.checksum_match = drive.value().checksum == baseline_checksum;
    IBFS_CHECK(row.checksum_match)
        << "R=" << replication
        << " fleet disagreed with the single-service baseline";
    IBFS_CHECK(row.replica_mismatches == 0)
        << row.replica_mismatches << " replica mismatches at R="
        << replication;
    IBFS_CHECK(replication == 1 || row.replica_cache_writes > 0)
        << "R=" << replication << " fanned no cache entry out to a replica";
    std::printf("replication R=%d: p50 %.2f ms, p99 %.2f ms, %lld replica "
                "cache writes, match %s\n",
                replication, row.latency.p50, row.latency.p99,
                static_cast<long long>(row.replica_cache_writes),
                row.checksum_match ? "yes" : "NO");
    replication_rows.push_back(row);
  }

  const std::string out = EnvString("IBFS_BENCH_OUT", "BENCH_fleet.json");
  std::ofstream os(out, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
    return 1;
  }
  obs::JsonWriter w(os);
  w.BeginObject();
  w.Key("bench");
  w.String("fleet");
  w.Key("graph");
  w.String(graph_name);
  w.Key("arrival");
  w.String("poisson");
  w.Key("qps");
  w.Double(arrivals.qps);
  w.Key("duration_seconds");
  w.Double(arrivals.duration_s);
  w.Key("vnodes");
  w.Int(vnodes);
  w.Key("queries");
  w.Int(static_cast<int64_t>(events.value().size()));
  w.Key("sections");
  w.String(sections);
  w.Key("baseline");
  w.BeginObject();
  w.Key("p50_ms");
  w.Double(baseline_latency.p50);
  w.Key("p95_ms");
  w.Double(baseline_latency.p95);
  w.Key("p99_ms");
  w.Double(baseline_latency.p99);
  w.Key("achieved_qps");
  w.Double(baseline.value().achieved_qps);
  w.Key("checksum");
  w.Uint(baseline_checksum);
  w.EndObject();
  if (run_core) {
    w.Key("points");
    w.BeginArray();
    for (const Point& point : points) {
      w.BeginObject();
      w.Key("shards");
      w.Int(point.shards);
      w.Key("p50_ms");
      w.Double(point.latency.p50);
      w.Key("p95_ms");
      w.Double(point.latency.p95);
      w.Key("p99_ms");
      w.Double(point.latency.p99);
      w.Key("achieved_qps");
      w.Double(point.achieved_qps);
      w.Key("imbalance");
      w.Double(point.imbalance);
      w.Key("checksum_match");
      w.Bool(point.checksum_match);
      w.EndObject();
    }
    w.EndArray();
    w.Key("scatter");
    w.BeginObject();
    w.Key("shards");
    w.Int(4);
    w.Key("multi_source");
    w.Int(4);
    w.Key("multi_queries");
    w.Int(scatter_multi_queries);
    w.Key("p50_ms");
    w.Double(scatter_latency.p50);
    w.Key("p99_ms");
    w.Double(scatter_latency.p99);
    w.Key("checksum_match");
    w.Bool(scatter_match);
    w.EndObject();
    w.Key("failover");
    w.BeginObject();
    w.Key("shards");
    w.Int(4);
    w.Key("killed_shard");
    w.Int(1);
    w.Key("failover_reroutes");
    w.Int(blip.failover_reroutes);
    w.Key("fallback_answers");
    w.Int(blip.fallback_answers);
    w.Key("unanswered");
    w.Int(blip.unanswered);
    w.Key("checksums_compared");
    w.Int(blip.checksums_compared);
    w.Key("checksum_mismatches");
    w.Int(blip.checksum_mismatches);
    w.Key("p50_ms");
    w.Double(blip.total_ms.p50);
    w.Key("p99_ms");
    w.Double(blip.total_ms.p99);
    w.EndObject();
  }
  w.Key("elastic");
  w.BeginObject();
  w.Key("shards");
  w.Int(3);
  w.Key("killed_shard");
  w.Int(1);
  w.Key("joined_shards");
  w.Int(episode.joined_shards);
  w.Key("shard_joins");
  w.Int(episode.shard_joins);
  w.Key("warmup_entries");
  w.Int(episode.warmup_entries);
  w.Key("recoveries");
  w.Int(episode.recoveries);
  w.Key("failover_reroutes");
  w.Int(episode.failover_reroutes);
  w.Key("unanswered");
  w.Int(episode.unanswered);
  w.Key("checksums_compared");
  w.Int(episode.checksums_compared);
  w.Key("checksum_mismatches");
  w.Int(episode.checksum_mismatches);
  w.Key("p50_ms");
  w.Double(episode.total_ms.p50);
  w.Key("p99_ms");
  w.Double(episode.total_ms.p99);
  w.EndObject();
  w.Key("replication");
  w.BeginArray();
  for (const ReplicationRow& row : replication_rows) {
    w.BeginObject();
    w.Key("replication");
    w.Int(row.replication);
    w.Key("shards");
    w.Int(4);
    w.Key("p50_ms");
    w.Double(row.latency.p50);
    w.Key("p95_ms");
    w.Double(row.latency.p95);
    w.Key("p99_ms");
    w.Double(row.latency.p99);
    w.Key("achieved_qps");
    w.Double(row.achieved_qps);
    w.Key("replica_mismatches");
    w.Int(row.replica_mismatches);
    w.Key("replica_cache_writes");
    w.Int(row.replica_cache_writes);
    w.Key("checksum_match");
    w.Bool(row.checksum_match);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << '\n';
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace ibfs::bench

int main() { return ibfs::bench::Main(); }
